import json

import pytest

from glim.cli import main

KLEIN = [2, 2]
PAULI = {
    "support_gens": [[1, 0], [0, 1]],
    "beta": [[0, 1], [1, 0]],
    "zeta_order": 2,
}
X_T = [{"elem": [0, 0], "mult": 1}, {"elem": [0, 1], "mult": 1},
       {"elem": [1, 0], "mult": 1}, {"elem": [1, 1], "mult": 1}]
TWO = [{"elem": [0, 0], "mult": 2}]


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def files(tmp_path):
    a = write(tmp_path, "a.json", {"group": KLEIN, "x0": TWO, "cycle_labels": [TWO]})
    a_pauli = write(
        tmp_path,
        "a_pauli.json",
        {"group": KLEIN, "x0": TWO, "cycle_labels": [TWO], "division": PAULI},
    )
    a_prime = write(
        tmp_path, "a_prime.json", {"group": KLEIN, "x0": X_T, "cycle_labels": [X_T]}
    )
    a_prime_pauli = write(
        tmp_path,
        "a_prime_pauli.json",
        {"group": KLEIN, "x0": X_T, "cycle_labels": [X_T], "division": PAULI},
    )
    pauli_div = write(tmp_path, "pauli.json", {"group": KLEIN, **PAULI})
    trivial_div = write(
        tmp_path,
        "trivial.json",
        {"group": KLEIN, "support_gens": [], "beta": [], "zeta_order": 1},
    )
    two_inf = write(
        tmp_path,
        "two.json",
        {"group": [1], "x0": [{"elem": [0], "mult": 1}],
         "cycle_labels": [[{"elem": [0], "mult": 2}]]},
    )
    three_inf = write(
        tmp_path,
        "three.json",
        {"group": [1], "x0": [{"elem": [0], "mult": 1}],
         "cycle_labels": [[{"elem": [0], "mult": 3}]]},
    )
    return {
        "a": a,
        "a_pauli": a_pauli,
        "a_prime": a_prime,
        "a_prime_pauli": a_prime_pauli,
        "pauli": pauli_div,
        "trivial": trivial_div,
        "two": two_inf,
        "three": three_inf,
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_standard_form_reports_invariants(files, capsys):
    code, out = run(capsys, "standard-form", files["a"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["S"]) == 4
    assert len(payload["S0"]) == 4

    code, out = run(capsys, "standard-form", files["a_prime"], "--json")
    payload = json.loads(out)
    assert len(payload["S"]) == 1


def test_standard_form_idempotent(files, capsys, tmp_path):
    code, out = run(capsys, "standard-form", files["a_prime"], "--json")
    canon = json.loads(out)["descriptor"]
    again = write(tmp_path, "canon.json", canon)
    code, out2 = run(capsys, "standard-form", again, "--json")
    assert code == 0
    assert json.loads(out2)["descriptor"] == canon


def test_standard_form_rejects_zero_label(tmp_path, capsys):
    bad = write(
        tmp_path, "bad.json", {"group": [2], "x0": [], "cycle_labels": [[]]}
    )
    code = main(["standard-form", bad])
    assert code == 2


def test_parse_error_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["standard-form", str(path)]) == 2


@pytest.mark.parametrize("factors", [[128], [2] * 7])
def test_group_over_the_supported_order_is_an_error(tmp_path, capsys, factors):
    label = [{"elem": [0] * len(factors), "mult": 1}]
    big = write(
        tmp_path, "big.json", {"group": factors, "x0": label, "cycle_labels": [label]}
    )
    assert main(["standard-form", big]) == 2
    err = capsys.readouterr().err
    assert "big.json.group: group order 128 exceeds the supported 64" in err


def test_group_of_the_supported_order_is_accepted(tmp_path, capsys):
    label = [{"elem": [0, 0], "mult": 2}]
    edge = write(
        tmp_path, "edge.json", {"group": [8, 8], "x0": label, "cycle_labels": [label]}
    )
    assert main(["standard-form", edge]) == 0


def test_iso_exit_codes(files, capsys):
    code, out = run(capsys, "iso", files["a"], files["a"], "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"

    code, out = run(capsys, "iso", files["two"], files["three"], "--json")
    assert code == 1
    assert json.loads(out)["certificate"]["kind"] == "prime-separation"

    code, out = run(capsys, "iso", files["a_pauli"], files["a_prime"], "--json")
    assert code == 1
    assert json.loads(out)["certificate"]["kind"] == "absorption-fails"


def test_iso_group_mismatch_is_an_error(files, capsys):
    assert main(["iso", files["a"], files["two"]]) == 2


def test_iso_certificate_replay(files, capsys):
    code, out = run(
        capsys, "iso", files["a_pauli"], files["a_prime"], "--json",
        "--check-certificate",
    )
    assert code == 1
    assert json.loads(out)["certificate_ok"] is True

    code, out = run(
        capsys, "iso", files["a_prime_pauli"], files["a_prime"], "--json",
        "--check-certificate",
    )
    assert code == 0
    assert json.loads(out)["certificate_ok"] is True


def test_absorbs_exit_codes(files, capsys):
    code, out = run(
        capsys, "absorbs", files["a_prime"], "--division", files["pauli"], "--json",
        "--check-certificate",
    )
    assert code == 0
    assert json.loads(out)["certificate_ok"] is True

    code, out = run(
        capsys, "absorbs", files["a"], "--division", files["pauli"], "--json"
    )
    assert code == 1

    code, out = run(
        capsys, "absorbs", files["a"], "--division", files["trivial"], "--json"
    )
    assert code == 0


def test_brauer_mul(files, capsys):
    code, out = run(capsys, "brauer", "mul", files["pauli"], files["pauli"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["E"]["support_gens"] == []
    assert sorted(t["elem"] for t in payload["y"]) == [[0, 0], [0, 1], [1, 0], [1, 1]]

    code, out = run(capsys, "brauer", "mul", files["pauli"], files["trivial"], "--json")
    payload = json.loads(out)
    assert payload["y"] == [{"elem": [0, 0], "mult": 1}]


def test_brauer_inv(files, capsys):
    code, out = run(capsys, "brauer", "inv", files["pauli"], "--json")
    assert code == 0
    assert json.loads(out)["E"]["beta"] == [[0, 1], [1, 0]]


def test_brauer_equiv(files, capsys):
    code, _ = run(
        capsys, "brauer", "equiv", files["pauli"], files["trivial"], files["a"],
        "--json",
    )
    assert code == 1
    code, _ = run(
        capsys, "brauer", "equiv", files["pauli"], files["trivial"], files["a_prime"],
        "--json",
    )
    assert code == 0


def test_oracle_check_small(capsys):
    code, out = run(capsys, "oracle-check", "--max-group-order", "1", "--json")
    assert code == 0
    assert json.loads(out)["groups_checked"] == [[1]]

    code, out = run(capsys, "oracle-check", "--max-group-order", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [2, 2] in payload["groups_checked"]
    assert payload["ok"] is True
