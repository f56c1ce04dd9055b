import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from glim import cli
from glim.cli import main, parse_descriptor
from glim.codec import MAX_MULT

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


def test_standard_form_refuses_output_that_would_not_read_back(tmp_path, capsys):
    """x0 2,000,000 with a prefix label of 3,000,000 has the standard-form x0
    6*10^12, past the multiplicity bound: printing it would give a descriptor
    that the CLI refuses, so standard-form exits 2 naming the output field."""
    cycle = [[{"elem": [0], "mult": 2}]]
    stated = write(tmp_path, "stated.json", {
        "group": [2], "x0": [{"elem": [0], "mult": 2_000_000}],
        "prefix_labels": [[{"elem": [0], "mult": 3_000_000}]], "cycle_labels": cycle,
    })
    assert main(["standard-form", stated, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "output.descriptor.x0[0].mult" in captured.err
    # the descriptor it would have printed is refused at x0[0].mult
    printed = write(tmp_path, "printed.json", {
        "group": [2], "x0": [{"elem": [0], "mult": 6 * 10**12}],
        "prefix_labels": [], "cycle_labels": cycle,
    })
    assert main(["standard-form", printed, "--json"]) == 2
    assert f"{printed}.x0[0].mult" in capsys.readouterr().err


def test_standard_form_output_reads_back(tmp_path, capsys):
    """Fixed-seed descriptors with multiplicities up to the bound: every
    output of an exit-0 run parses back, and some runs are refused."""
    rng = random.Random(24)
    mults = [1, 2, 3, 2**16, 2**20, 2**31, MAX_MULT - 1]
    codes = []
    for n in range(60):
        factors = rng.choice([[2], [4], [2, 2], [3, 3], [4, 2]])
        elems = [list(c) for c in itertools.product(*map(range, factors))]

        def label():
            terms = rng.sample(elems, rng.randint(1, 2))
            return [{"elem": e, "mult": rng.choice(mults)} for e in terms]

        path = write(tmp_path, f"d{n}.json", {
            "group": factors, "x0": label(),
            "prefix_labels": [label() for _ in range(rng.randint(0, 2))],
            "cycle_labels": [label() for _ in range(rng.randint(1, 2))],
        })
        code, out = run(capsys, "standard-form", path, "--json")
        codes.append(code)
        if code == 0:
            parse_descriptor(json.loads(out)["descriptor"])
    assert set(codes) == {0, 2}


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


def test_group_mismatch_names_the_later_files_group(files, capsys, tmp_path):
    z1_div = write(
        tmp_path, "z1.json", {"group": [1], "support_gens": [], "beta": [], "zeta_order": 1}
    )
    for argv, path in [
        (["iso", files["a"], files["two"]], files["two"]),
        (["absorbs", files["two"], "--division", files["pauli"]], files["pauli"]),
        (["brauer", "mul", files["pauli"], z1_div], z1_div),
        (["brauer", "equiv", files["pauli"], files["trivial"], files["two"]], files["two"]),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}.group: ")


def test_a_division_part_where_an_elementary_descriptor_is_needed_is_refused(files, capsys):
    # all three files are over Z2 x Z2: the refusal names the division part
    for argv in [
        ["brauer", "equiv", files["pauli"], files["pauli"], files["a_pauli"]],
        ["absorbs", files["a_pauli"], "--division", files["pauli"]],
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {files['a_pauli']}.division: ")


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


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of one in-process call; an argparse usage
    error exits through SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["iso", "A", "B", "--budget", "-1"],
    ["iso", "A", "B", "--budget-primes", "-1"],
    ["absorbs", "A", "--division", "D", "--budget", "-5"],
    ["brauer", "inv", "D", "--budget-primes", "-3"],
    ["oracle-check", "--max-group-order", "0"],
    ["oracle-check", "--max-group-order", "-3"],
    ["iso", "A", "B", "--budget", "eight"],
])
def test_nonsensical_bounds_are_usage_errors(capsys, argv):
    code, out, err = _outcome(capsys, argv)
    assert code == 2 and out == ""
    assert f"argument {argv[-2]}: " in err


def test_zero_and_benchmark_budgets_still_parse(files, capsys):
    args = cli.build_parser().parse_args(
        ["iso", "A", "B", "--budget", "8", "--budget-primes", "7"])
    assert (args.budget, args.budget_primes) == (8, 7)
    zero = ["--budget", "0", "--budget-primes", "0", "--json"]
    code, out, _ = _outcome(capsys, ["iso", files["a"], files["a_prime"], *zero])
    assert code in (0, 1, 3)
    assert json.loads(out)["verdict"] in ("yes", "no", "unknown")


def test_shared_parser_keeps_no_state_between_calls(files, capsys, monkeypatch):
    sequence = [
        ["iso", files["two"], files["three"], "--json", "--check-certificate"],
        ["absorbs", files["a_prime"], "--division", files["pauli"], "--text"],
        ["absorbs", files["a"], "--no-such-flag"],
        ["standard-form", files["a"], "--json"],
        ["brauer", "inv", files["pauli"]],
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [_outcome(capsys, argv) for argv in sequence]
    assert [code for code, _, _ in fresh] == [1, 0, 2, 0, 0]
    assert "usage: glim absorbs" in fresh[2][2]
    before = cli.build_parser.cache_info()
    for _ in range(2):
        assert [_outcome(capsys, argv) for argv in sequence] == fresh
    assert cli.build_parser.cache_info().misses - before.misses <= 1


def _console(*args):
    """Run ``python -m glim.cli`` in a child process on this checkout's source."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "glim.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_console_entry_point(files):
    proc = _console("iso", files["two"], files["three"], "--json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "no"
    proc = _console("--help")
    assert proc.returncode == 0
    assert "usage: glim" in proc.stdout


def test_dependent_generating_tuple_through_the_cli(tmp_path, capsys):
    gens = [[1, 0], [0, 1], [1, 1]]
    dependent = write(tmp_path, "dep.json", {
        "group": KLEIN, "support_gens": gens, "beta": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "zeta_order": 2,
    })
    pair = write(tmp_path, "pair.json", {"group": KLEIN, **PAULI})
    assert run(capsys, "brauer", "inv", dependent, "--json") == run(
        capsys, "brauer", "inv", pair, "--json"
    )
    inconsistent = write(tmp_path, "bad.json", {
        "group": KLEIN, "support_gens": gens, "beta": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
        "zeta_order": 2,
    })
    assert main(["brauer", "inv", inconsistent]) == 2
    assert "bad.json.beta: " in capsys.readouterr().err


DIVISION = {"group": KLEIN, **PAULI}
DESCRIPTOR = {"group": KLEIN, "x0": TWO, "cycle_labels": [TWO]}
MISSING = None  # stands for a path with no file behind it

# (command, file payloads, the key path the message must name)
MALFORMED = [
    (["brauer", "mul"], [DIVISION], "files"),
    (["brauer", "mul"], [DIVISION] * 3, "files"),
    (["brauer", "inv"], [DIVISION, MISSING], "files"),
    (["brauer", "equiv"], [DIVISION, DIVISION, DESCRIPTOR, DESCRIPTOR], "files"),
    (["brauer", "inv"], [{**DIVISION, "beta": 5}], ".beta"),
    (["brauer", "inv"], [{**DIVISION, "beta": [[0, 1], 5]}], ".beta[1]"),
    (["standard-form"], [{**DESCRIPTOR, "prefix_labels": 3}], ".prefix_labels"),
    (["standard-form"], [{**DESCRIPTOR, "division": 5}], ".division"),
    # integers must be JSON integers: no rounding, no strings, no booleans
    (["standard-form"], [{**DESCRIPTOR, "x0": [{"elem": [1.7, 0], "mult": 1}]}],
     ".x0[0].elem[0]"),
    (["standard-form"], [{**DESCRIPTOR, "x0": [{"elem": ["1", 0], "mult": 1}]}],
     ".x0[0].elem[0]"),
    (["standard-form"], [{**DESCRIPTOR, "x0": [{"elem": [0, True], "mult": 1}]}],
     ".x0[0].elem[1]"),
    (["standard-form"], [{**DESCRIPTOR, "x0": [{"elem": [0, 0], "mult": True}]}],
     ".x0[0].mult"),
    (["standard-form"], [{**DESCRIPTOR, "group": [2, True]}], ".group[1]"),
    (["brauer", "inv"], [{**DIVISION, "support_gens": [[1.0, 0], [0, 1]]}],
     ".support_gens[0][0]"),
    (["brauer", "inv"], [{**DIVISION, "zeta_order": True}], ".zeta_order"),
    (["brauer", "inv"],
     [{"group": [4, 4], "support_gens": [[1, 0], [0, 1]],
       "beta": [[0, 1.5], [-1.5, 0]], "zeta_order": 4}],
     ".beta[0][1]"),
    # one past each size bound
    (["standard-form"], [{**DESCRIPTOR, "x0": [{"elem": [0, 0], "mult": 2**32}]}],
     ".x0[0].mult"),
    (["standard-form"], [{**DESCRIPTOR, "x0": TWO * 65}], ".x0"),
    # terms each below the bound whose sum reaches it
    (["standard-form"], [{**DESCRIPTOR, "x0": [{"elem": [0, 0], "mult": 2**32 - 63}]
                          + [{"elem": [0, 0], "mult": 1}] * 63}], ".x0"),
    (["standard-form"], [{**DESCRIPTOR, "prefix_labels": [TWO] * 65}], ".prefix_labels"),
    (["standard-form"], [{**DESCRIPTOR, "cycle_labels": [TWO] * 65}], ".cycle_labels"),
    (["standard-form"], [{"group": [1] * 65, "x0": [{"elem": [0] * 65, "mult": 1}],
                          "cycle_labels": [[{"elem": [0] * 65, "mult": 2}]]}], ".group"),
    (["brauer", "inv"], [{**DIVISION, "support_gens": [[1, 0]] * 65}], ".support_gens"),
]


@pytest.mark.parametrize("command, payloads, key", MALFORMED)
def test_malformed_input_is_an_error_naming_its_key(tmp_path, capsys, command, payloads, key):
    paths = [
        str(tmp_path / "missing.json") if p is MISSING else write(tmp_path, f"f{i}.json", p)
        for i, p in enumerate(payloads)
    ]
    assert main(command + paths) == 2
    err = capsys.readouterr().err
    assert f"{key}: " in err
    assert "Traceback" not in err


def test_labels_at_the_size_bounds_parse(tmp_path, capsys):
    one = [{"elem": [0, 0], "mult": 1}]
    edge = write(tmp_path, "edge.json", {
        "group": KLEIN, "x0": [{"elem": [0, 0], "mult": 2**32 - 64}] + one * 63,
        "prefix_labels": [one] * 64, "cycle_labels": [one] * 64,
    })
    d = cli.load_descriptor(edge)
    assert len(d.prefix) == len(d.cycle) == 64
    # the 64 terms at the identity add up to the largest coefficient allowed
    assert d.x0.num[0] == 2**32 - 1
    assert main(["standard-form", edge]) == 0
    assert f'"mult": {2**32 - 1}' in capsys.readouterr().out


@pytest.mark.parametrize("command", [["standard-form"], ["brauer", "inv"]])
def test_deeply_nested_json_is_an_error_naming_the_file(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)  # beyond what json.dumps can build
    assert main(command + [str(deep)]) == 2
    err = capsys.readouterr().err
    assert f"{deep}: JSON nested too deeply" in err
    assert "Traceback" not in err


# raw file contents that json.load rejects with a plain ValueError
UNREADABLE = {
    # more digits than Python converts to an int
    "long-int": (
        '{"group": [2, 2], "x0": [{"elem": [0, 0], "mult": ' + "9" * 5000 + "}], "
        '"cycle_labels": [[{"elem": [0, 0], "mult": 2}]]}'
    ).encode(),
    # UTF-16 with its byte-order mark, not UTF-8
    "utf-16": json.dumps({"group": KLEIN, **PAULI}).encode("utf-16"),
}


@pytest.mark.parametrize("where", ["standard-form", "absorbs", "absorbs --division"])
@pytest.mark.parametrize("content", sorted(UNREADABLE))
def test_unreadable_json_is_an_error_naming_the_file(files, tmp_path, capsys, where, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE[content])
    argv = {
        "standard-form": ["standard-form", str(bad)],
        "absorbs": ["absorbs", str(bad), "--division", files["pauli"]],
        "absorbs --division": ["absorbs", files["a"], "--division", str(bad)],
    }[where]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
FUZZ_GROUPS = [[1], [2], [4], [2, 2], [6], [4, 2], [3, 3], [2, 2, 2], [4, 4], [8, 2]]


def _key_paths(value, path=()):
    """The path of every value held under a key or list index."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


def _fuzz_division(factors):
    """A valid class over the group: Pauli type where the first two factors
    agree, trivial otherwise."""
    if len(factors) > 1 and factors[0] == factors[1]:
        gens = [[int(i == j) for j in range(len(factors))] for i in range(2)]
        return {"support_gens": gens, "beta": [[0, 1], [-1, 0]], "zeta_order": factors[0]}
    return {"support_gens": [], "beta": [], "zeta_order": 1}


@pytest.mark.parametrize("command", ["standard-form", "inv"])
@settings(max_examples=200, deadline=None)
@given(factors=st.sampled_from(FUZZ_GROUPS), data=st.data())
def test_parser_fuzz_never_raises(tmp_path_factory, command, factors, data):
    zero = [0] * len(factors)
    one = [1] + zero[1:]
    division = _fuzz_division(factors)
    if command == "inv":
        argv, payload = ["brauer", "inv"], {"group": factors, **division}
    else:
        label = [{"elem": zero, "mult": 1}, {"elem": one, "mult": 2}]
        argv, payload = ["standard-form"], {
            "group": factors, "x0": label, "prefix_labels": [label],
            "cycle_labels": [label], "division": division,
        }
    paths = list(_key_paths(payload))
    # a key first, then one of its places, so that rare keys are drawn as often
    keys = sorted({p[-1] for p in paths}, key=str)
    chosen = [
        data.draw(st.sampled_from([p for p in paths if p[-1] == key]))
        for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3))
    ]
    # deepest first, so every chosen path still exists when it is replaced
    for path in sorted(chosen, key=len, reverse=True):
        payload = _replaced(payload, path, data.draw(JSON_VALUES))
    path = write(tmp_path_factory.mktemp("fuzz"), "f.json", payload)
    assert main(argv + [path]) in (0, 2)
