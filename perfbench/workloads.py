"""The three workloads: corpus set-up, and how one query runs and is checked.

A query's latency covers the decision and its check: certificate replay for
the iso and absorption queries, the comparison with the predicted invariant
for the oracle.  Program functions are looked up on their modules at call
time, so the traced run sees the wrappers ``instrument.install`` puts there.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import corpus

_EXIT = {"yes": 0, "no": 1, "unknown": 3}
# The budgets of the reference iso corpora.  At the default budgets (32, 13)
# about one query in 600 is a Z3xZ3 unknown that runs 12 s, half a run on its
# own; at these it ends in about 1 s.
DECIDE_BUDGETS = ("--budget", "8", "--budget-primes", "7")


@dataclass
class Outcome:
    """What one query returned, and why it failed its check (None if it passed)."""

    verdict: str
    kind: str
    record: dict
    decided: bool
    failure: str | None = None


# ---------------------------------------------------------------------------
# iso-equivalent


def setup_iso_equivalent(rng, _workdir: Path):
    return corpus.iso_equivalent_rounds(rng)


def run_iso_equivalent(query) -> Outcome:
    from glim import limits

    res = limits.iso_elementary(query.left, query.right)
    failure = None
    if res.verdict == "no":
        failure = "no on an equivalent pair"
    elif res.is_certified and not limits.verify_iso_certificate(
        query.left, query.right, res.verdict, res.certificate
    ):
        failure = "certificate failed to replay"
    return Outcome(
        res.verdict,
        res.certificate.get("kind", ""),
        {"verdict": res.verdict, "certificate": res.certificate},
        res.is_certified,
        failure,
    )


# ---------------------------------------------------------------------------
# decide-mixed


@dataclass(frozen=True)
class CliCall:
    query: corpus.CliQuery
    argv: tuple

    def key(self):
        return self.query.key()


def setup_decide_mixed(rng, workdir: Path):
    """Write each round's input files; a query is then one argument list.

    A round's files replace the previous round's, which is finished by the
    time the next round is drawn.
    """
    for batch in corpus.decide_mixed_rounds(rng):
        calls = []
        count = 0
        for query in batch:
            paths = []
            for payload in query.payloads:
                path = workdir / f"q{count}.json"
                path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
                paths.append(str(path))
                count += 1
            if query.kind == "absorbs":
                argv = ("absorbs", paths[0], "--division", paths[1])
            else:
                argv = ("iso", paths[0], paths[1])
            calls.append(CliCall(query, argv + DECIDE_BUDGETS + ("--json", "--check-certificate")))
        yield calls


def run_decide_mixed(call: CliCall) -> Outcome:
    from glim import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(list(call.argv))
    try:
        payload = json.loads(stdout.getvalue())
    except json.JSONDecodeError:
        return Outcome("error", "", {"exit": code}, False, f"exit {code}: {stderr.getvalue().strip()}")
    verdict = payload.get("verdict", "")
    certified = verdict in ("yes", "no")
    failure = None
    if _EXIT.get(verdict) != code:
        failure = f"exit code {code} with verdict {verdict!r}"
    elif certified and payload.get("certificate_ok") is not True:
        failure = "certificate failed to replay"
    elif not certified and "certificate_ok" in payload:
        failure = "an unknown verdict was replayed"
    return Outcome(verdict, payload["certificate"].get("kind", ""), payload, certified, failure)


# ---------------------------------------------------------------------------
# oracle-crossval


def setup_oracle_crossval(rng, _workdir: Path):
    return corpus.oracle_crossval_rounds(rng)


def _invariant_payload(inv) -> dict:
    return {
        "support": [list(g.coords) for g in inv.support.sorted_elements()],
        "bichar": [list(row) for row in inv.bichar.matrix],
        "coset_multiset": [[list(c), m] for c, m in inv.coset_multiset],
        "quotient_factors": list(inv.quotient_factors),
    }


def run_oracle_crossval(query) -> Outcome:
    from glim import oracle

    want = oracle.expected_tensor_invariant(query.left, query.right)
    got = oracle.observed_tensor_invariant(query.left, query.right)
    agree = (
        want.support.elements == got.support.elements
        and want.bichar == got.bichar
        and want.coset_multiset == got.coset_multiset
    )
    verdict = "agree" if agree else "disagree"
    return Outcome(
        verdict,
        f"support-{got.support.order}",
        {"verdict": verdict, "observed": _invariant_payload(got)},
        True,
        None if agree else "decomposition disagrees with the Brauer prediction",
    )


SETUP = {
    "iso-equivalent": setup_iso_equivalent,
    "decide-mixed": setup_decide_mixed,
    "oracle-crossval": setup_oracle_crossval,
}
RUN = {
    "iso-equivalent": run_iso_equivalent,
    "decide-mixed": run_decide_mixed,
    "oracle-crossval": run_oracle_crossval,
}
