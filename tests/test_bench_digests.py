"""The benchmark's first-100 digests on seed 1 are pinned: a change that
keeps every query and every verdict and certificate byte-identical keeps
both.  Each case runs ``perfbench/run.py`` in a subprocess with
``--seconds 0``, which stops after the fewest whole rounds that hold 100
queries."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "decide-mixed": (
        "1c95c25f1410a5fcf7a5ddd8c9153a249be072fcf36cd69ab23d6028abb2fab3",
        "90cbd98da83a031979f6b1e84958384fb4f6c397b3f727696f185ebc077d4a82",
    ),
    "iso-equivalent": (
        "863327b2529bc48de0c36bba7ea8ef55dfc73bd32c2e481aa2d4df4a71e42ff8",
        "af194cc4d2d63332d014a7fa9e57c4fb55d605a0913d1a43589569858656a627",
    ),
    "oracle-crossval": (
        "09d25a36dbd123a7631ac102fd0f9d30376e6c3e96b60f55849921050f8fac30",
        "9a75060440d0abf1213386548e4f1417d33f171f02fd41e361c05aafad136430",
    ),
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_first_100_digests_match_the_pinned_values(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    printed = {
        name: digest
        for name, digest in re.findall(r"(\w+_sha256)\[first 100\] ([0-9a-f]{64})", run.stdout)
    }
    assert (printed["corpus_sha256"], printed["verdicts_sha256"]) == DIGESTS[workload]
