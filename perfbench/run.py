"""Benchmark of glim: one workload, one process, a closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload iso-equivalent --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's ``src`` directory.  Set-up
(importing ``glim`` afresh and drawing the seeded corpus's first round) is
repeated ``SETUP_REPEATS`` times and its median reported as ``setup_s``.  The
loop then runs whole rounds of the corpus, drawn as it goes, until
``--seconds`` have been spent in queries and at least ``MIN_QUERIES`` are
done, checking every answer.

With ``--trace 1`` a further set-up runs with spans and counters installed
around the program's public functions, followed by the fewest whole rounds
that hold ``MIN_QUERIES`` queries: a fixed amount of work for a seed, so the
counts repeat on any machine.  The per-layer metrics come from that pass and
the spans are written to ``perfbench/traces/``.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import corpus
import instrument
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# p90 needs at least ten samples beyond it
MIN_QUERIES = 100
# set-up is short, so its median is taken over several repeats
SETUP_REPEATS = 7
# As the engine stands, a rare query spends minutes in the trial division of
# limits._norm_obstruction.  A query still running after this many seconds is
# stopped and counted as undecided, so the run ends and the slow query shows
# in decided_ratio and throughput instead of hanging the benchmark.
QUERY_DEADLINE_S = 20.0
# digests of the queries and of the verdicts and certificates also cover this
# many first queries, which every run completes, so runs of one seed print
# the same first digests
DIGEST_QUERIES = MIN_QUERIES


class DeadlineExceeded(BaseException):
    """Raised in a query that outlived QUERY_DEADLINE_S.

    A BaseException, so that no ``except Exception`` in the program takes it.
    """


def _on_deadline(_signum, _frame):
    raise DeadlineExceeded


def import_program():
    """Import ``glim`` afresh from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "glim" or n.startswith("glim.")]:
        del sys.modules[name]
    glim = importlib.import_module("glim")
    if Path(glim.__file__).resolve().parent != SRC / "glim":
        raise ImportError(f"glim was imported from {glim.__file__}, not from {SRC}")
    importlib.import_module("glim.cli")  # the package does not import it


def set_up(workload: str, seed: int, workdir: Path, tracer=None):
    """One set-up: import the program afresh, then draw the corpus's first round.

    With a tracer its wrappers go in right after the import, so the set-up
    (class enumeration and the caches it fills) is traced too.  Returns the
    endless iterator of rounds.
    """
    import_program()
    if tracer is not None:
        instrument.install(tracer)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir()
    rounds = workloads.SETUP[workload](random.Random(seed), workdir)
    return itertools.chain([next(rounds)], rounds)


def run_queries(run_one, rounds, seconds: float, tracer=None):
    """Closed loop over whole rounds; returns the queries, latencies and outcomes.

    The loop stops after the first round that ends with at least ``seconds``
    spent in queries and ``MIN_QUERIES`` done; with ``seconds=0``, after the
    fewest whole rounds that hold ``MIN_QUERIES``.  Drawing a round is not
    query time.
    """
    queries, latencies, outcomes = [], [], []
    busy = 0.0
    for batch in rounds:
        for query in batch:
            if tracer is not None:
                tracer.query_id = len(outcomes)
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, QUERY_DEADLINE_S)
            try:
                outcome = run_one(query)
            except DeadlineExceeded:
                outcome = workloads.Outcome("deadline", "", {"verdict": "deadline"}, False)
            except Exception as exc:  # a crash is a failed query, not a failed run
                outcome = workloads.Outcome("error", "", {"error": repr(exc)}, False, repr(exc))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.query_id = -1
            busy += latency
            queries.append(query)
            latencies.append(latency)
            outcomes.append(outcome)
        if busy >= seconds and len(outcomes) >= MIN_QUERIES:
            return queries, latencies, outcomes


def report_outcomes(label: str, queries, outcomes) -> int:
    """Print digests, verdict and certificate-kind counts; return failures."""
    failures = [o for o in outcomes if o.failure is not None]
    keys = [q.key() for q in queries]
    records = [o.record for o in outcomes]
    for what, items in (("corpus", keys), ("verdicts", records)):
        print(f"{label}: {what}_sha256[first {DIGEST_QUERIES}] "
              f"{corpus.digest(items[:DIGEST_QUERIES])}")
        print(f"{label}: {what}_sha256[all {len(items)}] {corpus.digest(items)}")
    print(f"{label}: by verdict {dict(sorted(Counter(o.verdict for o in outcomes).items()))}")
    print(f"{label}: by certificate kind {dict(sorted(Counter(o.kind for o in outcomes).items()))}")
    for o in failures[:5]:
        print(f"{label}: FAILED {o.failure}")
    return len(failures)


def end_to_end(latencies, outcomes, setup_s: float) -> dict:
    n = len(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_qps": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000 * statistics.quantiles(latencies, n=10)[-1], "ms"),
        "decided_ratio": (sum(o.decided for o in outcomes) / n, "ratio"),
        "correct_ratio": (sum(o.failure is None for o in outcomes) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.RUN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_deadline)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            rounds = set_up(args.workload, args.seed, workdir / "inputs")
            setup_times.append(time.perf_counter() - t0)
        run_one = workloads.RUN[args.workload]
        print(f"workload {args.workload} seed {args.seed}")
        print("setup_s each: " + " ".join(f"{t:.4f}" for t in setup_times))

        queries, latencies, outcomes = run_queries(run_one, rounds, args.seconds)
        failed = report_outcomes("untraced", queries, outcomes)
        metrics = end_to_end(latencies, outcomes, statistics.median(setup_times))
        deadline = sum(o.verdict == "deadline" for o in outcomes)
        print(f"untraced: {len(outcomes)} queries in {sum(latencies):.2f} s, "
              f"{deadline} stopped at the {QUERY_DEADLINE_S:g} s deadline, "
              f"failed_ratio {failed / len(outcomes):.4f}")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        attempted = len(outcomes)

        if args.trace:
            tracer = spans.Tracer()
            t0 = time.perf_counter()
            rounds = set_up(args.workload, args.seed, workdir / "inputs", tracer)
            traced_setup_s = time.perf_counter() - t0
            t_queries, t_latencies, t_out = run_queries(run_one, rounds, 0, tracer)
            failed += report_outcomes("traced", t_queries, t_out)
            attempted += len(t_out)
            # the traced queries are the untraced loop's first ones, both
            # run right after a fresh set-up
            n = len(t_out)
            untraced_qps = n / sum(latencies[:n])
            traced_qps = n / sum(t_latencies)
            overhead = untraced_qps - traced_qps
            print(f"traced: set-up {traced_setup_s:.4f} s, {n} queries in {sum(t_latencies):.2f} s, "
                  f"throughput_qps {traced_qps:.6g} against {untraced_qps:.6g} untraced, "
                  f"{len(tracer.start)} spans")
            trace_dir = BENCH_DIR / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json.gz"
            tracer.write(trace_path)
            print(f"spans written to {trace_path.relative_to(BENCH_DIR.parent)}")
            wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            metrics = instrument.per_layer_metrics(tracer, overhead, wanted)
            for name, (value, unit) in metrics.items():
                print(f"  {name} = {value:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
