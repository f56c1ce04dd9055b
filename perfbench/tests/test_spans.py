"""Self-time arithmetic of the benchmark's tracer on nested spans."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        ("query", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),  # overlaps a: the union [1, 5] is counted once
        ("leaf", 2.5, 4.5, 2),  # grandchild: only b loses this time
        ("c", 8.0, 12.0, 0),  # clipped to the parent's end
    ]
    got = dict(self_times(spans))
    assert got["query"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got["a"] == pytest.approx(2.0)
    assert got["b"] == pytest.approx(3.0 - 2.0)
    assert got["leaf"] == pytest.approx(2.0)
    assert got["c"] == pytest.approx(4.0)


def test_tracer_records_nesting_and_sums_self_time_per_name():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner(x):
        return x + 1

    wrapped_inner = tracer.span("inner", inner, outcome=lambda r: r > 1)

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x + 1)

    wrapped_outer = tracer.span("outer", outer)
    tracer.query_id = 7
    # outer [0, 6] around inner [1, 2] and [4, 5]; then inner alone [7, 10]
    assert wrapped_outer(0) == 3
    assert wrapped_inner(5) == 6

    assert list(tracer.parent) == [-1, 0, 0, -1]
    assert list(tracer.query) == [7, 7, 7, 7]
    totals = tracer.self_seconds()
    assert totals["outer"] == pytest.approx(6.0 - 2.0)
    assert totals["inner"] == pytest.approx(1.0 + 1.0 + 3.0)
    assert tracer.counters["inner.calls"] == 3
    assert tracer.counters["inner.hits"] == 2
