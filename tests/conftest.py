import random
from dataclasses import replace
from fractions import Fraction

import pytest

from glim.abelian import FinAbGroup, Subgroup, group_new
from glim.divalg import Bicharacter, DivisionClass
from glim.groupring import GroupRingElem, subgroup_sum
from glim.limits import LimitDescriptor


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` counts the calls of ``owner.name`` from
    then on, in the one-item list it returns."""

    def count(owner, name):
        calls = [0]
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return count


@pytest.fixture
def klein():
    return group_new([2, 2])


@pytest.fixture
def z4():
    return group_new([4])


@pytest.fixture
def trivial_group():
    return group_new([1])


@pytest.fixture
def klein_full(klein):
    return Subgroup(klein, (klein.element((1, 0)), klein.element((0, 1))))


@pytest.fixture
def pauli(klein_full):
    return DivisionClass(Bicharacter.from_exponents(klein_full, [[0, 1], [1, 0]]))


@pytest.fixture
def x_t(klein_full):
    return subgroup_sum(klein_full)


def const(group: FinAbGroup, n: int) -> GroupRingElem:
    return GroupRingElem.constant(group, n)


def uhf(group: FinAbGroup, n: int, x0: int = 1) -> LimitDescriptor:
    """Constant-label descriptor over a (usually trivial) group."""
    return LimitDescriptor(group, const(group, x0), (), (const(group, n),))


def random_label(rng: random.Random, group: FinAbGroup, max_terms=2, max_mult=3):
    elems = group.elements()
    data = {}
    for _ in range(rng.randint(1, max_terms)):
        g = rng.choice(elems)
        data[g] = data.get(g, 0) + rng.randint(1, max_mult)
    return GroupRingElem.from_dict(group, {g: Fraction(m) for g, m in data.items()})


def random_descriptor(rng: random.Random, group: FinAbGroup) -> LimitDescriptor:
    x0 = random_label(rng, group)
    cycle = tuple(random_label(rng, group) for _ in range(rng.randint(1, 2)))
    prefix = tuple(random_label(rng, group) for _ in range(rng.randint(0, 1)))
    return LimitDescriptor(group, x0, prefix, cycle)


PRESENTATION_TRANSFORMS = ["unroll-twice", "period-to-prefix", "shift-x0", "rotate-cycle"]


def equivalent_presentation(rng: random.Random, d: LimitDescriptor, transform: str):
    """Another presentation of the same limit as ``d``: the cycle unrolled
    twice, one period moved into the prefix, x0 translated, or the cycle
    rotated by one label into the prefix."""
    if transform == "unroll-twice":
        return replace(d, cycle=d.cycle + d.cycle)
    if transform == "period-to-prefix":
        return replace(d, prefix=d.prefix + d.cycle)
    if transform == "shift-x0":
        return replace(d, x0=d.x0.translate(rng.choice(d.group.elements())))
    if transform == "rotate-cycle":
        return replace(d, prefix=d.prefix + d.cycle[:1], cycle=d.cycle[1:] + d.cycle[:1])
    raise ValueError(f"unknown transform {transform}")
