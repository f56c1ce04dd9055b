"""Seeded input generators for the three benchmark workloads.

Every generator takes a ``random.Random`` and builds its inputs from it alone,
so one seed always gives the same corpus.  The descriptor distribution copies
``random_descriptor`` of the test suite (labels of one or two terms with
multiplicities 1 to 3, a cycle of one or two labels, a prefix of at most one),
kept here so that an edit to the tests cannot move the benchmark's baseline.

Inputs are produced in rounds, lazily and without end: a run draws the next
round only when it needs it, so set-up does not depend on the run's length
and no round is ever replayed.  A round holds the same number of queries of
each stratum (group, and transform or query kind) in a shuffled order, so the
mix a run measures does not depend on how many rounds it completes.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

ISO_EQUIVALENT_GROUPS = [(2, 2), (4,), (4, 2), (2, 2, 2), (3, 3), (6,), (8,)]
ISO_TRANSFORMS = ["unroll-twice", "period-to-prefix", "shift-x0", "rotate-cycle"]

DECIDE_MIXED_GROUPS = [(2, 2), (4, 2), (2, 2, 2), (3, 3), (6, 2), (4, 4)]
DECIDE_KINDS = ["iso", "absorbs", "iso-division"]

# (group, tensor dimension |T1|*|T2|, pairs per round).  Measured costs on
# a 2-CPU VM: dimension 4 about 10 ms, 9 about 60 ms, 16 from 60 ms to 350 ms,
# 64 from 3 to 6 s, 81 about 1 s, 256 about 12 s.  Fourteen (Z2)^4
# dimension-16 pairs (about 100 ms each) sit between eight cheaper and seven
# dearer pairs, so the median falls inside one tight cluster.  One
# dimension-64 pair brings in the largest algebras whose associativity is
# checked; 81 and 256 are left out, since one such pair would take a large
# share of a run.
ORACLE_STRATA = [
    ((2, 2, 2), 4, 1),
    ((4, 2, 2), 4, 1),
    ((6, 2), 4, 1),
    ((8, 2), 4, 1),
    ((4, 4), 4, 1),
    ((2, 2, 2, 2), 4, 1),
    ((3, 3), 9, 2),
    ((2, 2, 2, 2), 16, 14),
    ((2, 2, 2), 16, 1),
    ((4, 2, 2), 16, 1),
    ((8, 2), 16, 1),
    ((4, 4), 16, 3),
    ((2, 2, 2, 2), 64, 1),
]


def random_label(rng: random.Random, group, max_terms=2, max_mult=3):
    from glim.groupring import GroupRingElem

    elems = group.elements()
    data = {}
    for _ in range(rng.randint(1, max_terms)):
        g = rng.choice(elems)
        data[g] = data.get(g, 0) + rng.randint(1, max_mult)
    return GroupRingElem.from_dict(group, {g: Fraction(m) for g, m in data.items()})


def random_descriptor(rng: random.Random, group, division=None, cycle_len=None):
    """A descriptor as the tests draw it; ``cycle_len`` fixes the cycle length
    (1 or 2) for a stratified draw instead of drawing it."""
    from glim.limits import LimitDescriptor

    x0 = random_label(rng, group)
    if cycle_len is None:
        cycle_len = rng.randint(1, 2)
    cycle = tuple(random_label(rng, group) for _ in range(cycle_len))
    prefix = tuple(random_label(rng, group) for _ in range(rng.randint(0, 1)))
    return LimitDescriptor(group, x0, prefix, cycle, division)


def equivalent_presentation(rng: random.Random, d, transform: str):
    """Another presentation of the same limit as ``d``."""
    from dataclasses import replace

    if transform == "unroll-twice":
        return replace(d, cycle=d.cycle + d.cycle)
    if transform == "period-to-prefix":
        return replace(d, prefix=d.prefix + d.cycle)
    if transform == "shift-x0":
        return replace(d, x0=d.x0.translate(rng.choice(d.group.elements())))
    if transform == "rotate-cycle":
        return replace(d, prefix=d.prefix + d.cycle[:1], cycle=d.cycle[1:] + d.cycle[:1])
    raise ValueError(f"unknown transform {transform}")


@dataclass(frozen=True)
class IsoQuery:
    """An elementary isomorphism query whose known answer is yes."""

    transform: str
    left: object
    right: object

    def key(self):
        from glim.cli import serialize_descriptor

        return {
            "transform": self.transform,
            "left": serialize_descriptor(self.left),
            "right": serialize_descriptor(self.right),
        }


@dataclass(frozen=True)
class CliQuery:
    """One command line of the mixed stream; files are written at set-up."""

    kind: str
    payloads: tuple  # descriptor / division JSON objects, in argument order

    def key(self):
        return {"kind": self.kind, "inputs": list(self.payloads)}


@dataclass(frozen=True)
class OracleQuery:
    """A division-class pair whose tensor D1 (x) D2^op is decomposed."""

    group: tuple
    left: object
    right: object

    def key(self):
        from glim.cli import serialize_division

        return {
            "group": list(self.group),
            "left": serialize_division(self.left),
            "right": serialize_division(self.right),
        }


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


def iso_equivalent_rounds(rng: random.Random) -> Iterator[list[IsoQuery]]:
    """Per group and round, one query per transform; half of them have a
    one-label cycle and half a two-label cycle, the tests' even split, since
    two-label cycles cost more and a run should not draw more of them by
    chance."""
    from glim.abelian import FinAbGroup

    groups = [FinAbGroup(f) for f in ISO_EQUIVALENT_GROUPS]
    while True:
        batch = []
        for g in groups:
            cycle_lens = _shuffled(rng, [1, 2] * (len(ISO_TRANSFORMS) // 2))
            for transform, cycle_len in zip(ISO_TRANSFORMS, cycle_lens):
                d = random_descriptor(rng, g, cycle_len=cycle_len)
                batch.append(
                    IsoQuery(transform, d, equivalent_presentation(rng, d, transform))
                )
        yield _shuffled(rng, batch)


def decide_mixed_rounds(rng: random.Random) -> Iterator[list[CliQuery]]:
    from glim.abelian import FinAbGroup
    from glim.cli import serialize_descriptor, serialize_division
    from glim.divalg import enumerate_division_classes

    groups = [FinAbGroup(f) for f in DECIDE_MIXED_GROUPS]
    classes = {g: enumerate_division_classes(g) for g in groups}
    while True:
        batch = []
        for g in groups:
            nontrivial = [c for c in classes[g] if not c.is_trivial]
            for kind in DECIDE_KINDS:
                if kind == "iso":
                    payloads = (
                        serialize_descriptor(random_descriptor(rng, g)),
                        serialize_descriptor(random_descriptor(rng, g)),
                    )
                elif kind == "absorbs":
                    d = random_descriptor(rng, g)
                    cls = rng.choice(classes[g])
                    payloads = (
                        serialize_descriptor(d),
                        {"group": list(g.factors), **serialize_division(cls)},
                    )
                else:
                    left = random_descriptor(rng, g, rng.choice(nontrivial))
                    right = random_descriptor(rng, g, rng.choice(classes[g]))
                    payloads = (serialize_descriptor(left), serialize_descriptor(right))
                batch.append(CliQuery(kind, payloads))
        yield _shuffled(rng, batch)


def oracle_crossval_rounds(rng: random.Random) -> Iterator[list[OracleQuery]]:
    """Class pairs drawn without replacement within each stratum, reshuffled
    only when a stratum's pool runs out."""
    from glim.abelian import FinAbGroup
    from glim.divalg import enumerate_division_classes

    decks: dict[tuple, list] = {}
    pools: dict[tuple, list] = {}
    classes_of: dict[tuple, list] = {}
    for factors, dim, _count in ORACLE_STRATA:
        if factors not in classes_of:
            classes_of[factors] = enumerate_division_classes(FinAbGroup(factors))
        classes = classes_of[factors]
        pools[(factors, dim)] = [
            (a, b)
            for a in classes
            for b in classes
            if a.support.order * b.support.order == dim
        ]
    while True:
        batch = []
        for factors, dim, count in ORACLE_STRATA:
            deck = decks.setdefault((factors, dim), [])
            for _ in range(count):
                if not deck:
                    deck.extend(_shuffled(rng, list(pools[(factors, dim)])))
                left, right = deck.pop()
                batch.append(OracleQuery(factors, left, right))
        yield _shuffled(rng, batch)


def digest(obj) -> str:
    """sha256 of the canonical JSON (sorted keys, no spaces) of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
