"""Byte-level regression guard: a fixed corpus of decisions and oracle
decompositions must reproduce the committed ``golden.json`` exactly.

Each entry is the canonical JSON (``sort_keys``) of one verdict with its
certificate, or of one explicit tensor decomposition.  A refactor that
changes any verdict or any certificate byte fails here.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from glim.abelian import group_new
from glim.cyclotomic import get_field
from glim.divalg import enumerate_division_classes
from glim.groupring import ProjCoords
from glim.limits import (
    LimitDescriptor,
    TriBool,
    absorbs,
    in_k_group,
    iso_elementary,
    iso_general,
    k0_realization,
)
from glim.oracle import observed_tensor_invariant

from conftest import random_descriptor, uhf

GOLDEN = Path(__file__).with_name("golden.json")
GROUPS = ([2, 2], [4], [4, 2], [3, 3])
PAIRS_PER_GROUP = 12
BUDGET = 8
ORACLE_GROUPS = ([2, 2], [4, 2])
ORACLE_MAX_DIM = 64


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _verdict(r) -> str:
    return _canonical({"verdict": r.verdict, "certificate": r.certificate})


def _invariant(inv) -> str:
    return _canonical(
        {
            "support": sorted(g.coords for g in inv.support.elements),
            "bichar": inv.bichar.matrix,
            "coset_multiset": inv.coset_multiset,
            "quotient_factors": inv.quotient_factors,
        }
    )


def golden_queries() -> dict[str, tuple]:
    """The corpus: query name -> (procedure, its arguments)."""
    out: dict[str, tuple] = {}
    for seed, factors in enumerate(GROUPS):
        g = group_new(factors)
        tag = "x".join(map(str, factors))
        rng = random.Random(2000 + seed)
        classes = enumerate_division_classes(g)
        for i in range(PAIRS_PER_GROUP):
            d1, d2 = random_descriptor(rng, g), random_descriptor(rng, g)
            c1, c2 = rng.choice(classes), rng.choice(classes)
            shift = rng.choice(g.elements())
            shifted = LimitDescriptor(g, d1.x0.translate(shift), d1.prefix, d1.cycle)
            out[f"iso_elementary/{tag}/{i}"] = (iso_elementary, (d1, d2, BUDGET))
            out[f"iso_elementary/{tag}/{i}-shifted"] = (iso_elementary, (d1, shifted, BUDGET))
            out[f"absorbs/{tag}/{i}"] = (absorbs, (d1, c1, BUDGET))
            out[f"iso_general/{tag}/{i}"] = (
                iso_general,
                (
                    LimitDescriptor(g, d1.x0, d1.prefix, d1.cycle, c1),
                    LimitDescriptor(g, d2.x0, d2.prefix, d2.cycle, c2),
                    BUDGET,
                ),
            )
    trivial = group_new([1])
    k = k0_realization(uhf(trivial, 2))
    third = ProjCoords(trivial, k.orbits, (get_field(1).scalar(Fraction(1, 3)),))
    out["in_k_group/z1/one-third"] = (in_k_group, (k, third, BUDGET))
    for factors in ORACLE_GROUPS:
        g = group_new(factors)
        tag = "x".join(map(str, factors))
        classes = enumerate_division_classes(g)
        for i, d1 in enumerate(classes):
            for j, d2 in enumerate(classes):
                if d1.support.order * d2.support.order > ORACLE_MAX_DIM:
                    continue
                out[f"observed_tensor_invariant/{tag}/{i}-{j}"] = (
                    observed_tensor_invariant,
                    (d1, d2),
                )
    return out


def golden_records(queries: dict[str, tuple]) -> dict[str, str]:
    """The corpus, evaluated: query name -> canonical JSON of the answer."""
    out = {}
    for name, (procedure, args) in queries.items():
        answer = procedure(*args)
        out[name] = _verdict(answer) if isinstance(answer, TriBool) else _invariant(answer)
    return out


def test_corpus_matches_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = golden_records(golden_queries())
    assert sorted(got) == sorted(want)
    for key in sorted(want):
        assert got[key] == want[key], key
