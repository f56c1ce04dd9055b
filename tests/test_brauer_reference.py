"""The graded Brauer arithmetic against a brute-force reference.

The reference below evaluates everything on group elements: the pairing
element of a character is found by searching the support, the carrier of a
Brauer class is evaluated on every character of G, and the dimension
identity is checked as a product of group ring elements.  ``glim.divalg``
solves over the support basis instead; lifts, round trips and products must
agree exactly, and so must the ``brauer mul`` payload of the CLI.
"""

import itertools
import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from glim import abelian
from glim.abelian import (
    GroupElem,
    Subgroup,
    group_new,
    subgroup_basis,
    subgroup_from_members,
)
from glim.cli import _ORACLE_CATALOG, main, serialize_division
from glim.divalg import (
    Bicharacter,
    BrauerClass,
    DivisionClass,
    brauer_lift,
    brauer_mul,
    brauer_unlift,
    enumerate_division_classes,
)
from glim.groupring import GroupRingElem, subgroup_sum
from glim.limits import elem_payload


def _pairing_element(d: DivisionClass, psi: GroupElem) -> GroupElem:
    """The unique t in the support with beta(t, .) equal to psi restricted."""
    gens_b, _, _ = subgroup_basis(d.support)
    found = None
    for t in d.support.sorted_elements():
        if all(d.bichar.exponent_of(t, g) == psi.value_exponent(g) for g in gens_b):
            assert found is None, "pairing element not unique"
            found = t
    assert found is not None, "pairing element missing"
    return found


def reference_lift(d: DivisionClass) -> BrauerClass:
    G = d.group
    k = len(G.factors)
    units = [G.element([int(i == j) for j in range(k)]) for i in range(k)]
    pairing_elems = [_pairing_element(d, chi) for chi in units]
    return BrauerClass(
        G, tuple(tuple(chi.value_exponent(t) for t in pairing_elems) for chi in units)
    )


def reference_unlift(b: BrauerClass) -> tuple[Subgroup, Bicharacter]:
    G = b.group
    n = G.exponent
    k = len(G.factors)
    carrier = {}
    for psi in G.elements():
        coords = []
        for i in range(k):
            val = sum(m * c for m, c in zip(b.matrix[i], psi.coords)) % n
            step = n // G.factors[i]
            assert val % step == 0, "dual bicharacter value out of image"
            coords.append((val // step) % G.factors[i])
        carrier[psi] = G.element(tuple(coords))
    support = subgroup_from_members(G, carrier.values())
    gens_b, _, _ = subgroup_basis(support)
    reps = {}
    for psi, g in carrier.items():
        reps.setdefault(g, psi)
    rows = tuple(
        tuple(reps[gi].value_exponent(gj) for gj in gens_b)
        for gi in gens_b
    )
    return support, Bicharacter(support, rows)


def reference_mul(d: DivisionClass, dprime: DivisionClass):
    B = reference_lift(d) * reference_lift(dprime).inverse()
    t_e, beta_e = reference_unlift(B)
    e_class = DivisionClass(beta_e)
    H = Subgroup(d.group, d.support.generators + dprime.support.generators)
    assert t_e <= H
    inter = subgroup_from_members(d.group, d.support.elements & dprime.support.elements)
    m_sq = Fraction(inter.order * t_e.order, H.order)
    assert m_sq.denominator == 1 and isqrt(int(m_sq)) ** 2 == int(m_sq)
    mult = isqrt(int(m_sq))
    reps = []
    covered = set()
    for h in H.sorted_elements():
        if h in covered:
            continue
        reps.append(h)
        covered.update(h * t for t in t_e.elements)
    y = GroupRingElem.from_dict(d.group, {r: Fraction(mult) for r in reps})
    lhs = y * y.bar() * subgroup_sum(t_e)
    assert lhs == subgroup_sum(d.support) * subgroup_sum(dprime.support)
    return e_class, y, H


def _assert_same_product(d1, d2):
    want_e, want_y, want_h = reference_mul(d1, d2)
    e_class, y, h = brauer_mul(d1, d2)
    assert e_class == want_e
    assert e_class.support.elements == want_e.support.elements
    assert y == want_y
    assert h.elements == want_h.elements


def _assert_same_lift(cls):
    lift = brauer_lift(cls)
    assert lift == reference_lift(cls)
    sub, bichar = brauer_unlift(lift)
    want_sub, want_bichar = reference_unlift(lift)
    assert sub.elements == want_sub.elements == cls.support.elements
    assert bichar == want_bichar == cls.bichar


@pytest.mark.parametrize("factors", _ORACLE_CATALOG)
def test_brauer_arithmetic_matches_the_reference_on_the_oracle_catalog(factors):
    classes = enumerate_division_classes(group_new(factors))
    for cls in classes:
        _assert_same_lift(cls)
    for d1, d2 in itertools.product(classes, repeat=2):
        _assert_same_product(d1, d2)


def test_brauer_arithmetic_matches_the_reference_on_sampled_z2_4_pairs():
    classes = enumerate_division_classes(group_new([2, 2, 2, 2]))
    rng = random.Random(14)
    for cls in classes:
        _assert_same_lift(cls)
    for _ in range(200):
        _assert_same_product(rng.choice(classes), rng.choice(classes))


@pytest.mark.parametrize("factors", [(4, 4), (2, 2, 2)])
def test_cli_brauer_mul_prints_the_reference_payload(factors, tmp_path, capsys):
    group = group_new(factors)
    classes = enumerate_division_classes(group)
    paths = []
    for i, cls in enumerate(classes):
        path = tmp_path / f"d{i}.json"
        path.write_text(json.dumps({"group": list(factors), **serialize_division(cls)}))
        paths.append(str(path))
    for (i, d1), (j, d2) in itertools.product(enumerate(classes), repeat=2):
        assert main(["brauer", "mul", paths[i], paths[j], "--json"]) == 0
        e_class, y, h = reference_mul(d1, d2)
        want = {
            "E": serialize_division(e_class),
            "y": elem_payload(y),
            "H": [list(g.coords) for g in h.sorted_elements()],
        }
        assert json.loads(capsys.readouterr().out) == want


def test_subgroup_check_is_one_index_span_search(count_calls):
    """The member check is one span search over the Hermite generators, on
    element indices through the addition table, and no closure re-check."""
    group = group_new([8, 8])
    members = frozenset(group.elements())
    searches = count_calls(abelian, "generator_words")
    products = count_calls(GroupElem, "__mul__")
    subgroup_from_members(group, members)
    assert searches == [1] and products == [0]


def test_brauer_mul_builds_the_pairing_rows_of_the_product_class_only(count_calls):
    # the rows of a built class were computed once, by its nondegeneracy
    # check, and both lifts read them again
    classes = enumerate_division_classes(group_new([4, 4]))
    d1, d2 = [c for c in classes if c.support.order == 16][:2]
    rows = count_calls(vars(Bicharacter)["_rows"], "func")
    brauer_mul(d1, d2)
    assert rows == [1]


def test_brauer_mul_pairs_no_elements_and_makes_three_group_ring_products(count_calls):
    """x_T*x_T' and the dimension identity y*ybar*x_{T_E} are the only
    convolutions: the group ring's, three per call."""
    pairs = []
    for factors in [(2, 2, 2, 2), (4, 4)]:
        full = [c for c in enumerate_division_classes(group_new(factors)) if c.support.order == 16]
        pairs.append((full[0], full[-1]))
    pairings = count_calls(Bicharacter, "exponent_of")
    products = count_calls(GroupRingElem, "__mul__")
    for d1, d2 in pairs:
        brauer_mul(d1, d2)
    assert pairings == [0] and products == [3 * len(pairs)]
