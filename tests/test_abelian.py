import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glim.abelian import (
    Character,
    Subgroup,
    _addition_table,
    _unimodular_inverse,
    dual_and_orbits,
    group_new,
    perp,
    perp_of_orbits,
    perp_of_subgroup,
    quotient,
    subgroup_basis,
    subgroup_from_generators,
    all_subgroups,
    trivial_subgroup,
)

SMALL_GROUPS = [[1], [2], [3], [4], [2, 2], [5], [6], [4, 2], [2, 2, 2], [8], [3, 3], [9], [4, 4]]


def test_group_new_examples():
    klein = group_new([2, 2])
    assert klein.order == 4 and klein.exponent == 2
    triv = group_new([1])
    assert triv.order == 1
    g = group_new([4, 2])
    assert g.order == 8 and g.exponent == 4


def test_group_new_errors():
    with pytest.raises(ValueError):
        group_new([])
    with pytest.raises(ValueError):
        group_new([2, 0])


def test_element_enumeration_is_total_and_unique():
    for factors in SMALL_GROUPS:
        g = group_new(factors)
        elems = g.elements()
        assert len(elems) == g.order
        assert len(set(elems)) == g.order


def test_elem_arithmetic():
    klein = group_new([2, 2])
    assert (klein.element((1, 0)) * klein.element((0, 1))).coords == (1, 1)
    z4 = group_new([4])
    assert z4.element((1,)).order == 4
    assert z4.element((3,)).inverse().coords == (1,)
    with pytest.raises(ValueError):
        klein.element((1, 0)) * z4.element((1,))


def test_subgroup_from_generators_examples():
    klein = group_new([2, 2])
    whole = subgroup_from_generators(klein, [klein.element((1, 0)), klein.element((0, 1))])
    assert whole.order == 4
    assert trivial_subgroup(klein).order == 1
    g = group_new([4, 2])
    sub = subgroup_from_generators(g, [g.element((2, 0))])
    assert sorted(e.coords for e in sub.elements) == [(0, 0), (2, 0)]


def _closure_saturation_subgroups(group):
    """Reference enumeration: from each subgroup found, close its generators
    together with every element it lacks, breadth first."""
    found = {}
    triv = trivial_subgroup(group)
    found[triv.elements] = triv
    frontier = [triv]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in group.elements():
                if g in sub.elements:
                    continue
                bigger = subgroup_from_generators(group, sub.generators + (g,))
                if bigger.elements not in found:
                    found[bigger.elements] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return tuple(
        sorted(
            found.values(),
            key=lambda s: (s.order, sorted(g.coords for g in s.elements)),
        )
    )


ENUMERATED_GROUPS = [
    (1,), (9,), (2, 2), (4, 2), (2, 2, 2), (3, 3), (6, 2), (8, 2), (4, 4),
    (4, 2, 2), (2, 2, 2, 2),
]


@pytest.mark.parametrize("factors", ENUMERATED_GROUPS)
def test_all_subgroups_matches_closure_saturation(factors):
    g = group_new(factors)
    got = all_subgroups(g)
    want = _closure_saturation_subgroups(g)
    assert [s.elements for s in got] == [s.elements for s in want]
    assert [s.generators for s in got] == [s.generators for s in want]


def test_all_subgroups_counts_of_the_oracle_groups():
    counts = {
        (2, 2, 2): 16, (4, 2, 2): 27, (6, 2): 10, (8, 2): 11, (4, 4): 15,
        (2, 2, 2, 2): 67, (3, 3): 6,
    }
    for factors, n in counts.items():
        assert len(all_subgroups(group_new(factors))) == n


def test_addition_table_indexes_elements_in_coordinate_order():
    for factors in [[1], [6], [4, 2], [2, 3, 2]]:
        g = group_new(factors)
        elems = g.elements()
        add = _addition_table(g)
        for a, x in enumerate(elems):
            assert [elems[c] for c in add[a]] == [x * y for y in elems]


def test_subgroup_rejects_sets_that_are_not_subgroups():
    z4 = group_new([4])
    with pytest.raises(ValueError, match="identity"):
        Subgroup(z4, frozenset({z4.element((2,))}))
    with pytest.raises(ValueError, match="inverses"):
        Subgroup(z4, frozenset({z4.element((0,)), z4.element((1,))}))
    klein = group_new([2, 2])
    with pytest.raises(ValueError, match="products"):
        Subgroup(klein, frozenset(klein.element(c) for c in [(0, 0), (1, 0), (0, 1)]))


def test_quotient_examples():
    klein = group_new([2, 2])
    whole = subgroup_from_generators(klein, [klein.element((1, 0)), klein.element((0, 1))])
    q, _ = quotient(klein, whole)
    assert q.order == 1

    half = subgroup_from_generators(klein, [klein.element((1, 0))])
    q2, alpha2 = quotient(klein, half)
    assert q2.factors == (2,)
    assert not alpha2(klein.element((0, 1))).is_identity

    z4 = group_new([4])
    sub = subgroup_from_generators(z4, [z4.element((2,))])
    q3, alpha3 = quotient(z4, sub)
    assert q3.factors == (2,)  # Smith form of the relation lattice by hand
    assert not alpha3(z4.element((1,))).is_identity


def test_quotient_kernel_is_exactly_the_subgroup():
    for factors in [[2, 2], [4], [4, 2], [2, 2, 2], [8]]:
        g = group_new(factors)
        for sub in all_subgroups(g):
            _, alpha = quotient(g, sub)
            for x in g.elements():
                assert alpha(x).is_identity == (x in sub)


def test_dual_and_orbits_examples():
    klein = group_new([2, 2])
    orbs = dual_and_orbits(klein)
    assert len(orbs) == 4
    assert all(o.field_degree == 1 for o in orbs)

    z4 = group_new([4])
    orbs4 = dual_and_orbits(z4)
    assert [o.field_degree for o in orbs4] == [1, 2, 1]
    assert orbs4[0].is_trivial

    assert len(dual_and_orbits(group_new([1]))) == 1


def test_orbits_partition_dual():
    for factors in SMALL_GROUPS:
        g = group_new(factors)
        orbs = dual_and_orbits(g)
        assert sum(o.field_degree for o in orbs) == g.order


def test_perp_examples():
    klein = group_new([2, 2])
    whole = subgroup_from_generators(klein, [klein.element((1, 0)), klein.element((0, 1))])
    tp = perp(klein, whole)
    assert sorted(x.coords for x in tp.elements) == [(0, 0)]

    triv_orbit = dual_and_orbits(klein)[0]
    sp = perp(klein, [triv_orbit])
    assert sp.order == 4

    z4 = group_new([4])
    sub = subgroup_from_generators(z4, [z4.element((2,))])
    tp4 = perp(z4, sub)
    assert sorted(x.coords for x in tp4.elements) == [(0,), (2,)]


def test_perp_biduality():
    for factors in [[2], [4], [2, 2], [4, 2], [2, 2, 2], [8], [3, 3], [9], [4, 4]]:
        g = group_new(factors)
        for sub in all_subgroups(g):
            dd = perp_of_subgroup(perp_of_subgroup(sub))
            # double perp of T in the double dual, identified with G
            assert {x.coords for x in dd.elements} == {x.coords for x in sub.elements}


def test_subgroup_basis_enumerates():
    g = group_new([4, 2])
    for sub in all_subgroups(g):
        gens, orders, coords = subgroup_basis(sub)
        assert len(coords) == sub.order
        total = 1
        for o in orders:
            total *= o
        assert total == sub.order


def _gauss_jordan_inverse(M):
    """Reference inverse over Q; every entry must come out an integer."""
    k = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
           for i, row in enumerate(M)]
    for col in range(k):
        piv = next(i for i in range(col, k) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(k):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    assert all(x.denominator == 1 for row in aug for x in row[k:])
    return [[int(x) for x in row[k:]] for row in aug]


def test_unimodular_inverse_matches_gauss_jordan():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 5)
        # a product of random elementary operations and sign flips
        M = [[int(i == j) for j in range(k)] for i in range(k)]
        for _ in range(rng.randint(0, 12)):
            i, j = rng.randrange(k), rng.randrange(k)
            if i == j:
                M[i] = [-x for x in M[i]]
            else:
                f = rng.randint(-3, 3)
                M[i] = [x + f * y for x, y in zip(M[i], M[j])]
        assert _unimodular_inverse(M) == _gauss_jordan_inverse(M)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_character_multiplicativity(factors, data):
    g = group_new(factors)
    elems = g.elements()
    chi_coords = data.draw(st.sampled_from(elems)).coords
    chi = Character(g, chi_coords)
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    total = chi.value_exponent(a) + chi.value_exponent(b)
    assert chi.value_exponent(a * b) == total % g.exponent


def test_perp_of_orbit_set_is_galois_stable():
    z4 = group_new([4])
    orbs = dual_and_orbits(z4)
    pair = next(o for o in orbs if o.field_degree == 2)
    sub = perp_of_orbits(z4, [pair])
    assert sorted(x.coords for x in sub.elements) == [(0,)]
