import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glim.abelian import (
    FinAbGroup,
    Subgroup,
    _addition_table,
    dual_and_orbits,
    generator_words,
    group_new,
    perp,
    quotient,
    subgroup_basis,
    subgroup_from_members,
    all_subgroups,
)
from glim.exactsolve import hermite_basis, smith_normal_form

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


def test_group_factors_must_be_ints():
    assert group_new([4, 2]) == FinAbGroup((4, 2))
    assert group_new([4, 2]).factors == (4, 2)
    for bad in ([4.5, 2], [True, 2], ["4"]):
        with pytest.raises(ValueError):
            group_new(bad)
    with pytest.raises(ValueError):
        FinAbGroup((4, 2.0))


def test_element_takes_int_coordinates_only():
    g = group_new([4, 4])
    assert g.element((5, -1)).coords == (1, 3)
    for bad in ((1.7, True), (1.0, 0), ("1", 0), (0, True)):
        with pytest.raises(ValueError):
            g.element(bad)
    with pytest.raises(ValueError):
        g.element((1,))


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
    whole = Subgroup(klein, (klein.element((1, 0)), klein.element((0, 1))))
    assert whole.order == 4
    assert Subgroup(klein, ()).order == 1
    g = group_new([4, 2])
    sub = Subgroup(g, (g.element((2, 0)),))
    assert sorted(e.coords for e in sub.elements) == [(0, 0), (2, 0)]


def _closure_saturation_subgroups(group):
    """Reference enumeration: from each subgroup found, close its generators
    together with every element it lacks, breadth first."""
    found = {}
    triv = Subgroup(group, ())
    found[triv.elements] = triv
    frontier = [triv]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in group.elements():
                if g in sub.elements:
                    continue
                bigger = Subgroup(group, sub.generators + (g,))
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
    # no identity; no inverses; not closed under products
    with pytest.raises(ValueError, match="not a subgroup"):
        subgroup_from_members(z4, {z4.element((2,))})
    with pytest.raises(ValueError, match="not a subgroup"):
        subgroup_from_members(z4, {z4.element((0,)), z4.element((1,))})
    klein = group_new([2, 2])
    with pytest.raises(ValueError, match="not a subgroup"):
        subgroup_from_members(klein, [klein.element(c) for c in [(0, 0), (1, 0), (0, 1)]])


def _closed_under_products(group, members) -> bool:
    """The all-pairs definition: a nonempty finite set closed under
    products is a subgroup."""
    return group.identity in members and all(a * b in members for a in members for b in members)


@pytest.mark.parametrize("factors", [(8,), (4, 2), (2, 2, 2), (3, 3)])
def test_subgroup_accepts_exactly_the_sets_closed_under_products(factors):
    group = group_new(factors)
    elems = group.elements()
    accepted = set()
    for bits in itertools.product([False, True], repeat=len(elems)):
        members = frozenset(g for g, keep in zip(elems, bits) if keep)
        try:
            subgroup_from_members(group, members)
        except ValueError:
            assert not _closed_under_products(group, members), members
        else:
            assert _closed_under_products(group, members), members
            accepted.add(members)
    assert accepted == {sub.elements for sub in all_subgroups(group)}


def test_quotient_examples():
    klein = group_new([2, 2])
    whole = Subgroup(klein, (klein.element((1, 0)), klein.element((0, 1))))
    q, _ = quotient(klein, whole)
    assert q.order == 1

    half = Subgroup(klein, (klein.element((1, 0)),))
    q2, image2 = quotient(klein, half)
    assert q2.factors == (2,)
    # element (0, 1) has index 1 in coordinate order; target index 0 is the identity
    assert image2[1] != 0

    z4 = group_new([4])
    sub = Subgroup(z4, (z4.element((2,)),))
    q3, image3 = quotient(z4, sub)
    assert q3.factors == (2,)  # Smith form of the relation lattice by hand
    assert image3[1] != 0


def test_quotient_kernel_is_exactly_the_subgroup():
    for factors in [[2, 2], [4], [4, 2], [2, 2, 2], [8]]:
        g = group_new(factors)
        for sub in all_subgroups(g):
            target, image = quotient(g, sub)
            for x, i in zip(g.elements(), image):
                assert target.elements()[i].is_identity == (x in sub)


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
    whole = Subgroup(klein, (klein.element((1, 0)), klein.element((0, 1))))
    tp = perp(klein, whole.elements)
    assert sorted(x.coords for x in tp.elements) == [(0, 0)]

    triv_orbit = dual_and_orbits(klein)[0]
    sp = perp(klein, [triv_orbit.representative])
    assert sp.order == 4

    z4 = group_new([4])
    sub = Subgroup(z4, (z4.element((2,)),))
    tp4 = perp(z4, sub.elements)
    assert sorted(x.coords for x in tp4.elements) == [(0,), (2,)]


def test_perp_biduality():
    for factors in [[2], [4], [2, 2], [4, 2], [2, 2, 2], [8], [3, 3], [9], [4, 4]]:
        g = group_new(factors)
        for sub in all_subgroups(g):
            dd = perp(g, perp(g, sub.elements).elements)
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


def _fraction_inverse(M):
    """Reference inverse over Q by Gauss-Jordan, in Fractions."""
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
    return [row[k:] for row in aug]


def _integral(rows):
    assert all(x.denominator == 1 for row in rows for x in row)
    return [[int(x) for x in row] for row in rows]


def _two_smith_form_basis(sub):
    """Reference basis by the two-Smith-form algorithm: the Hermite basis B of
    the subgroup's lattice, W = D B^-1, the Smith form U W V = S, V^-1 by
    Gauss-Jordan, generators the rows of V^-1 B with S_ii > 1, coordinates by
    products of powers."""
    G = sub.parent
    k = len(G.factors)
    if sub.order == 1:
        return (), (), {G.identity: ()}
    D = [[G.factors[i] if j == i else 0 for j in range(k)] for i in range(k)]
    B = hermite_basis([list(g.coords) for g in sub.sorted_elements()] + D)
    Binv = _fraction_inverse(B)
    W = _integral([[sum(D[i][t] * Binv[t][j] for t in range(k)) for j in range(k)]
                   for i in range(k)])
    S, _U, V = smith_normal_form(W)
    Vinv = _integral(_fraction_inverse(V))
    gens, orders = [], []
    for i in range(k):
        if S[i][i] > 1:
            gens.append(G.element([sum(Vinv[i][t] * B[t][j] for t in range(k))
                                   for j in range(k)]))
            orders.append(S[i][i])
    coords = {}
    for tup in itertools.product(*(range(o) for o in orders)):
        elem = G.identity
        for g, c in zip(gens, tup):
            elem = elem * g**c
        coords[elem] = tup
    return tuple(gens), tuple(orders), coords


BASIS_GROUPS = [
    (1,), (6,), (2, 2), (4, 2), (3, 3), (2, 2, 2), (8, 2), (4, 4), (4, 2, 2),
    (2, 2, 2, 2), (6, 6), (8, 8), (4, 4, 4), (2, 2, 2, 2, 2),
]


@pytest.mark.parametrize("factors", BASIS_GROUPS)
def test_subgroup_basis_matches_the_two_smith_form_reference(factors):
    for sub in all_subgroups(group_new(factors)):
        assert subgroup_basis(sub) == _two_smith_form_basis(sub)


def test_generator_words_are_the_first_words_reached():
    z4 = group_new([4])
    words = generator_words(z4, [z4.element((1,)), z4.element((2,))])
    assert {g.coords: w for g, w in words.items()} == {
        (0,): (0, 0), (1,): (1, 0), (2,): (0, 1), (3,): (1, 1)
    }
    with pytest.raises(ValueError, match="different group"):
        generator_words(z4, [group_new([2]).element((1,))])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_character_multiplicativity(factors, data):
    g = group_new(factors)
    elems = g.elements()
    chi = data.draw(st.sampled_from(elems))
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    total = chi.value_exponent(a) + chi.value_exponent(b)
    assert chi.value_exponent(a * b) == total % g.exponent
    # one symmetric pairing: chi(a) = zeta_n^k with k/n = sum m_i c_i / d_i mod 1
    written_out = sum(Fraction(m * c, d) for m, c, d in zip(chi.coords, a.coords, factors)) % 1
    assert chi.value_exponent(a) == a.value_exponent(chi) == written_out * g.exponent


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_perp_is_the_annihilator_of_t_and_of_s(factors, data):
    g = group_new(factors)
    elems = g.elements()
    sub = data.draw(st.sampled_from(all_subgroups(g)))
    # T-perp: the characters trivial on T
    want_t = {chi for chi in elems if all(chi.value_exponent(t) == 0 for t in sub.elements)}
    assert perp(g, sub.elements).elements == want_t
    # S-perp: the elements every character of every orbit of S is trivial on
    orbits = data.draw(st.lists(st.sampled_from(dual_and_orbits(g)), unique=True))
    want_s = {
        x for x in elems if all(chi.value_exponent(x) == 0 for o in orbits for chi in o.members)
    }
    assert perp(g, [o.representative for o in orbits]).elements == want_s


def test_orbits_are_the_generator_sets_of_the_cyclic_subgroups():
    for factors in [[1], [6], [4, 2], [2, 2, 2], [8], [3, 3], [12], [4, 4], [8, 2], [6, 6],
                    [64], [4, 4, 2], [8, 8]]:
        g = group_new(factors)
        generator_sets = set()
        for sub in all_subgroups(g):
            gens = frozenset(x for x in sub.elements if Subgroup(g, (x,)) == sub)
            if gens:
                generator_sets.add(gens)
        assert {o.members for o in dual_and_orbits(g)} == generator_sets


def test_perp_of_orbit_set_is_galois_stable():
    z4 = group_new([4])
    orbs = dual_and_orbits(z4)
    pair = next(o for o in orbs if o.field_degree == 2)
    sub = perp(z4, [pair.representative])
    assert sorted(x.coords for x in sub.elements) == [(0,)]
