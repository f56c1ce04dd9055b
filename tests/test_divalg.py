import itertools
from math import gcd

import pytest

from glim.abelian import (
    Subgroup,
    all_subgroups,
    group_new,
    perp,
    subgroup_basis,
)
from glim.divalg import (
    Bicharacter,
    BrauerClass,
    DivisionClass,
    bicharacter_from_generator_data,
    brauer_lift,
    brauer_mul,
    brauer_unlift,
    enumerate_division_classes,
    op_class,
)
from glim.groupring import GroupRingElem, subgroup_sum


def z44_class(u: int) -> DivisionClass:
    g = group_new([4, 4])
    full = Subgroup(g, (g.element((1, 0)), g.element((0, 1))))
    return DivisionClass(Bicharacter.from_exponents(full, [[0, u], [-u, 0]]))


def test_radical_examples(klein, klein_full, pauli):
    assert pauli.bichar.radical().order == 1
    triv_bichar = Bicharacter.trivial(klein_full)
    assert triv_bichar.radical().order == 4
    assert z44_class(1).bichar.radical().order == 1


def _candidate_bicharacters(group):
    """Every bicharacter ``enumerate_division_classes`` tries over the
    group, degenerate ones included."""
    n = group.exponent
    for sub in all_subgroups(group):
        _gens, orders, _ = subgroup_basis(sub)
        r = len(orders)
        slots = [(i, j) for i in range(r) for j in range(i + 1, r)]
        choices = [range(gcd(orders[i], orders[j])) for i, j in slots]
        for combo in itertools.product(*choices):
            mat = [[0] * r for _ in range(r)]
            for (i, j), u in zip(slots, combo):
                step = n // gcd(orders[i], orders[j])
                mat[i][j] = (u * step) % n
                mat[j][i] = (-u * step) % n
            yield Bicharacter(sub, tuple(tuple(row) for row in mat))


@pytest.mark.parametrize("factors", [(4, 2, 2), (4, 4), (2, 2, 2, 2)])
def test_radical_matches_the_all_pairs_definition(factors):
    tried = degenerate = 0
    for b in _candidate_bicharacters(group_new(factors)):
        T = b.subgroup.elements
        want = {t for t in T if all(b.exponent_of(t, s) == 0 for s in T)}
        assert b.radical().elements == want
        assert b.is_nondegenerate == (len(want) == 1)
        tried += 1
        degenerate += len(want) > 1
    assert tried > degenerate > 0


def test_degenerate_bicharacter_is_not_a_class(klein_full):
    with pytest.raises(ValueError):
        DivisionClass(Bicharacter.trivial(klein_full))


def test_alternating_validation(klein_full):
    with pytest.raises(ValueError):
        Bicharacter.from_exponents(klein_full, [[1, 1], [1, 0]])


def test_brauer_lift_examples(klein, klein_full, pauli):
    b = brauer_lift(pauli)
    assert b.radical_dual().order == 1  # nondegenerate on the dual
    triv = DivisionClass.trivial(klein)
    assert all(v % 2 == 0 for row in brauer_lift(triv).matrix for v in row)
    d44 = z44_class(1)
    lift = brauer_lift(d44)
    tperp = perp(d44.group, d44.support.elements)
    assert {x.coords for x in lift.radical_dual().elements} == {
        x.coords for x in tperp.elements
    }


def test_brauer_class_must_be_well_defined_on_the_dual_generators():
    # over Z2 x Z4, B(chi_1, chi_2) has order dividing 2, so its exponent
    # mod 4 is even; 1 is alternating and skew but names no bicharacter
    g = group_new([2, 4])
    assert BrauerClass(g, ((0, 2), (2, 0))).radical_dual().order == 2
    with pytest.raises(ValueError, match="well defined"):
        BrauerClass(g, ((0, 1), (3, 0)))


def test_lift_unlift_round_trip(klein, pauli):
    for cls in enumerate_division_classes(klein) + enumerate_division_classes(
        group_new([4, 4])
    ):
        sub, bichar = brauer_unlift(brauer_lift(cls))
        assert sub.elements == cls.support.elements
        assert bichar == cls.bichar


def test_radical_of_lift_is_support_perp():
    for factors in [[2, 2], [4, 2], [4, 4], [2, 2, 2]]:
        g = group_new(factors)
        for cls in enumerate_division_classes(g):
            lift = brauer_lift(cls)
            tperp = perp(g, cls.support.elements)
            assert {x.coords for x in lift.radical_dual().elements} == {
                x.coords for x in tperp.elements
            }


def test_brauer_mul_pauli_squared(klein, pauli, x_t):
    e_class, y, h = brauer_mul(pauli, pauli)
    assert e_class.is_trivial
    assert y == x_t
    assert h.order == 4


def test_brauer_mul_with_trivial(klein, pauli):
    triv = DivisionClass.trivial(klein)
    e_class, y, _ = brauer_mul(pauli, triv)
    assert e_class.support.elements == pauli.support.elements
    assert e_class.bichar == pauli.bichar
    assert y == GroupRingElem.one(klein)


def test_brauer_mul_dimension_identity():
    for factors in [[2, 2], [4, 4]]:
        g = group_new(factors)
        classes = enumerate_division_classes(g)
        for d1 in classes:
            for d2 in classes:
                e_class, y, _ = brauer_mul(d1, d2)
                assert (
                    int(y.size()) ** 2 * e_class.support.order
                    == d1.support.order * d2.support.order
                )


def test_mul_of_class_with_itself_splits():
    # brauer_mul(D, D) is the class of D (x) D^op: trivial, full multiset
    for factors in [[2, 2], [4, 4]]:
        g = group_new(factors)
        for cls in enumerate_division_classes(g):
            e_class, y, _ = brauer_mul(cls, cls)
            assert e_class.is_trivial
            assert y == subgroup_sum(cls.support)


def test_op_class(klein, pauli):
    assert op_class(pauli).bichar == pauli.bichar  # values are +-1
    d = z44_class(1)
    assert op_class(d).bichar == z44_class(3).bichar
    assert op_class(op_class(d)) == d


def test_class_enumeration_counts():
    assert len(enumerate_division_classes(group_new([2, 2]))) == 2
    assert len(enumerate_division_classes(group_new([4]))) == 1
    assert len(enumerate_division_classes(group_new([4, 4]))) == 4


def test_bicharacter_from_generator_data_redundant_generators(klein):
    # the full Klein group presented with three (dependent) generators
    gens = [klein.element((1, 0)), klein.element((0, 1)), klein.element((1, 1))]
    mat = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    bichar = bicharacter_from_generator_data(klein, gens, mat, 2)
    assert bichar.is_nondegenerate
    pair = bicharacter_from_generator_data(klein, gens[:2], [[0, 1], [1, 0]], 2)
    assert bichar == pair
    assert DivisionClass(bichar) == DivisionClass(pair)
    # beta(g1, g3) must be beta(g1, g1) + beta(g1, g2) = 1, not 0
    with pytest.raises(ValueError):
        bicharacter_from_generator_data(klein, gens, [[0, 1, 0], [1, 0, 1], [0, 1, 0]], 2)


def test_non_integer_exponents_are_rejected():
    g = group_new([4, 4])
    full = Subgroup(g, (g.element((1, 0)), g.element((0, 1))))
    gens = list(full.generators)
    for bad in ([[0, 1.5], [-1.5, 0]], [[0, "1"], [-1, 0]], [[0, True], [-1, 0]]):
        with pytest.raises(ValueError):
            Bicharacter.from_exponents(full, bad)
        with pytest.raises(ValueError):
            bicharacter_from_generator_data(g, gens, bad, 4)
    assert Bicharacter.from_exponents(full, [[0, 1], [-1, 0]]).matrix == ((0, 1), (3, 0))


def test_bicharacter_from_generator_data_rejects_inconsistent(klein):
    gens = [klein.element((1, 0)), klein.element((1, 0))]
    mat = [[0, 1], [1, 0]]  # beta(g, g) would have to be both 1 and -1
    with pytest.raises(ValueError):
        bicharacter_from_generator_data(klein, gens, mat, 2)


def test_brauer_equivalent_examples(klein, pauli, x_t):
    from glim.limits import LimitDescriptor, brauer_equivalent, k0_realization

    triv = DivisionClass.trivial(klein)
    two = GroupRingElem.constant(klein, 2)
    a = LimitDescriptor(klein, two, (), (two,))
    a_prime = LimitDescriptor(klein, x_t, (), (x_t,))
    assert brauer_equivalent(pauli, pauli, k0_realization(a), 8).verdict == "yes"
    assert brauer_equivalent(pauli, triv, k0_realization(a), 8).verdict == "no"
    assert brauer_equivalent(pauli, triv, k0_realization(a_prime), 8).verdict == "yes"
