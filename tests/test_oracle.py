import random

import pytest

from glim.abelian import group_new, subgroup_from_generators
from glim.cyclotomic import get_field
from glim.divalg import Bicharacter, DivisionClass, enumerate_division_classes
from glim.groupring import GroupRingElem
from glim.oracle import (
    FiniteGradedAlgebra,
    _Echelon,
    _vec_combine,
    build_matrix,
    build_twisted,
    center_dimension,
    cross_validate_group,
    expected_tensor_invariant,
    graded_iso_finite,
    graded_simple_decompose,
    is_central_simple,
    observed_tensor_invariant,
    opposite,
    round_trip_failures,
    tensor,
)

from conftest import random_label


def test_build_twisted_pauli(klein, pauli):
    alg = build_twisted(pauli.bichar)
    assert alg.dim == 4
    assert is_central_simple(alg)
    # X_a X_b = -X_b X_a for the two generators
    a_idx = alg.degrees.index(klein.element((0, 1)))
    b_idx = alg.degrees.index(klein.element((1, 0)))
    ab = alg.mul(alg.basis_vec(a_idx), alg.basis_vec(b_idx))
    ba = alg.mul(alg.basis_vec(b_idx), alg.basis_vec(a_idx))
    k = next(iter(ab))
    assert ab[k] == -ba[k]
    # X^2 = 1 in each degree
    for idx in (a_idx, b_idx):
        sq = alg.mul(alg.basis_vec(idx), alg.basis_vec(idx))
        assert sq == dict(alg.unit)


def test_build_twisted_group_algebra_not_simple():
    z2 = group_new([2])
    full = subgroup_from_generators(z2, [z2.element((1,))])
    alg = build_twisted(Bicharacter.trivial(full))
    assert center_dimension(alg) == 2
    with pytest.raises(ValueError):
        graded_simple_decompose(alg)


def test_build_twisted_z44_simple():
    g = group_new([4, 4])
    full = subgroup_from_generators(g, [g.element((1, 0)), g.element((0, 1))])
    cls = DivisionClass(Bicharacter.from_exponents(full, [[0, 1], [-1, 0]]))
    alg = build_twisted(cls.bichar)
    assert alg.dim == 16
    assert is_central_simple(alg)


def test_build_matrix_examples(klein, pauli, x_t):
    z2 = group_new([2])
    x = GroupRingElem.from_dict(z2, {z2.identity: 1, z2.element((1,)): 1})
    m = build_matrix(x)
    assert m.dim == 4
    degs = sorted(d.coords for d in m.degrees)
    assert degs == [(0,), (0,), (1,), (1,)]  # E_12 and E_21 have degree g

    p = build_matrix(GroupRingElem.one(klein), pauli)
    assert graded_iso_finite(p, build_twisted(pauli.bichar))

    mxt = build_matrix(x_t)
    assert mxt.dim == 16


def test_tensor_examples(klein, pauli, x_t):
    p = build_twisted(pauli.bichar)
    pp = tensor(p, p)
    inv = graded_simple_decompose(pp)
    assert inv.support.order == 1
    assert len(inv.coset_multiset) == 4  # x uniform over one coset system

    f_alg = build_matrix(GroupRingElem.one(klein))
    assert graded_iso_finite(tensor(p, f_alg), p)

    assert graded_iso_finite(tensor(p, opposite(p)), build_matrix(x_t))


def test_tensor_dimension_cap(monkeypatch, klein, pauli):
    monkeypatch.setenv("GLIM_MAX_DIM", "8")
    p = build_twisted(pauli.bichar)
    with pytest.raises(ValueError):
        tensor(p, p)


def test_tensor_degree_rule(klein, pauli):
    p = build_twisted(pauli.bichar)
    t = tensor(p, p)
    for (i, j), cell in t.table.items():
        for k, c in cell.items():
            if not c.is_zero:
                assert t.degrees[k] == t.degrees[i] * t.degrees[j]


def test_decompose_examples(klein, pauli, x_t):
    z2 = group_new([2])
    x = GroupRingElem.from_dict(z2, {z2.identity: 1, z2.element((1,)): 1})
    inv = graded_simple_decompose(build_matrix(x))
    assert inv.support.order == 1
    assert inv.coset_multiset == (((0,), 1), ((1,), 1))

    inv_p = graded_simple_decompose(build_twisted(pauli.bichar))
    assert inv_p.support.elements == pauli.support.elements
    assert inv_p.bichar == pauli.bichar
    assert len(inv_p.coset_multiset) == 1

    inv_pp = graded_simple_decompose(tensor(build_twisted(pauli.bichar), build_twisted(pauli.bichar)))
    assert inv_pp.support.order == 1
    assert inv_pp.coset_multiset == expected_tensor_invariant(pauli, pauli).coset_multiset


def test_graded_iso_finite_examples(klein, pauli, x_t):
    p = build_twisted(pauli.bichar)
    assert graded_iso_finite(build_matrix(x_t), tensor(p, p))
    assert not graded_iso_finite(p, build_matrix(GroupRingElem.constant(klein, 2)))
    z2 = group_new([2])
    x = GroupRingElem.from_dict(z2, {z2.identity: 1, z2.element((1,)): 1})
    assert not graded_iso_finite(
        build_matrix(x), build_matrix(GroupRingElem.constant(z2, 2))
    )


def test_opposite_preserves_support_flips_bicharacter():
    g = group_new([4, 4])
    full = subgroup_from_generators(g, [g.element((1, 0)), g.element((0, 1))])
    cls = DivisionClass(Bicharacter.from_exponents(full, [[0, 1], [-1, 0]]))
    inv = graded_simple_decompose(opposite(build_twisted(cls.bichar)))
    assert inv.bichar == cls.bichar.inverse()


def test_round_trips_over_named_groups():
    for factors in [(2, 2), (4, 4)]:
        assert round_trip_failures(group_new(list(factors))) == []


def test_matrix_of_matrix_is_product(klein):
    rng = random.Random(67)
    for _ in range(4):
        x = random_label(rng, klein, max_terms=2, max_mult=1)
        y = random_label(rng, klein, max_terms=2, max_mult=1)
        lhs = tensor(build_matrix(x), build_matrix(y))
        rhs = build_matrix(x * y)
        assert graded_iso_finite(lhs, rhs)


def test_klein_cross_validation():
    assert cross_validate_group(group_new([2, 2])) == []


def test_mixed_pair_z44_matches_oracle():
    g = group_new([4, 4])
    classes = enumerate_division_classes(g)
    pauli_like = next(c for c in classes if c.support.order == 4)
    big = next(c for c in classes if c.support.order == 16)
    want = expected_tensor_invariant(big, pauli_like)
    got = observed_tensor_invariant(big, pauli_like)
    assert want.support.elements == got.support.elements
    assert want.bichar == got.bichar
    assert want.coset_multiset == got.coset_multiset


# ---------------------------------------------------------------------------
# the monomial structure-constant contract


def _twisted_z42():
    g = group_new([4, 2])
    full = subgroup_from_generators(g, [g.element((1, 0)), g.element((0, 1))])
    return build_twisted(Bicharacter.trivial(full))


def _with_cell(alg, cell_of):
    """A copy of alg's table with the cell of two non-identity basis
    elements replaced by ``cell_of(old_cell)``."""
    e = alg.degrees.index(alg.group.identity)
    i, j = [k for k in range(alg.dim) if k != e][:2]
    table = dict(alg.table)
    table[(i, j)] = cell_of(table[(i, j)])
    return FiniteGradedAlgebra(alg.group, alg.degrees, table, alg.unit)


def test_perturbed_constant_fails_associativity():
    alg = _twisted_z42()
    zeta = alg.field.zeta(1)
    with pytest.raises(ValueError, match="associativity fails"):
        _with_cell(alg, lambda cell: {k: c * zeta for k, c in cell.items()})


def test_perturbed_constant_in_dimension_64_names_the_first_failing_triple():
    g = group_new([4, 4])
    classes = enumerate_division_classes(g)
    big = next(c for c in classes if c.support.order == 16)
    small = next(c for c in classes if c.support.order == 4)
    alg = tensor(build_twisted(big.bichar), build_twisted(small.bichar))
    assert alg.dim == 64
    zeta = alg.field.zeta(1)
    table = dict(alg.table)
    table[(5, 9)] = {k: c * zeta for k, c in table[(5, 9)].items()}
    with pytest.raises(ValueError, match=r"associativity fails on basis triple \(1,4,9\)$"):
        FiniteGradedAlgebra(alg.group, alg.degrees, table, alg.unit)


def test_product_zero_in_one_bracketing_only_fails_associativity(klein_full):
    alg = build_twisted(Bicharacter.trivial(klein_full))
    table = dict(alg.table)
    # e1 e2 = 0 while e1 e1 = e0: (e1 e1) e2 = e2 but e1 (e1 e2) = 0
    del table[(1, 2)]
    with pytest.raises(ValueError, match=r"associativity fails on basis triple \(1,1,2\)$"):
        FiniteGradedAlgebra(alg.group, alg.degrees, table, alg.unit)


def test_cell_with_two_entries_is_rejected():
    alg = _twisted_z42()
    with pytest.raises(ValueError, match="one nonzero entry"):
        _with_cell(alg, lambda cell: {**cell, 0: alg.field.one})


def test_constant_off_the_roots_of_unity_is_rejected():
    alg = _twisted_z42()
    with pytest.raises(ValueError, match="not a root of unity"):
        _with_cell(alg, lambda cell: {k: c * 2 for k, c in cell.items()})


# ---------------------------------------------------------------------------
# the tracked echelon


def test_tracked_echelon_relations_and_expressions():
    fld = get_field(4)
    one, zeta = fld.one, fld.zeta(1)
    vecs = [{0: one, 2: zeta}, {1: one * 2, 2: one}, {0: zeta, 3: one}]
    vecs.append(_vec_combine({0: zeta, 2: one * 3}, vecs))  # dependent
    vecs.append({4: one})
    ech = _Echelon(fld)
    relations = [ech.add(v, tag) for tag, v in enumerate(vecs)]
    assert relations[:3] == [None, None, None] and relations[4] is None
    dependent = relations[3]
    assert dependent[3] == one and _vec_combine(dependent, vecs) == {}
    for target in (vecs[1], _vec_combine({0: one, 4: zeta}, vecs)):
        assert _vec_combine(ech.express(target), vecs) == target
    with pytest.raises(ValueError):
        ech.express({5: one})
