import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from glim.abelian import (
    FinAbGroup,
    GroupElem,
    Subgroup,
    _element_index,
    all_subgroups,
    group_new,
    quotient,
)
from glim.cli import _ORACLE_CATALOG
from glim.cyclotomic import get_field
from glim.divalg import Bicharacter, DivisionClass, enumerate_division_classes
from glim.groupring import GroupRingElem, pushforward
from glim.oracle import (
    FiniteGradedAlgebra,
    _Echelon,
    _Endo,
    _find_zero_divisor,
    _poly_deflate,
    _vec_combine,
    build_matrix,
    build_twisted,
    center_dimension,
    cross_validate_group,
    expected_tensor_invariant,
    graded_iso_finite,
    graded_simple_decompose,
    is_central_simple,
    minimal_graded_left_ideal,
    normalize_coset_multiset,
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
    full = Subgroup(z2, (z2.element((1,)),))
    alg = build_twisted(Bicharacter.trivial(full))
    assert center_dimension(alg) == 2
    with pytest.raises(ValueError):
        graded_simple_decompose(alg)


def test_build_twisted_z44_simple():
    g = group_new([4, 4])
    full = Subgroup(g, (g.element((1, 0)), g.element((0, 1))))
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


def _matrix_multisets(g):
    """Multisets of up to 4 terms over g: the two distinct pairs, then
    multisets with repeated elements."""
    e, a, b = g.identity, g.element((1, 0)), g.element((0, 1))
    terms = [{e: 1, a: 1}, {e: 1, b: 1}, {e: 2}, {e: 2, a: 1}, {e: 2, a: 2},
             {e: 1, a: 1, b: 2}, {b: 4}, {e: 3, b: 1}]
    return [GroupRingElem.from_dict(g, t) for t in terms]


def _reference_rows(alg, h):
    """V = A*h reduced without tracking: per degree index of V, the echelon
    rows of the nonzero products e_i*h, taken in ``component_indices``
    order."""
    h_deg = alg.vec_degree(h)
    blocks = {}
    for d, indices in alg.component_indices.items():
        for i in indices:
            w = alg.mul_basis(i, h)
            if w:
                blocks.setdefault(alg.addition[d][h_deg], _Echelon()).add(w)
    return {d: ech.rows for d, ech in blocks.items()}


def _dim(endo):
    return sum(block.dim for block in endo.blocks.values())


def _endo(alg, h):
    """``_Endo(alg, h)``, whose per-degree rows must be the untracked
    reduction's."""
    endo = _Endo(alg, h)
    assert {d: b.rows for d, b in endo.blocks.items() if b.rows} == _reference_rows(alg, h)
    return endo


def _assert_minimal_ideal(alg):
    """``minimal_graded_left_ideal``'s loop, one step at a time.  At each
    step W = End_A(V) is graded-division (every W block one vector) exactly
    when its identity block W_e is one vector, and the zero divisor returned
    shrinks V to a nonzero proper submodule A*w.  Then the search's
    postcondition: each W block is one invertible vector, where w in W is
    invertible exactly when A*w is all of V."""
    endo = _endo(alg, alg.unit)
    while True:
        one_dim_e = len(endo.w_blocks[endo.h_deg]) == 1
        assert one_dim_e == all(len(vs) == 1 for vs in endo.w_blocks.values())
        w = _find_zero_divisor(endo)
        if w is None:
            break
        sub = _endo(alg, w)
        assert 0 < _dim(sub) < _dim(endo)
        endo = sub
    endo = minimal_graded_left_ideal(alg)
    for vecs in endo.w_blocks.values():
        assert len(vecs) == 1
        assert sum(map(len, _reference_rows(alg, vecs[0]).values())) == _dim(endo)


@pytest.mark.parametrize("factors", [(2, 2), (4, 2), (3, 3)])
def test_build_matrix_over_division_classes(factors):
    g = group_new(list(factors))
    for cls in enumerate_division_classes(g):
        qgroup, alpha = quotient(g, cls.support)
        for x in _matrix_multisets(g):
            if x.size() ** 2 * cls.support.order > 64:
                continue
            alg = build_matrix(x, cls)
            assert alg.dim == x.size() ** 2 * cls.support.order
            inv = graded_simple_decompose(alg)
            assert inv.support == cls.support
            assert inv.bichar == cls.bichar
            cosets = pushforward(x, qgroup, alpha)
            assert inv.coset_multiset == normalize_coset_multiset(cosets)
            _assert_minimal_ideal(alg)


def test_minimal_ideal_endomorphisms_are_graded_division():
    for alg in _sample_algebras():
        _assert_minimal_ideal(alg)


@pytest.mark.parametrize("factors", [f for f in _ORACLE_CATALOG if math.prod(f) <= 8])
def test_minimal_ideals_of_catalog_tensor_products(factors):
    # D1 (x) D2^op over every pair of the group's division classes, as
    # cross-validation builds them
    classes = enumerate_division_classes(FinAbGroup(factors))
    for d1 in classes:
        for d2 in classes:
            _assert_minimal_ideal(
                tensor(build_twisted(d1.bichar), opposite(build_twisted(d2.bichar))))


def _reference_normalize(qgroup, counts: Counter) -> tuple:
    """The least shift of a Counter over the group's elements, as sorted
    (coords, count) pairs."""
    best = None
    for shift in qgroup.elements():
        key = tuple(sorted((tuple((g * shift).coords), m) for g, m in counts.items()))
        if best is None or key < best:
            best = key
    return best if best is not None else ()


@pytest.mark.parametrize("factors", _ORACLE_CATALOG)
def test_normalize_coset_multiset_matches_the_counter_reference(factors):
    rng = random.Random(str(factors))
    g = FinAbGroup(factors)
    for sub in all_subgroups(g):
        qgroup, _ = quotient(g, sub)
        for _ in range(3):
            x = random_label(rng, qgroup, max_terms=4)
            want = _reference_normalize(qgroup, Counter({h: int(c) for h, c in x.coeffs}))
            assert normalize_coset_multiset(x) == want
            assert normalize_coset_multiset(x.translate(rng.choice(qgroup.elements()))) == want
    assert normalize_coset_multiset(GroupRingElem.zero(g)) == ()
    with pytest.raises(ValueError, match="integer counts"):
        normalize_coset_multiset(GroupRingElem.one(g).scale(Fraction(1, 2)))


def test_tensor_examples(klein, pauli, x_t):
    p = build_twisted(pauli.bichar)
    pp = tensor(p, p)
    inv = graded_simple_decompose(pp)
    assert inv.support.order == 1
    assert len(inv.coset_multiset) == 4  # x uniform over one coset system

    f_alg = build_matrix(GroupRingElem.one(klein))
    assert graded_iso_finite(tensor(p, f_alg), p)

    assert graded_iso_finite(tensor(p, opposite(p)), build_matrix(x_t))


def test_tensor_dimension_cap(klein):
    m8 = build_matrix(GroupRingElem.constant(klein, 8))
    m9 = build_matrix(GroupRingElem.constant(klein, 9))
    assert (m8.dim, m9.dim) == (64, 81)
    # 5,184 and 4,225 exceed the cap; both are refused before any table is built
    with pytest.raises(ValueError, match="dimension cap"):
        tensor(m8, m9)
    with pytest.raises(ValueError, match="dimension cap"):
        build_matrix(GroupRingElem.constant(klein, 65))


def test_matrix_cap_is_checked_before_the_multiset_is_expanded(klein, pauli):
    # 10^12 copies of the identity would be a list of 10^12 degrees
    with pytest.raises(ValueError, match="dimension cap"):
        build_matrix(GroupRingElem.constant(klein, 10**12))
    with pytest.raises(ValueError, match="dimension cap"):
        build_matrix(GroupRingElem.constant(klein, 10**12), pauli)


def test_tensor_degree_rule(klein, pauli):
    p = build_twisted(pauli.bichar)
    t = tensor(p, p)
    for i, row in enumerate(t.rows):
        for j, (k, e) in row.items():
            assert 0 <= e < len(t.roots)
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
    full = Subgroup(g, (g.element((1, 0)), g.element((0, 1))))
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
    full = Subgroup(g, (g.element((1, 0)), g.element((0, 1))))
    return build_twisted(Bicharacter.trivial(full))


def _copy_rows(alg):
    return [dict(row) for row in alg.rows]


def _with_cell(alg, cell_of):
    """A copy of alg's rows with the cell of two non-identity basis
    elements replaced by ``cell_of(old_cell)``."""
    e = alg.degrees.index(alg.group.identity)
    i, j = [k for k in range(alg.dim) if k != e][:2]
    rows = _copy_rows(alg)
    rows[i][j] = cell_of(alg.rows[i].get(j))
    return FiniteGradedAlgebra(alg.group, alg.degrees, rows, alg.unit)


def _times_r(alg, cell):
    """The cell multiplied by the generator r of the roots of unity."""
    k, e = cell
    return k, (e + 1) % len(alg.roots)


def test_perturbed_constant_fails_associativity():
    alg = _twisted_z42()
    with pytest.raises(ValueError, match="associativity fails"):
        _with_cell(alg, lambda cell: _times_r(alg, cell))


def test_perturbed_constant_in_dimension_64_names_the_first_failing_triple():
    g = group_new([4, 4])
    classes = enumerate_division_classes(g)
    big = next(c for c in classes if c.support.order == 16)
    small = next(c for c in classes if c.support.order == 4)
    alg = tensor(build_twisted(big.bichar), build_twisted(small.bichar))
    assert alg.dim == 64
    rows = _copy_rows(alg)
    rows[5][9] = _times_r(alg, alg.rows[5].get(9))
    with pytest.raises(ValueError, match=r"associativity fails on basis triple \(1,4,9\)$"):
        FiniteGradedAlgebra(alg.group, alg.degrees, rows, alg.unit)


def test_product_zero_in_one_bracketing_only_fails_associativity(klein_full):
    alg = build_twisted(Bicharacter.trivial(klein_full))
    rows = _copy_rows(alg)
    # e1 e2 = 0 while e1 e1 = e0: (e1 e1) e2 = e2 but e1 (e1 e2) = 0
    del rows[1][2]
    with pytest.raises(ValueError, match=r"associativity fails on basis triple \(1,1,2\)$"):
        FiniteGradedAlgebra(alg.group, alg.degrees, rows, alg.unit)


def test_generators_that_cannot_generate_are_rejected(klein_full):
    # the Pauli algebra is central simple, so the unit alone or one of its two
    # generators would read a center of dimension 4 or 2
    alg = build_twisted(Bicharacter.from_exponents(klein_full, [[0, 1], [1, 0]]))
    assert len(alg.generators) == 2
    for gens in [(alg.unit,), alg.generators[:1], alg.generators[1:]]:
        with pytest.raises(ValueError, match="the generators do not generate the algebra"):
            FiniteGradedAlgebra(alg.group, alg.degrees, alg.rows, alg.unit, gens)


def test_each_generator_row_is_checked(klein_full):
    # -1 on the cells (g, gh) and (gh, gh) of the commutative Klein group
    # algebra breaks associativity only for the left factors g and gh, so
    # only the row of g among the unit's and the generators' finds it
    alg = build_twisted(Bicharacter.trivial(klein_full))
    gens = [min(v) for v in alg.generators]
    assert sorted([*alg.unit, *gens]) == [0, 1, 2]
    m = len(alg.roots)
    for g, h in (gens, gens[::-1]):
        gh = alg.rows[g][h][0]
        rows = _copy_rows(alg)
        for i in (g, gh):
            k, e = rows[i][gh]
            rows[i][gh] = (k, (e + m // 2) % m)
        with pytest.raises(ValueError, match=rf"associativity fails on basis triple \({g},"):
            FiniteGradedAlgebra(alg.group, alg.degrees, rows, alg.unit, alg.generators)


def _perturbation_algebras():
    """The sample algebras plus catalog opposites, tensors and matrix
    algebras, of dimension at most 81."""
    algs = _sample_algebras()
    for factors in [(2, 2), (4, 2), (3, 3), (4, 4)]:
        g = group_new(list(factors))
        pair, _, _, triple = _matrix_multisets(g)[:4]
        algs.append(build_matrix(triple))
        classes = enumerate_division_classes(g)[1:3]
        first = build_twisted(classes[0].bichar)
        for cls in classes:
            d = build_twisted(cls.bichar)
            algs += [opposite(d), tensor(d, opposite(first)), build_matrix(pair, cls)]
    return algs


def _perturbed_rows(alg, rng):
    """alg's rows with one random cell changed: its exponent shifted, or its
    target moved to another basis element of the same degree."""
    rows = _copy_rows(alg)
    i = rng.randrange(alg.dim)
    j = rng.choice(sorted(rows[i]))
    k, e = rows[i][j]
    same_degree = [t for t in range(alg.dim)
                   if t != k and alg.deg_index[t] == alg.deg_index[k]]
    if same_degree and rng.random() < 0.5:
        rows[i][j] = (rng.choice(same_degree), e)
    else:
        rows[i][j] = (k, (e + rng.randrange(1, len(alg.roots))) % len(alg.roots))
    return rows


def _rejects(alg, rows, generators):
    try:
        FiniteGradedAlgebra(alg.group, alg.degrees, rows, alg.unit, generators)
    except ValueError:
        return True
    return False


def test_generator_rows_check_decides_like_the_all_rows_check():
    for alg in _sample_algebras():
        if alg.dim >= 16:
            assert len(alg._generating_indices()) < alg.dim
    rng = random.Random(29)
    for alg in _perturbation_algebras():
        for _ in range(30):
            rows = _perturbed_rows(alg, rng)
            assert _rejects(alg, rows, alg.generators) == _rejects(alg, rows, None)


def test_perturbed_constant_in_dimension_256_fails_associativity():
    g = group_new([4, 4])
    big = build_twisted(next(
        c for c in enumerate_division_classes(g) if c.support.order == 16).bichar)
    alg = tensor(big, opposite(big))
    assert alg.dim == 256
    rows = _copy_rows(alg)
    rows[5][9] = _times_r(alg, alg.rows[5].get(9))
    with pytest.raises(ValueError, match="associativity fails"):
        FiniteGradedAlgebra(alg.group, alg.degrees, rows, alg.unit, alg.generators)


def test_cell_with_index_out_of_range_is_rejected():
    alg = _twisted_z42()
    for bad_index in (-1, alg.dim):
        with pytest.raises(ValueError, match="cell out of range"):
            _with_cell(alg, lambda cell: (bad_index, cell[1]))


def test_cell_with_exponent_out_of_range_is_rejected():
    alg = _twisted_z42()
    for bad_exponent in (-1, len(alg.roots)):
        with pytest.raises(ValueError, match="cell out of range"):
            _with_cell(alg, lambda cell: (cell[0], bad_exponent))


def _with_key(alg, key, source):
    """alg's rows plus the cell of ``source`` copied under ``key``."""
    (i, j), (si, sj) = key, source
    rows = _copy_rows(alg)
    rows[i][j] = alg.rows[si].get(sj)
    return FiniteGradedAlgebra(alg.group, alg.degrees, rows, alg.unit)


def _with_extra_row(alg, at):
    """alg's rows with a copy of its last row inserted at ``at``: one row
    more than the dimension."""
    rows = _copy_rows(alg)
    rows.insert(at, dict(alg.rows[-1]))
    return FiniteGradedAlgebra(alg.group, alg.degrees, rows, alg.unit)


def _klein_twisted(klein_full):
    return build_twisted(Bicharacter.from_exponents(klein_full, [[0, 1], [1, 0]]))


def test_negative_row_key_is_rejected(klein_full):
    # a row list has no negative row: a row put before row 0 makes dim + 1
    alg = _klein_twisted(klein_full)
    with pytest.raises(ValueError, match="key out of range"):
        _with_extra_row(alg, 0)


def test_negative_column_key_is_rejected(klein_full):
    alg = _klein_twisted(klein_full)
    with pytest.raises(ValueError, match="key out of range"):
        _with_key(alg, (0, -1), (0, alg.dim - 1))


def test_row_key_past_the_dimension_is_rejected(klein_full):
    alg = _klein_twisted(klein_full)
    with pytest.raises(ValueError, match="key out of range"):
        _with_extra_row(alg, alg.dim)


def test_unit_and_generator_keys_out_of_range_are_rejected(klein_full):
    alg = _klein_twisted(klein_full)
    one = alg.field.one
    for bad in (alg.dim, -1):
        with pytest.raises(ValueError, match="unit or generator key out of range"):
            FiniteGradedAlgebra(alg.group, alg.degrees, alg.rows, {bad: one})
        with pytest.raises(ValueError, match="unit or generator key out of range"):
            FiniteGradedAlgebra(alg.group, alg.degrees, alg.rows, alg.unit, ({bad: one},))


def test_cell_in_the_wrong_degree_is_rejected():
    alg = _twisted_z42()  # one basis element per degree
    e = alg.degrees.index(alg.group.identity)
    i, j = [k for k in range(alg.dim) if k != e][:2]
    k = alg.rows[i].get(j)[0]
    for wrong in range(alg.dim):
        if wrong != k:
            with pytest.raises(ValueError, match="constants violate the grading"):
                _with_cell(alg, lambda cell: (wrong, cell[1]))


def test_degree_rule_compares_degrees_not_basis_indices():
    klein = group_new([2, 2])
    x = GroupRingElem.from_dict(klein, {klein.identity: 1, klein.element((1, 0)): 1})
    alg = build_matrix(x)  # E_00 and E_11 both have the identity degree
    assert alg.degrees[0] == alg.degrees[3] == klein.identity
    rows = _copy_rows(alg)
    assert rows[1].get(2) == (0, 0)  # E_01 E_10 = E_00
    rows[1][2] = (3, 0)  # E_01 E_10 moved to the other basis element of its degree
    with pytest.raises(ValueError, match="associativity fails"):
        FiniteGradedAlgebra(klein, alg.degrees, rows, alg.unit)
    rows[1][2] = (1, 0)  # to a basis element of degree (1, 0)
    with pytest.raises(ValueError, match="violate the grading"):
        FiniteGradedAlgebra(klein, alg.degrees, rows, alg.unit)


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


def test_deflation_returns_the_quotient_and_the_remainder():
    fld = get_field(4)
    one, two = fld.one, fld.scalar(2)
    x2_minus_1 = [-one, fld.zero, one]
    # by a root: x + 1, remainder 0
    assert _poly_deflate(x2_minus_1, one) == ([one, one], fld.zero)
    # by a non-root: x^2 - 1 = (x - 2)(x + 2) + 3
    q, remainder = _poly_deflate(x2_minus_1, two)
    assert q == [two, one]
    assert not remainder.is_zero and remainder == fld.scalar(3)


# ---------------------------------------------------------------------------
# degrees as element indices, structure constants by rows


def test_degrees_from_another_group_are_rejected(klein):
    one = get_field(4).one
    z4 = group_new([4])
    with pytest.raises(ValueError, match="not an element of the grading group"):
        FiniteGradedAlgebra(klein, (z4.identity,), [{0: (0, 0)}], {0: one})
    alg = build_twisted(Bicharacter.trivial(Subgroup(klein, (klein.element((1, 0)),))))
    assert alg.degrees == (klein.identity, klein.element((1, 0)))
    # a foreign degree whose coordinates are also those of an element of
    # klein, and an element of klein with unreduced coordinates
    for foreign in (group_new([2, 4]).element((1, 0)), GroupElem(klein, (3, 0))):
        with pytest.raises(ValueError, match="not an element of the grading group"):
            FiniteGradedAlgebra(klein, (klein.identity, foreign), alg.rows, alg.unit)


@pytest.mark.parametrize("factors", _ORACLE_CATALOG + [(2, 2, 2, 2)])
def test_element_index_is_coordinate_order(factors):
    g = FinAbGroup(factors)
    elems = g.elements()
    assert [e.coords for e in elems] == sorted(e.coords for e in elems)
    assert _element_index(g) == {e.coords: i for i, e in enumerate(elems)}


def _sample_algebras():
    """Algebras from each construction, over three groups."""
    klein, z44, z42 = group_new([2, 2]), group_new([4, 4]), group_new([4, 2])
    k_classes = enumerate_division_classes(klein)
    big = next(c for c in enumerate_division_classes(z44) if c.support.order == 16)
    pauli = k_classes[-1]
    x = GroupRingElem.from_dict(z42, {z42.identity: 1, z42.element((1, 1)): 2})
    twisted = build_twisted(big.bichar)
    cyclic = Subgroup(z42, (z42.element((2, 1)),))
    return [
        twisted,
        opposite(twisted),
        build_matrix(x),
        build_matrix(GroupRingElem.from_dict(klein, {klein.element((0, 1)): 2}), pauli),
        tensor(build_twisted(pauli.bichar), opposite(build_twisted(k_classes[1].bichar))),
        tensor(build_matrix(x), build_twisted(Bicharacter.trivial(cyclic))),
    ]


def _reference_mul(alg, u, v):
    """u * v read cell by cell off the public ``rows``."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            cell = alg.rows[i].get(j)
            if cell is not None:
                k, e = cell
                out[k] = out.get(k, alg.field.zero) + a * b * alg.roots[e]
    return {k: c for k, c in out.items() if not c.is_zero}


def test_degree_indices_and_row_products_agree_with_the_table():
    rng = random.Random(17)
    for alg in _sample_algebras():
        elems = alg.group.elements()
        assert len(alg.deg_index) == alg.dim
        assert all(elems[d] == g for d, g in zip(alg.deg_index, alg.degrees))
        by_index = [i for idxs in alg.component_indices.values() for i in idxs]
        assert by_index == sorted(range(alg.dim), key=lambda i: alg.degrees[i].coords)
        fld = alg.field

        def draw():
            support = rng.sample(range(alg.dim), rng.randint(1, min(4, alg.dim)))
            return {i: fld.zeta(rng.randrange(fld.n)) * rng.choice([1, -2, 3])
                    for i in support}

        for _ in range(20):
            u, v = draw(), draw()
            assert alg.mul(u, v) == _reference_mul(alg, u, v)
            i = rng.randrange(alg.dim)
            assert alg.mul_basis(i, v) == _reference_mul(alg, {i: fld.one}, v)


def test_tensor_cells_are_products_of_factor_cells():
    algs = _sample_algebras()
    for a in algs:
        for b in algs:
            if a.group != b.group:
                continue
            t, bd, m = tensor(a, b), b.dim, len(a.roots)
            for i1, i2, j1, j2 in itertools.product(range(a.dim), range(bd), repeat=2):
                c1, c2 = a.rows[i1].get(j1), b.rows[i2].get(j2)
                want = None
                if c1 is not None and c2 is not None:
                    want = (c1[0] * bd + c2[0], (c1[1] + c2[1]) % m)
                assert t.rows[i1 * bd + i2].get(j1 * bd + j2) == want


def test_opposite_transposes_the_rows():
    for a in _sample_algebras():
        op = opposite(a)
        for i, j in itertools.product(range(a.dim), repeat=2):
            assert op.rows[j].get(i) == a.rows[i].get(j)
        assert opposite(op).rows == a.rows


def test_matrix_unit_cells_multiply_as_matrix_units():
    klein = group_new([2, 2])
    units = [
        _sample_algebras()[2],
        build_matrix(GroupRingElem.from_dict(klein, {klein.identity: 2, klein.element((1, 1)): 1})),
    ]
    for alg in units:
        size = math.isqrt(alg.dim)
        for p, q, q2, r in itertools.product(range(size), repeat=4):
            # E_pq E_q2r = E_pr when q == q2, else zero
            want = (p * size + r, 0) if q == q2 else None
            assert alg.rows[p * size + q].get(q2 * size + r) == want


def test_module_blocks_and_endo_support_agree_with_group_elements():
    rng = random.Random(29)
    for alg in _sample_algebras():
        elems = alg.group.elements()
        one = alg.field.one
        for h in [alg.unit] + [{i: one} for i in rng.sample(range(alg.dim), 3)]:
            endo = _endo(alg, h)
            h_deg = alg.degrees[min(h)]
            want = {alg.degrees[i] * h_deg
                    for i in range(alg.dim) if _reference_mul(alg, {i: one}, h)}
            assert {elems[d] for d, block in endo.blocks.items() if block.rows} == want
            for d, block in endo.blocks.items():
                assert all(alg.degrees[k] == elems[d] for row in block.rows for k in row)
            support = [elems[d] * h_deg.inverse() for d in endo.w_blocks]
            assert endo.support() == sorted(support, key=lambda g: g.coords)
