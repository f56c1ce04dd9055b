"""The maps and searches that run on a group's index tables against
references on ``GroupElem``s and dense linear algebra kept here: the span
search of ``generator_words``, the quotient table, and ``center_dimension``.
"""

from math import gcd

from hypothesis import example, given, settings, strategies as st

from glim.abelian import Subgroup, generator_words, group_new, quotient, subgroup_basis
from glim.divalg import Bicharacter, enumerate_division_classes
from glim.exactsolve import hermite_basis, smith_normal_form
from glim.groupring import GroupRingElem
from glim.oracle import build_matrix, build_twisted, center_dimension, opposite, tensor

from test_derive_once import DECIDE_MIXED_GROUPS

GROUPS = DECIDE_MIXED_GROUPS + [[2, 2, 2, 2]]


@st.composite
def generator_tuples(draw, max_size=4):
    """A group of ``GROUPS`` and a random tuple of its elements (repeats,
    the identity and dependent elements included)."""
    group = group_new(draw(st.sampled_from(GROUPS)))
    gens = draw(st.lists(st.sampled_from(group.elements()), max_size=max_size))
    return group, tuple(gens)


def _reference_words(group, gens):
    """The breadth-first search by ``GroupElem`` products."""
    words = {group.identity: (0,) * len(gens)}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = x * g
                if y not in words:
                    w = words[x]
                    words[y] = w[:i] + (w[i] + 1,) + w[i + 1 :]
                    nxt.append(y)
        frontier = nxt
    return words


@settings(max_examples=80, deadline=None)
@given(generator_tuples())
def test_generator_words_is_the_bfs_by_element_products(drawn):
    group, gens = drawn
    words = generator_words(group, gens)
    want = _reference_words(group, gens)
    # the same words, reached in the same order
    assert list(words.items()) == list(want.items())


def _reference_projection(group, sub):
    """x -> (x V) on the columns with Smith entry above 1, mod that entry.
    The rows go in coordinate order, as ``quotient`` takes them: the Hermite
    basis depends on row order, and with it the names of G/T's coordinates."""
    rows = [list(t.coords) for t in sorted(sub.elements, key=lambda t: t.coords)]
    k = len(group.factors)
    rows += [[group.factors[i] if j == i else 0 for j in range(k)] for i in range(k)]
    S, _U, V = smith_normal_form(hermite_basis(rows))
    kept = [j for j in range(k) if S[j][j] > 1]
    return {
        g.coords: tuple(
            sum(c * V[i][j] for i, c in enumerate(g.coords)) % S[j][j] for j in kept
        ) or (0,)
        for g in group.elements()
    }


Z44 = group_new([4, 4])


@settings(max_examples=80, deadline=None)
@given(generator_tuples())
# in frozenset order this subgroup's rows name G/T's coordinates otherwise
@example((Z44, (Z44.element((0, 2)), Z44.element((2, 0)))))
def test_quotient_table_is_the_coordinate_projection(drawn):
    group, gens = drawn
    sub = Subgroup(group, gens)
    target, image = quotient(group, sub)
    assert type(image) is tuple and len(image) == group.order
    assert target.order * sub.order == group.order
    targets = target.elements()
    want = _reference_projection(group, sub)
    assert {g.coords: targets[i].coords for g, i in zip(group.elements(), image)} == want
    kernel = {g for g, i in zip(group.elements(), image) if targets[i].is_identity}
    assert kernel == sub.elements


@settings(max_examples=30, deadline=None)
@given(generator_tuples())
def test_quotient_is_derived_once_per_subgroup(drawn):
    group, gens = drawn
    sub = Subgroup(group, gens)
    assert quotient(group, sub) is quotient(group, sub)
    # an equal subgroup from other generators shares the table
    assert quotient(group, Subgroup(group, tuple(sub.elements))) is quotient(group, sub)


def _dense_rank(matrix, field) -> int:
    """Gaussian elimination on a list of dense rows over the field."""
    rows = [list(r) for r in matrix if any(not c.is_zero for c in r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        top = [c * inv for c in rows[rank]]
        rows[rank] = top
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if not f.is_zero:
                rows[r] = [a - f * b for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def _dense_center_dimension(a) -> int:
    """dim A minus the rank of z -> (z*g - g*z) over the stored generators g,
    with every product read cell by cell off ``rows`` into dense rows."""
    fld, dim = a.field, a.dim

    def basis_product(i, j):
        cell = a.rows[i].get(j)
        return (None, fld.zero) if cell is None else (cell[0], a.roots[cell[1]])

    rows = []
    for g in a.generators:
        block = [[fld.zero] * dim for _ in range(dim)]  # block[t][k]: e_t of [e_k, g]
        for k in range(dim):
            for j, c in g.items():
                t, r = basis_product(k, j)
                if t is not None:
                    block[t][k] = block[t][k] + c * r
                t, r = basis_product(j, k)
                if t is not None:
                    block[t][k] = block[t][k] - c * r
        rows += block
    return dim - _dense_rank(rows, fld)


@st.composite
def bicharacters(draw, max_gens=3):
    """A random alternating bicharacter, possibly degenerate, on the span of
    a random generator tuple."""
    group, gens = draw(generator_tuples(max_size=max_gens))
    sub = Subgroup(group, gens)
    _, orders, _ = subgroup_basis(sub)
    n, r = group.exponent, len(orders)
    mat = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            step = n // gcd(orders[i], orders[j])
            u = draw(st.integers(0, gcd(orders[i], orders[j]) - 1))
            mat[i][j], mat[j][i] = (u * step) % n, (-u * step) % n
    return Bicharacter(sub, tuple(map(tuple, mat)))


@settings(max_examples=40, deadline=None)
@given(bicharacters())
def test_center_dimension_of_twisted_algebras(bichar):
    a = build_twisted(bichar)
    assert center_dimension(a) == _dense_center_dimension(a)
    # the center of a twisted group algebra is spanned by the radical
    assert center_dimension(a) == len(bichar._radical_members())


@settings(max_examples=15, deadline=None)
@given(bicharacters(), st.data())
def test_center_dimension_of_tensor_products(bichar, data):
    group = bichar.subgroup.parent
    gen = data.draw(st.sampled_from(group.elements()))
    other = Bicharacter.trivial(Subgroup(group, (gen,)))
    a = tensor(build_twisted(bichar), opposite(build_twisted(other)))
    assert center_dimension(a) == _dense_center_dimension(a)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_center_dimension_of_matrix_algebras(factors, data):
    group = group_new(factors)
    cls = data.draw(st.sampled_from([None] + enumerate_division_classes(group)))
    label = data.draw(st.lists(st.sampled_from(group.elements()), min_size=1, max_size=2))
    x = GroupRingElem.from_dict(group, {g: label.count(g) for g in label})
    a = build_matrix(x, cls)
    assert center_dimension(a) == _dense_center_dimension(a) == 1
