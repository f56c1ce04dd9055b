"""Brute-force finite-dimensional graded algebra computations by structure
constants over Q(zeta_n): the ground truth used to validate the Brauer
arithmetic and small cases of the limit procedures.

Twisted group algebras are built from a canonical bimultiplicative cocycle
splitting of the commutation bicharacter; matrix algebras get elementary
gradings; tensor products multiply structure constants.  The graded
Wedderburn data of a central simple graded algebra is extracted from a
minimal graded left ideal V and its endomorphism algebra E = End_A(V): E acts
on the right of V, products in E are reverse composition, so the commutation
bicharacter of E comes out with the same orientation as the input data.  V
starts as A and shrinks to A*w, for a zero divisor w split off E's identity
block E_e by one root of a minimal polynomial, until dim E_e = 1, which is
when E is graded-division.  V = A*h and E are one object, ``_Endo``, built
on one tracked echelon per degree of A that reduces each e_i*h once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .abelian import (
    FinAbGroup,
    GroupElem,
    Subgroup,
    _addition_table,
    _element_index,
    quotient,
    subgroup_basis,
    subgroup_from_members,
)
from .cyclotomic import CycNum, get_field
from .divalg import (
    Bicharacter,
    DivisionClass,
    _form,
    brauer_mul,
    enumerate_division_classes,
)
from .groupring import GroupRingElem, pushforward

DIM_CAP = 4096
ASSOC_CHECK_DIM = 256


def oracle_conductor(group: FinAbGroup) -> int:
    """Working cyclotomic conductor for explicit computations.

    Splitting minimal ideals needs the m-th roots of +-1 for every m dividing
    the exponent; doubling an even exponent provides them all.
    """
    n = group.exponent
    return n if n % 2 else 2 * n


# ---------------------------------------------------------------------------
# sparse vectors over the cyclotomic field

Vec = dict  # index -> CycNum, zero coefficients absent


def _vec_add_scaled(target: Vec, src: Vec, scale: CycNum) -> None:
    for k, v in src.items():
        nv = target.get(k)
        nv = v * scale if nv is None else nv + v * scale
        if nv.is_zero:
            target.pop(k, None)
        else:
            target[k] = nv


def _vec_scale(src: Vec, scale: CycNum) -> Vec:
    out = {}
    for k, v in src.items():
        nv = v * scale
        if not nv.is_zero:
            out[k] = nv
    return out


def _vec_combine(coeffs: Vec, basis) -> Vec:
    """The combination sum_j coeffs[j] * basis[j]."""
    out: Vec = {}
    for j, c in coeffs.items():
        _vec_add_scaled(out, basis[j], c)
    return out


class _Echelon:
    """Incremental row reduction of sparse vectors over the field.

    Stored rows are normalized to pivot coefficient 1, so reduction needs
    only multiplications.  Given the field, the echelon also tracks, for every
    row, its combination over the tags of the vectors inserted so far.
    """

    def __init__(self, field=None):
        self.rows: list[Vec] = []
        self._pivots: dict = {}  # pivot key -> row index
        self._field = field
        self._combos: list[Vec] = []  # per row, over tags (tracked only)

    def _reduce(self, vec: Vec, combo: Vec | None = None) -> Vec:
        """The remainder of vec; adds to combo the tag combination of every
        row subtracted (when tracking)."""
        vec = dict(vec)
        while vec:
            key = min(vec)
            idx = self._pivots.get(key)
            if idx is None:
                break
            factor = -vec[key]
            _vec_add_scaled(vec, self.rows[idx], factor)
            if combo is not None:
                _vec_add_scaled(combo, self._combos[idx], factor)
        return vec

    def add(self, vec: Vec, tag=None) -> Vec | None:
        """Insert vec under tag.  Returns None when vec adds a row; otherwise
        the relation over tags, summing to zero, that makes vec dependent
        (empty when not tracking)."""
        tracked = self._field is not None
        combo = {tag: self._field.one} if tracked else None
        red = self._reduce(vec, combo)
        if not red:
            return combo if tracked else {}
        piv = min(red)
        lead = red[piv]
        if lead != lead.field.one:
            inv = lead.inverse()
            red = _vec_scale(red, inv)
            if tracked:
                combo = _vec_scale(combo, inv)
        self._pivots[piv] = len(self.rows)
        self.rows.append(red)
        if tracked:
            self._combos.append(combo)
        return None

    def express(self, vec: Vec) -> Vec:
        """The combination over tags equal to vec (tracking echelons only)."""
        combo: Vec = {}
        if self._reduce(vec, combo):
            raise ValueError("vector outside the span")
        return _vec_scale(combo, -self._field.one)

    @property
    def dim(self) -> int:
        return len(self.rows)


def _roots(fld) -> tuple:
    """Every root of unity of the field as powers r^0, r^1, ... of one
    generator r (for odd n, -zeta^((n+1)/2) generates the 2n-th roots of
    unity)."""
    n = fld.n
    gen = fld.zeta(1) if n % 2 == 0 else -fld.zeta((n + 1) // 2)
    out = [fld.one]
    root = gen
    while root != fld.one:
        out.append(root)
        root = root * gen
    return tuple(out)


# ---------------------------------------------------------------------------
# the algebra object


class FiniteGradedAlgebra:
    """A finite-dimensional graded algebra by monomial structure constants.

    ``rows[i][j] = (k, e)`` means basis_i * basis_j = r^e * basis_k, with
    ``roots[e] = r^e`` the roots of unity of the field; missing pairs multiply
    to zero.  The rows are kept as given, not copied.  Indices, exponents,
    grading compatibility and the unit are checked on construction.  The
    constructor finds a generating set of basis indices itself
    (``generating_indices``); up to dimension 256 associativity is also
    checked exactly, on the basis triples whose left factor is one of them.

    Internally a degree is its index in ``group.elements()`` (``deg_index``;
    a degree of another group is an error), combined through the group's
    addition table.
    """

    def __init__(
        self,
        group: FinAbGroup,
        degrees: tuple[GroupElem, ...],
        rows: list[dict],
        unit: Vec,
    ):
        self.group = group
        self.degrees = degrees
        self.dim = len(degrees)
        self.rows = rows
        self.unit = dict(unit)
        self.field = get_field(oracle_conductor(group))
        self.roots = _roots(self.field)
        # a degree of another group, or with unreduced coordinates, has no index
        index = _element_index(group)
        deg = [index.get(d.coords) if d.group == group else None for d in degrees]
        if None in deg:
            raise ValueError("a degree is not an element of the grading group")
        self.deg_index = tuple(deg)
        self.addition = add = _addition_table(group)
        m, dim = len(self.roots), self.dim
        if len(rows) != dim:
            raise ValueError("structure-constant key out of range")
        for row, d in zip(rows, deg):
            add_d = add[d]
            for j, (k, e) in row.items():
                if not 0 <= j < dim:
                    raise ValueError("structure-constant key out of range")
                if not (0 <= k < dim and 0 <= e < m):
                    raise ValueError("structure-constant cell out of range")
                if add_d[deg[j]] != deg[k]:
                    raise ValueError("structure constants violate the grading")
        if any(not 0 <= i < dim for i in self.unit):
            raise ValueError("unit key out of range")
        for i in range(self.dim):
            e_i = {i: self.field.one}
            if self.mul(self.unit, e_i) != e_i or self.mul(e_i, self.unit) != e_i:
                raise ValueError("unit coordinates are wrong")
        self.generating_indices = self._find_generating_indices()
        if self.dim <= ASSOC_CHECK_DIM:
            self._check_associativity()

    def _find_generating_indices(self) -> tuple[int, ...]:
        """The basis indices I, ascending, that left products e_i e_r with i
        an earlier member of I, starting from those members, have not
        reached.  Each basis product is a root of unity times one basis
        element, so every basis element is, up to such a root, a product of
        the e_i, i in I: they generate the algebra.  Adding a member extends
        the closure (its row multiplies every index reached so far) instead
        of restarting it, so the search reads O(|I| dim) cells."""
        members, member_rows = [], []
        seen = [False] * self.dim
        for g in range(self.dim):
            if seen[g]:
                continue
            members.append(g)
            member_rows.append(self.rows[g])
            frontier = [g, *(t for j, (t, _) in self.rows[g].items() if seen[j])]
            while frontier:
                t = frontier.pop()
                if not seen[t]:
                    seen[t] = True
                    frontier += [c[0] for row in member_rows if (c := row.get(t))]
        return tuple(members)

    def _check_associativity(self):
        """Exact check on the basis triples (i, j, k) with i in
        ``generating_indices``.

        That is enough because left products e_i e_r, i in I, reach every
        basis index from I.  The elements x with (xy)z = x(yz) for all y, z
        form a subspace L.  The check puts each e_i in L, and L is closed
        under x -> e_i x: for x in L,
        ((e_i x)y)z = (e_i(xy))z = e_i((xy)z) = e_i(x(yz)) = (e_i x)(yz).  So
        L holds every basis element the left products reach, and L = A.

        A product e_i e_j = r^a e_t is the integer t*m + a, with m the order
        of the roots of unity, and -1 for a zero product; (e_i e_j) e_k and
        e_i (e_j e_k) must be equal integers for every k."""
        m = len(self.roots)
        dim = self.dim
        # prod[i][j] encodes e_i e_j; the extra last row and column stay -1,
        # so a zero product used as an index reads zero again
        prod = [[-1] * (dim + 1) for _ in range(dim + 1)]
        for row, p in zip(self.rows, prod):
            for j, (t, a) in row.items():
                p[j] = t * m + a
        # shift[a][code] multiplies the product a code encodes by r^a
        codes = range(dim * m)
        shift = [[c - c % m + (c + a) % m for c in codes] + [-1] for a in range(m)]
        for i in self.generating_indices:
            row_i = prod[i]
            for j in range(dim):
                # (e_i e_j) e_k = r^a e_t e_k; e_i (e_j e_k) = r^b e_i e_u, with
                # (t, a) = divmod(code, m): a zero code -1 reads row -1, shift[m - 1]
                t, a = divmod(row_i[j], m)
                by_a = shift[a]
                left = [by_a[c] for c in prod[t]]
                right = [shift[c % m][row_i[c // m]] for c in prod[j]]
                if left != right:
                    k = next(k for k in range(dim) if left[k] != right[k])
                    raise ValueError(
                        f"associativity fails on basis triple ({i},{j},{k})"
                    )

    def _add_term(self, out: Vec, k: int, e: int, c: CycNum) -> None:
        """out += c * r^e * basis_k."""
        if e:
            c = c * self.roots[e]
        nv = out.get(k)
        if nv is not None:
            c = nv + c
            if c.is_zero:
                del out[k]
                return
        out[k] = c

    def mul(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            row = self.rows[i]
            for j, b in v.items():
                cell = row.get(j)
                if cell:
                    self._add_term(out, *cell, a * b)
        return out

    def mul_basis(self, i: int, v: Vec) -> Vec:
        out: Vec = {}
        row = self.rows[i]
        for j, b in v.items():
            cell = row.get(j)
            if cell:
                self._add_term(out, *cell, b)
        return out

    def vec_degree(self, v: Vec) -> int | None:
        """The degree index of a homogeneous vector (None for 0)."""
        deg = None
        for k in v:
            if deg is None:
                deg = self.deg_index[k]
            elif self.deg_index[k] != deg:
                raise ValueError("vector is not homogeneous")
        return deg

    def basis_vec(self, i: int) -> Vec:
        return {i: self.field.one}

    @cached_property
    def component_indices(self) -> dict[int, list[int]]:
        """Basis indices by degree index, degrees in ascending index order."""
        out: dict[int, list[int]] = {}
        for i in sorted(range(self.dim), key=self.deg_index.__getitem__):
            out.setdefault(self.deg_index[i], []).append(i)
        return out

    def __repr__(self) -> str:
        return f"FiniteGradedAlgebra(dim {self.dim} over {self.group})"


# ---------------------------------------------------------------------------
# constructions


def build_twisted(bichar: Bicharacter) -> FiniteGradedAlgebra:
    """The twisted group algebra of the bicharacter's subgroup.

    The cocycle is the lower-triangular bimultiplicative splitting over the
    canonical basis, which realizes exactly the requested commutation values
    (asserted through the construction-time associativity check and the
    round-trip tests, not trusted).
    """
    sub = bichar.subgroup
    G = sub.parent
    n = G.exponent
    fld = get_field(oracle_conductor(G))
    # the field's roots of unity are the 2n-th ones, so zeta_n = r^2
    gens, orders, coords = subgroup_basis(sub)
    elems = sub.sorted_elements()
    if len(elems) > DIM_CAP:
        raise ValueError("dimension cap exceeded")
    # each subgroup element's basis position, keyed by its index in G (the
    # identity's is 0)
    index = _element_index(G)
    pos = {index[g.coords]: p for p, g in enumerate(elems)}
    add = _addition_table(G)
    words = [coords[g] for g in elems]
    r = len(gens)
    lower = [row[:i] + (0,) * (r - i) for i, row in enumerate(bichar.matrix)]
    rows: list[dict] = [{} for _ in elems]
    for s, p in pos.items():
        for t, q in pos.items():
            rows[p][q] = (pos[add[s][t]], 2 * _form(lower, words[p], words[q], n))
    return FiniteGradedAlgebra(G, tuple(elems), rows, {pos[0]: fld.one})


def build_matrix(
    x: GroupRingElem, division: DivisionClass | None = None
) -> FiniteGradedAlgebra:
    """M_x over the base field or over a graded-division algebra D.

    The matrix units E_pq multiply as E_pq E_qr = E_pr and have degree
    gamma_p * gamma_q^{-1} for the tuple gamma realizing the multiset x; over
    D the algebra is their tensor product with D.
    """
    if x.is_zero:
        raise ValueError("matrix multiset must be nonzero")
    if not x.is_nonneg_integer:
        raise ValueError("matrix multiset must be a nonnegative integer element")
    G = x.group
    size = sum(x.num)
    inner_dim = division.support.order if division is not None else 1
    # bounded before gamma lists every copy of every element
    if size * size * inner_dim > DIM_CAP:
        raise ValueError("dimension cap exceeded")
    gamma = [g for g, c in x.coeffs for _ in range(int(c))]
    fld = get_field(oracle_conductor(G))
    degrees = tuple(gp * gq.inverse() for gp in gamma for gq in gamma)
    rows = [
        {q * size + r: (p * size + r, 0) for r in range(size)}
        for p in range(size)
        for q in range(size)
    ]
    unit = {p * size + p: fld.one for p in range(size)}
    units = FiniteGradedAlgebra(G, degrees, rows, unit)
    if division is None:
        return units
    return tensor(units, build_twisted(division.bichar))


def tensor(a: FiniteGradedAlgebra, b: FiniteGradedAlgebra) -> FiniteGradedAlgebra:
    """Graded tensor product; degrees multiply, constants multiply."""
    if a.group != b.group:
        raise ValueError("tensor factors graded by different groups")
    dim = a.dim * b.dim
    if dim > DIM_CAP:
        raise ValueError("dimension cap exceeded")
    bd = b.dim
    m = len(a.roots)
    elems, add = a.group.elements(), a.addition
    degrees = tuple(elems[add[x][y]] for x in a.deg_index for y in b.deg_index)
    rows = [
        {j1 * bd + j2: (k1 * bd + k2, (e1 + e2) % m)
         for j1, (k1, e1) in row1.items() for j2, (k2, e2) in row2.items()}
        for row1 in a.rows for row2 in b.rows
    ]
    unit = {i * bd + j: c1 * c2 for i, c1 in a.unit.items() for j, c2 in b.unit.items()}
    return FiniteGradedAlgebra(a.group, degrees, rows, unit)


def opposite(a: FiniteGradedAlgebra) -> FiniteGradedAlgebra:
    """The opposite algebra with the same grading."""
    rows: list[dict] = [{} for _ in range(a.dim)]
    for i, row in enumerate(a.rows):
        for j, cell in row.items():
            rows[j][i] = cell
    return FiniteGradedAlgebra(a.group, a.degrees, rows, a.unit)


# ---------------------------------------------------------------------------
# center and simplicity


def center_dimension(a: FiniteGradedAlgebra) -> int:
    """Dimension of the center: the commutant of the basis elements e_i, i in
    ``generating_indices``, which generate the algebra, so it is exact."""
    # unknowns: coefficients z_k; constraints: z*e_i - e_i*z = 0 per i, where
    # e_k*e_i and e_i*e_k are the cells (k, i) and (i, k), which cancel when
    # they are equal
    signs = (a.field.one, -a.field.one)
    rows: dict = {}
    for i in a.generating_indices:
        for k in range(a.dim):
            cells = a.rows[k].get(i), a.rows[i].get(k)
            if cells[0] == cells[1]:
                continue
            diff: Vec = {}
            for cell, sign in zip(cells, signs):
                if cell:
                    a._add_term(diff, *cell, sign)
            for out, c in diff.items():
                rows.setdefault((i, out), {})[k] = c
    ech = _Echelon()
    for key in sorted(rows):
        ech.add(rows[key])
    return a.dim - ech.dim


def is_central_simple(a: FiniteGradedAlgebra) -> bool:
    return center_dimension(a) == 1


# ---------------------------------------------------------------------------
# minimal graded left ideals and their endomorphism algebras


class _Endo:
    """A graded cyclic left submodule V = A*h and its endomorphism algebra
    W = End_A(V), with reverse-composition product.

    One tracked echelon per degree d of A reduces the products e_i*h, e_i of
    degree d: its rows are V's basis in degree d + deg h (``blocks``, keyed
    by that degree index), its relations span ann(h) in degree d, and its
    ``express`` is the preimage under a -> a*h.  Elements of W are identified
    with their value at h: the carrier is {w in V : ann(h) * w = 0}, the
    product of w and w' is a_w * w' for any a_w with a_w*h = w, and the
    identity is h itself.
    """

    def __init__(self, alg: FiniteGradedAlgebra, h: Vec):
        self.alg = alg
        self.h_deg = alg.vec_degree(h)
        self.ann: list[Vec] = []
        self.blocks: dict[int, _Echelon] = {}
        for deg, indices in alg.component_indices.items():
            ech = _Echelon(alg.field)
            for i in indices:
                relation = ech.add(alg.mul_basis(i, h), i)
                if relation is not None:
                    self.ann.append(relation)
            self.blocks[alg.addition[deg][self.h_deg]] = ech
        self.dim = alg.dim - len(self.ann)  # of V
        # W per degree index of V: the combinations of V's basis killed by ann
        self.w_blocks: dict[int, list[Vec]] = {}
        for deg in sorted(self.blocks):
            vecs = self.blocks[deg].rows
            ech = _Echelon(alg.field)
            ws = []
            for j, v in enumerate(vecs):
                images = {
                    (t, out): c
                    for t, nvec in enumerate(self.ann)
                    for out, c in alg.mul(nvec, v).items()
                }
                relation = ech.add(images, j)
                if relation is not None:
                    w = _vec_combine(relation, vecs)
                    if w:
                        ws.append(w)
            if ws:
                self.w_blocks[deg] = ws
        self.identity = dict(h)
        self._h_inverse = alg.addition[self.h_deg].index(0)

    def endo_degree(self, w_deg: int) -> int:
        """The degree index of the endomorphism whose value at h has w_deg."""
        return self.alg.addition[w_deg][self._h_inverse]

    def support(self) -> list[GroupElem]:
        elems = self.alg.group.elements()
        return [elems[d] for d in sorted(map(self.endo_degree, self.w_blocks))]

    def preimage(self, w: Vec) -> Vec:
        """Some algebra element a with a*h = w (w must lie in A*h)."""
        return self.blocks[self.alg.vec_degree(w)].express(w)

    def product(self, w1: Vec, w2: Vec) -> Vec:
        """Reverse-composition product, evaluated at h."""
        return self.alg.mul(self.preimage(w1), w2)


def _min_poly(endo: _Endo, w: Vec, cap: int) -> tuple[list[CycNum], list[Vec]]:
    """The minimal polynomial's coefficients (ascending) of w in the endo
    algebra, and the powers w^0, ..., w^(deg - 1) below its degree."""
    field = endo.alg.field
    ech = _Echelon(field)
    powers: list[Vec] = []
    power = dict(endo.identity)
    for deg in range(cap + 1):
        relation = ech.add(power, deg)
        if relation is not None:
            return [relation.get(k, field.zero) for k in range(deg + 1)], powers
        powers.append(power)
        power = endo.product(power, w)
    raise AssertionError("minimal polynomial not found below the dimension cap")


def _poly_deflate(coeffs: list[CycNum], root: CycNum) -> tuple[list[CycNum], CycNum]:
    """p divided by (x - root): the quotient and the remainder p(root)."""
    out = [None] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    return out, carry


def _find_zero_divisor(endo: _Endo) -> Vec | None:
    """A nonzero, non-invertible element of W = End_A(V) in its identity block
    W_e, or None when W is graded-division.

    W is graded-simple, so W = M_k(D) for a graded-division D, with k
    orthogonal idempotents in W_e; W is graded-division exactly when
    dim W_e = 1.  Otherwise some u in W_e's basis is not a scalar, so its
    minimal polynomial p has degree at least 2.  For a root r of p in the
    field, p = (x - r) q with deg q < deg p, so q(u) != 0, while
    q(u) (u - r) = p(u) = 0: q(u) is a zero divisor, hence not invertible,
    and A*q(u) is a nonzero proper submodule of V.  The roots tried are the
    field's roots of unity and 0 (complete for the validated scope)."""
    ws = endo.w_blocks[endo.h_deg]
    if len(ws) == 1:
        return None
    for u in ws:
        p, powers = _min_poly(endo, u, len(ws))
        if len(p) <= 2:
            continue
        for root in (*endo.alg.roots, endo.alg.field.zero):
            q, remainder = _poly_deflate(p, root)
            if remainder.is_zero:
                return _vec_combine(dict(enumerate(q)), powers)
    raise RuntimeError(
        "could not split the endomorphism algebra over this cyclotomic "
        "field; input outside the validated scope"
    )


def minimal_graded_left_ideal(a: FiniteGradedAlgebra) -> _Endo:
    """A minimal graded left ideal V of a central simple graded algebra A,
    with its endomorphism algebra W.

    Starting from V = A, V shrinks to A*w, the image of a nonzero
    non-invertible w in W, until W is graded-division; A is
    graded-semisimple, so V is then minimal.  dim V falls at every step, so
    there are at most dim A steps; a step that does not shrink V is an
    error."""
    endo = _Endo(a, a.unit)
    while (zd := _find_zero_divisor(endo)) is not None:
        smaller = _Endo(a, zd)
        if smaller.dim >= endo.dim:
            raise RuntimeError("a zero divisor did not shrink the left ideal")
        endo = smaller
    return endo


@dataclass(frozen=True)
class WedderburnInvariant:
    """Canonical graded Wedderburn data: (support, commutation bicharacter,
    shift-normalized coset multiset of the elementary part)."""

    support: Subgroup
    bichar: Bicharacter
    coset_multiset: tuple[tuple[tuple[int, ...], int], ...]
    quotient_factors: tuple[int, ...]


def normalize_coset_multiset(counts: GroupRingElem) -> tuple:
    """Canonical representative of an integer multiset over a group modulo
    shift: the least of its translates' (coords, count) pairs, listed in
    coordinate order.  Row h of the addition table is the translate by the
    inverse of element h, so the rows give every translate once."""
    if not counts.is_integer:
        raise ValueError("a coset multiset has integer counts")
    coords = [g.coords for g in counts.group.elements()]
    num = counts.num
    return min(
        tuple((coords[i], num[k]) for i, k in enumerate(row) if num[k])
        for row in _addition_table(counts.group)
    )


def graded_simple_decompose(a: FiniteGradedAlgebra) -> WedderburnInvariant:
    """Extract (T, beta, x mod T up to shift) from a central simple graded
    algebra by minimal-ideal linear algebra."""
    if not is_central_simple(a):
        raise ValueError("input is not central simple")
    endo = minimal_graded_left_ideal(a)
    sub = subgroup_from_members(a.group, endo.support())
    gens, orders, _ = subgroup_basis(sub)
    elems = a.group.elements()
    by_endo_degree = {
        elems[endo.endo_degree(d)]: vs[0] for d, vs in endo.w_blocks.items()
    }
    n = a.group.exponent
    fld = a.field
    scale = fld.n // n
    rows = []
    for gi in gens:
        row = []
        for gj in gens:
            p1 = endo.product(by_endo_degree[gi], by_endo_degree[gj])
            p2 = endo.product(by_endo_degree[gj], by_endo_degree[gi])
            key = min(p2.keys())
            lam = p1[key] / p2[key]
            if _vec_scale(p2, lam) != p1:
                raise RuntimeError("commutation ratio is not scalar")
            # the commutation value of an honest graded algebra lies in mu_n
            exp = next(k for k in range(n) if fld.zeta(k * scale) == lam)
            row.append(exp)
        rows.append(tuple(row))
    bichar = Bicharacter(sub, tuple(rows))
    # V is free over the graded-division endo algebra, whose components on T
    # are one-dimensional (every W block is): a basis vector of degree d spans
    # one dimension in each degree of dT, so a coset holds |T| per basis vector
    qgroup, image = quotient(a.group, sub)
    dims = GroupRingElem.from_terms(a.group, ((d, b.dim) for d, b in endo.blocks.items()))
    counts = pushforward(dims, qgroup, image).scale(Fraction(1, sub.order))
    if not counts.is_integer:
        raise RuntimeError("coset dimension off |T|")
    if a.dim != counts.size() ** 2 * sub.order:
        raise RuntimeError("dimension check failed")
    return WedderburnInvariant(
        support=sub,
        bichar=bichar,
        coset_multiset=normalize_coset_multiset(counts),
        quotient_factors=qgroup.factors,
    )


def graded_iso_finite(a: FiniteGradedAlgebra, b: FiniteGradedAlgebra) -> bool:
    """Graded isomorphism of central simple graded algebras via invariants."""
    return graded_simple_decompose(a) == graded_simple_decompose(b)


# ---------------------------------------------------------------------------
# cross-validation against the Brauer arithmetic


def expected_tensor_invariant(
    d1: DivisionClass, d2: DivisionClass
) -> WedderburnInvariant:
    """The invariant of D1 (x) D2^op predicted by the Brauer arithmetic."""
    e_class, y, _h = brauer_mul(d1, d2)
    qgroup, image = quotient(d1.group, e_class.support)
    return WedderburnInvariant(
        support=e_class.support,
        bichar=e_class.bichar,
        coset_multiset=normalize_coset_multiset(pushforward(y, qgroup, image)),
        quotient_factors=qgroup.factors,
    )


def observed_tensor_invariant(
    d1: DivisionClass, d2: DivisionClass
) -> WedderburnInvariant:
    """The invariant of the explicitly constructed tensor product."""
    prod_alg = tensor(build_twisted(d1.bichar), opposite(build_twisted(d2.bichar)))
    return graded_simple_decompose(prod_alg)


def cross_validate_group(group: FinAbGroup) -> list[str]:
    """Compare Brauer arithmetic with explicit tensor decompositions over all
    class pairs of the group; returns human-readable mismatch reports."""
    failures = []
    classes = enumerate_division_classes(group)
    for d1 in classes:
        for d2 in classes:
            if expected_tensor_invariant(d1, d2) != observed_tensor_invariant(d1, d2):
                failures.append(
                    f"{group}: class pair "
                    f"(T order {d1.support.order}, T order {d2.support.order}) "
                    f"disagrees with the explicit decomposition"
                )
    return failures


def round_trip_failures(group: FinAbGroup) -> list[str]:
    """decompose(build_twisted(T, beta)) must return (T, beta, singleton)."""
    failures = []
    for cls in enumerate_division_classes(group):
        inv = graded_simple_decompose(build_twisted(cls.bichar))
        singleton_ok = len(inv.coset_multiset) == 1 and inv.coset_multiset[0][1] == 1
        if (
            inv.support.elements != cls.support.elements
            or inv.bichar != cls.bichar
            or not singleton_ok
        ):
            failures.append(
                f"{group}: twisted algebra round trip failed for class with "
                f"support order {cls.support.order}"
            )
    return failures
