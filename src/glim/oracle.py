"""Brute-force finite-dimensional graded algebra computations by structure
constants over Q(zeta_n): the ground truth used to validate the Brauer
arithmetic and small cases of the limit procedures.

Twisted group algebras are built from a canonical bimultiplicative cocycle
splitting of the commutation bicharacter; matrix algebras get elementary
gradings; tensor products multiply structure constants.  The graded
Wedderburn data of a central simple graded algebra is extracted from a
minimal graded left ideal V and its endomorphism algebra E = End_A(V): E acts
on the right of V, products in E are reverse composition, so the commutation
bicharacter of E comes out with the same orientation as the input data.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .abelian import (
    FinAbGroup,
    GroupElem,
    Subgroup,
    quotient,
    subgroup_basis,
)
from .cyclotomic import CycNum, get_field
from .divalg import Bicharacter, DivisionClass, brauer_mul, enumerate_division_classes
from .groupring import GroupRingElem

DEFAULT_DIM_CAP = 4096
ASSOC_CHECK_DIM = 64


def _dim_cap() -> int:
    raw = os.environ.get("GLIM_MAX_DIM")
    if raw is None:
        return DEFAULT_DIM_CAP
    return int(raw)


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


def _root_exponents(fld) -> dict:
    """Every root of unity of the field, keyed by itself, with its exponent
    over a generator of the cyclic group they form (for odd n,
    -zeta^((n+1)/2) generates the 2n-th roots of unity)."""
    n = fld.n
    gen = fld.zeta(1) if n % 2 == 0 else -fld.zeta((n + 1) // 2)
    out: dict = {}
    root = fld.one
    while root not in out:
        out[root] = len(out)
        root = root * gen
    return out


# ---------------------------------------------------------------------------
# the algebra object


class FiniteGradedAlgebra:
    """A finite-dimensional graded algebra by structure constants.

    ``table[(i, j)]`` maps output index k to the coefficient of basis_k in
    basis_i * basis_j; missing pairs multiply to zero.  The table must be
    monomial: every stored cell holds exactly one nonzero entry.  Grading
    compatibility is checked on construction; up to dimension 64 every
    constant must also be a root of unity, and associativity is checked
    exactly on all basis triples.
    """

    def __init__(
        self,
        group: FinAbGroup,
        degrees: tuple[GroupElem, ...],
        table: dict,
        unit: Vec,
        generators: tuple[Vec, ...] | None = None,
    ):
        self.group = group
        self.degrees = degrees
        self.dim = len(degrees)
        self.table = table
        self.unit = dict(unit)
        self.field = get_field(oracle_conductor(group))
        if generators is None:
            generators = tuple({i: self.field.one} for i in range(self.dim))
        self.generators = tuple(dict(g) for g in generators)
        for (i, j), cell in table.items():
            if len(cell) != 1 or next(iter(cell.values())).is_zero:
                raise ValueError(
                    "a structure-constant cell must hold one nonzero entry"
                )
            (k,) = cell
            if degrees[k] != degrees[i] * degrees[j]:
                raise ValueError("structure constants violate the grading")
        for i in range(self.dim):
            e_i = {i: self.field.one}
            if self.mul(self.unit, e_i) != e_i or self.mul(e_i, self.unit) != e_i:
                raise ValueError("unit coordinates are wrong")
        if self.dim <= ASSOC_CHECK_DIM:
            self._check_associativity()

    def _check_associativity(self):
        """Exact check on all basis triples.  A product e_i e_j = zeta^a e_t
        is the integer t*m + a, with m the order of the roots of unity, and
        -1 for a zero product; (e_i e_j) e_k and e_i (e_j e_k) must be equal
        integers for every k."""
        exponents = _root_exponents(self.field)
        m = len(exponents)
        dim = self.dim
        # prod[i][j] encodes e_i e_j; the extra last row and column stay -1,
        # so a zero product used as an index reads zero again
        prod = [[-1] * (dim + 1) for _ in range(dim + 1)]
        for (i, j), cell in self.table.items():
            ((t, c),) = cell.items()
            a = exponents.get(c)
            if a is None:
                raise ValueError("structure constant is not a root of unity")
            prod[i][j] = t * m + a
        # shift[a][code] multiplies the product a code encodes by zeta^a
        codes = range(dim * m)
        shift = [[c - c % m + (c + a) % m for c in codes] + [-1] for a in range(m)]
        # code = t*m + b as the pair (t, shift[b]); -1 gives (-1, shift[m - 1])
        split = [[(c // m, shift[c % m]) for c in row] for row in prod]
        for i in range(dim):
            row_i = prod[i]
            for j in range(dim):
                # (e_i e_j) e_k = zeta^a e_t e_k; e_i (e_j e_k) = zeta^b e_i e_u
                t, by_a = split[i][j]
                left = [by_a[c] for c in prod[t]]
                right = [by_b[row_i[u]] for u, by_b in split[j]]
                if left != right:
                    k = next(k for k in range(dim) if left[k] != right[k])
                    raise ValueError(
                        f"associativity fails on basis triple ({i},{j},{k})"
                    )

    def mul(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            for j, b in v.items():
                cell = self.table.get((i, j))
                if cell:
                    _vec_add_scaled(out, cell, a * b)
        return out

    def mul_basis(self, i: int, v: Vec) -> Vec:
        out: Vec = {}
        for j, b in v.items():
            cell = self.table.get((i, j))
            if cell:
                _vec_add_scaled(out, cell, b)
        return out

    def vec_degree(self, v: Vec) -> GroupElem | None:
        """The common degree of a homogeneous vector (None for 0)."""
        deg = None
        for k in v:
            if deg is None:
                deg = self.degrees[k]
            elif self.degrees[k] != deg:
                raise ValueError("vector is not homogeneous")
        return deg

    def monomial_invertible(self, i: int) -> bool:
        """Exact invertibility of a basis element."""
        cached = getattr(self, "_mono_inv", None)
        if cached is None:
            cached = {}
            self._mono_inv = cached
        if i in cached:
            return cached[i]
        ok = True
        seen = set()
        for j in range(self.dim):
            cell = self.table.get((j, i))
            if not cell:
                ok = False
                break
            k = next(iter(cell))
            if k in seen:
                ok = False
                break
            seen.add(k)
        cached[i] = ok
        return ok

    def basis_vec(self, i: int) -> Vec:
        return {i: self.field.one}

    def component_indices(self) -> dict[GroupElem, list[int]]:
        out: dict[GroupElem, list[int]] = {}
        for i, d in enumerate(self.degrees):
            out.setdefault(d, []).append(i)
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
    big = oracle_conductor(G)
    fld = get_field(big)
    scale = big // n
    gens, orders, coords = subgroup_basis(sub)
    elems = sub.sorted_elements()
    index = {g: i for i, g in enumerate(elems)}
    r = len(gens)

    def cocycle_exp(cs, ct) -> int:
        total = 0
        for i in range(r):
            for j in range(r):
                if i > j:
                    total += bichar.matrix[i][j] * cs[i] * ct[j]
        return total % n

    table: dict = {}
    for s in elems:
        for t in elems:
            exp = cocycle_exp(coords[s], coords[t])
            table[(index[s], index[t])] = {index[s * t]: fld.zeta(exp * scale)}
    unit = {index[G.identity]: fld.one}
    gen_vecs = tuple({index[g]: fld.one} for g in gens) or (dict(unit),)
    if len(elems) > _dim_cap():
        raise ValueError("dimension cap exceeded")
    return FiniteGradedAlgebra(G, tuple(elems), table, unit, generators=gen_vecs)


def _as_bichar(division) -> Bicharacter | None:
    if division is None:
        return None
    if isinstance(division, DivisionClass):
        return division.bichar
    if isinstance(division, Bicharacter):
        return division
    raise TypeError("expected a division class or bicharacter")


def build_matrix(x: GroupRingElem, division=None) -> FiniteGradedAlgebra:
    """M_x over the base field or over a graded-division algebra.

    Basis elements are matrix units tagged with a homogeneous division-algebra
    element; deg E_pq(d) = gamma_p * deg(d) * gamma_q^{-1} for the tuple gamma
    realizing the multiset x.
    """
    if x.is_zero:
        raise ValueError("matrix multiset must be nonzero")
    if not x.is_nonneg_integer:
        raise ValueError("matrix multiset must be a nonnegative integer element")
    G = x.group
    bichar = _as_bichar(division)
    inner = build_twisted(bichar) if bichar is not None else None
    gamma: list[GroupElem] = []
    for g, c in x.coeffs:
        gamma.extend([g] * int(c))
    size = len(gamma)
    inner_dim = inner.dim if inner else 1
    dim = size * size * inner_dim
    if dim > _dim_cap():
        raise ValueError("dimension cap exceeded")
    fld = get_field(oracle_conductor(G))

    def idx(p: int, q: int, t: int) -> int:
        return (p * size + q) * inner_dim + t

    degrees = []
    for p in range(size):
        for q in range(size):
            for t in range(inner_dim):
                d = inner.degrees[t] if inner else G.identity
                degrees.append(gamma[p] * d * gamma[q].inverse())
    table: dict = {}
    for p in range(size):
        for q in range(size):
            for r in range(size):
                for s in range(inner_dim):
                    for t in range(inner_dim):
                        if inner:
                            cell = inner.table.get((s, t), {})
                            out = {
                                idx(p, r, k): c for k, c in cell.items()
                            }
                        else:
                            out = {idx(p, r, 0): fld.one}
                        table[(idx(p, q, s), idx(q, r, t))] = out
    unit: Vec = {}
    unit_inner = inner.unit if inner else {0: fld.one}
    for p in range(size):
        for t, c in unit_inner.items():
            unit[idx(p, p, t)] = c
    gens: list[Vec] = []
    for p in range(size - 1):
        gens.append({idx(p, p + 1, t): c for t, c in unit_inner.items()})
        gens.append({idx(p + 1, p, t): c for t, c in unit_inner.items()})
    if inner:
        for gvec in inner.generators:
            gens.append({idx(0, 0, t): c for t, c in gvec.items()})
    if not gens:
        gens = [dict(unit)]
    return FiniteGradedAlgebra(G, tuple(degrees), table, unit, generators=tuple(gens))


def tensor(a: FiniteGradedAlgebra, b: FiniteGradedAlgebra) -> FiniteGradedAlgebra:
    """Graded tensor product; degrees multiply, constants multiply."""
    if a.group != b.group:
        raise ValueError("tensor factors graded by different groups")
    dim = a.dim * b.dim
    if dim > _dim_cap():
        raise ValueError("dimension cap exceeded")

    def idx(i: int, j: int) -> int:
        return i * b.dim + j

    degrees = tuple(
        a.degrees[i] * b.degrees[j] for i in range(a.dim) for j in range(b.dim)
    )
    table: dict = {}
    for (i1, j1), cell_a in a.table.items():
        for (i2, j2), cell_b in b.table.items():
            out = {}
            for k1, c1 in cell_a.items():
                for k2, c2 in cell_b.items():
                    v = c1 * c2
                    if not v.is_zero:
                        out[idx(k1, k2)] = v
            if out:
                table[(idx(i1, i2), idx(j1, j2))] = out
    unit: Vec = {}
    for i, c1 in a.unit.items():
        for j, c2 in b.unit.items():
            unit[idx(i, j)] = c1 * c2

    def embed(u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, c1 in u.items():
            for j, c2 in v.items():
                out[idx(i, j)] = c1 * c2
        return out

    gens = [embed(g, b.unit) for g in a.generators]
    gens += [embed(a.unit, g) for g in b.generators]
    return FiniteGradedAlgebra(a.group, degrees, table, unit, generators=tuple(gens))


def opposite(a: FiniteGradedAlgebra) -> FiniteGradedAlgebra:
    """The opposite algebra with the same grading."""
    table = {(j, i): dict(cell) for (i, j), cell in a.table.items()}
    return FiniteGradedAlgebra(
        a.group, a.degrees, table, a.unit, generators=a.generators
    )


def algebra_of_class(d: DivisionClass) -> FiniteGradedAlgebra:
    return build_twisted(d.bichar)


# ---------------------------------------------------------------------------
# center and simplicity


def center_dimension(a: FiniteGradedAlgebra) -> int:
    """Dimension of the center, via commutation with the stored generators."""
    # unknowns: coefficients z_k; constraints: z*g - g*z = 0 per generator
    rows: dict = {}
    for gi, gvec in enumerate(a.generators):
        for k in range(a.dim):
            e_k = {k: a.field.one}
            diff = a.mul(e_k, gvec)
            _vec_add_scaled(diff, a.mul(gvec, e_k), -a.field.one)
            for out, c in diff.items():
                rows.setdefault((gi, out), {})[k] = c
    ech = _Echelon()
    for key in sorted(rows):
        ech.add(rows[key])
    return a.dim - ech.dim


def is_central_simple(a: FiniteGradedAlgebra) -> bool:
    return center_dimension(a) == 1


# ---------------------------------------------------------------------------
# minimal graded left ideals and their endomorphism algebras


class _Module:
    """A graded cyclic left submodule V = A*h with per-degree echelon bases."""

    def __init__(self, alg: FiniteGradedAlgebra, h: Vec):
        self.alg = alg
        self.h = dict(h)
        self.h_deg = alg.vec_degree(h)
        self.blocks: dict[GroupElem, _Echelon] = {}
        order = sorted(range(alg.dim), key=lambda i: alg.degrees[i].coords)
        for i in order:
            w = alg.mul_basis(i, h)
            if not w:
                continue
            deg = alg.degrees[i] * self.h_deg
            self.blocks.setdefault(deg, _Echelon()).add(w)
        self.dim = sum(e.dim for e in self.blocks.values())

    def homogeneous_basis(self):
        for deg in sorted(self.blocks, key=lambda d: d.coords):
            for row in self.blocks[deg].rows:
                yield deg, row


class _Endo:
    """End_A(V) for cyclic graded V = A*h, with reverse-composition product.

    Elements are identified with their value at h: the carrier is
    W = {w in V : ann(h) * w = 0}, the product of w and w' is a_w * w' for any
    a_w with a_w*h = w, and the identity is h itself.
    """

    def __init__(self, alg: FiniteGradedAlgebra, mod: _Module):
        self.alg = alg
        self.mod = mod
        h = mod.h
        # homogeneous annihilator basis, per degree block of A; each block's
        # tracked echelon also yields preimages under a -> a*h
        comps = alg.component_indices()
        self.ann: list[Vec] = []
        self._preimage_data: dict[GroupElem, _Echelon] = {}
        for deg in sorted(comps, key=lambda d: d.coords):
            ech = _Echelon(alg.field)
            for i in comps[deg]:
                relation = ech.add(alg.mul_basis(i, h), i)
                if relation is not None:
                    self.ann.append(relation)
            self._preimage_data[deg * mod.h_deg] = ech
        # W per degree of V: the combinations of V's basis killed by ann
        self.w_blocks: dict[GroupElem, list[Vec]] = {}
        for deg in sorted(mod.blocks, key=lambda d: d.coords):
            vecs = mod.blocks[deg].rows
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

    def endo_degree(self, w_deg: GroupElem) -> GroupElem:
        return w_deg * self.mod.h_deg.inverse()

    def support(self) -> list[GroupElem]:
        return sorted(
            (self.endo_degree(d) for d in self.w_blocks), key=lambda g: g.coords
        )

    def preimage(self, w: Vec) -> Vec:
        """Some algebra element a with a*h = w (w must lie in A*h)."""
        return self._preimage_data[self.alg.vec_degree(w)].express(w)

    def product(self, w1: Vec, w2: Vec) -> Vec:
        """Reverse-composition product, evaluated at h."""
        return self.alg.mul(self.preimage(w1), w2)

    def _scalar_of(self, w: Vec) -> CycNum | None:
        ident = self.identity
        key = min(ident.keys())
        if key not in w:
            return None
        lam = w[key] / ident[key]
        scaled = _vec_scale(ident, lam)
        return lam if scaled == w else None

    def is_invertible(self, w: Vec) -> bool:
        if len(w) == 1 and self.alg.monomial_invertible(next(iter(w))):
            return True
        probe = _Module(self.alg, w)
        return probe.dim == self.mod.dim

    def inverse(self, w: Vec) -> Vec:
        """Solve product(w, w') = identity for w' in W."""
        a_w = self.preimage(w)
        basis = [v for vs in self.w_blocks.values() for v in vs]
        ech = _Echelon(self.alg.field)
        for j, v in enumerate(basis):
            ech.add(self.alg.mul(a_w, v), j)
        return _vec_combine(ech.express(self.identity), basis)


def _root_candidates(field, coeffs: list[CycNum]):
    """Candidate roots in the field: +-roots of unity and rational roots."""
    n = field.n
    for k in range(n):
        yield field.zeta(k)
        yield -field.zeta(k)
    if all(c.is_rational for c in coeffs):
        lead = coeffs[-1].as_rational()
        const = coeffs[0].as_rational()
        if const == 0:
            yield field.zero
        elif lead != 0:
            num = abs(const.numerator * lead.denominator)
            den = abs(const.denominator * lead.numerator)
            for p in _divisors(num):
                for q in _divisors(den):
                    yield field.scalar(Fraction(p, q))
                    yield field.scalar(Fraction(-p, q))


def _divisors(v: int) -> list[int]:
    """The positive divisors of |v| in ascending order ([1] for 0), found in
    pairs up to the square root."""
    v = abs(v)
    if v == 0:
        return [1]
    low, high = [], []
    d = 1
    while d * d <= v:
        if v % d == 0:
            low.append(d)
            if d * d != v:
                high.append(v // d)
        d += 1
    return low + high[::-1]


def _min_poly(endo: _Endo, w: Vec, cap: int) -> list[CycNum]:
    """Minimal polynomial coefficients (ascending) of w in the endo algebra."""
    field = endo.alg.field
    ech = _Echelon(field)
    power = dict(endo.identity)
    for deg in range(cap + 1):
        relation = ech.add(power, deg)
        if relation is not None:
            return [relation.get(k, field.zero) for k in range(deg + 1)]
        power = endo.product(power, w)
    raise AssertionError("minimal polynomial not found below the dimension cap")


def _eval_poly(endo: _Endo, coeffs: list[CycNum], w: Vec) -> Vec:
    out: Vec = {}
    power = dict(endo.identity)
    for c in coeffs:
        if not c.is_zero:
            _vec_add_scaled(out, power, c)
        power = endo.product(power, w)
    return out


def _poly_deflate(coeffs: list[CycNum], root: CycNum) -> list[CycNum]:
    """Divide a polynomial by (x - root) exactly (root must be a root)."""
    out = [None] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    assert carry.is_zero, "deflation by a non-root"
    return list(out)


def _zero_divisor_candidates(endo: _Endo):
    """Degree-e endo elements worth eigensplitting, lazily."""
    ident_deg = endo.mod.h_deg
    for w in endo.w_blocks.get(ident_deg, []):
        if endo._scalar_of(w) is None:
            yield w
    for deg in sorted(endo.w_blocks, key=lambda d: d.coords):
        vecs = endo.w_blocks[deg]
        if deg == ident_deg or len(vecs) < 2:
            continue
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                if i != j:
                    u = endo.product(vecs[i], endo.inverse(vecs[j]))
                    if endo._scalar_of(u) is None:
                        yield u


def _find_zero_divisor(endo: _Endo) -> Vec | None:
    """A nonzero, non-invertible element of the endo algebra, if we can find
    one by exact eigenvalue splitting (complete for the validated scope)."""
    field = endo.alg.field
    cap = sum(len(v) for v in endo.w_blocks.values()) + 1
    for u in _zero_divisor_candidates(endo):
        p = _min_poly(endo, u, cap)
        if len(p) <= 2:
            continue
        seen: set = set()
        for root in _root_candidates(field, p):
            if root in seen:
                continue
            seen.add(root)
            val = field.zero
            for c in reversed(p):
                val = val * root + c
            if val.is_zero:
                q = _poly_deflate(p, root)
                zd = _eval_poly(endo, q, u)
                if zd and not endo.is_invertible(zd):
                    return zd
    return None


def minimal_graded_left_ideal(
    a: FiniteGradedAlgebra,
) -> tuple[_Module, _Endo]:
    """A minimal graded left ideal of a central simple graded algebra,
    together with its endomorphism algebra."""
    mod = _Module(a, dict(a.unit))
    while True:
        shrunk = False
        for _deg, v in mod.homogeneous_basis():
            if len(v) == 1 and a.monomial_invertible(next(iter(v))):
                continue  # invertible elements generate all of A, never a shrink
            probe = _Module(a, v)
            if 0 < probe.dim < mod.dim:
                mod = probe
                shrunk = True
                break
        if shrunk:
            continue
        endo = _Endo(a, mod)
        noninv = None
        for deg in sorted(endo.w_blocks, key=lambda d: d.coords):
            for w in endo.w_blocks[deg]:
                if not endo.is_invertible(w):
                    noninv = w
                    break
            if noninv is not None:
                break
        if noninv is not None:
            mod = _Module(a, noninv)
            continue
        if all(len(vs) == 1 for vs in endo.w_blocks.values()):
            return mod, endo
        zd = _find_zero_divisor(endo)
        if zd is None:
            raise RuntimeError(
                "could not split the endomorphism algebra over this cyclotomic "
                "field; input outside the validated scope"
            )
        mod = _Module(a, zd)


@dataclass(frozen=True)
class WedderburnInvariant:
    """Canonical graded Wedderburn data: (support, commutation bicharacter,
    shift-normalized coset multiset of the elementary part)."""

    support: Subgroup
    bichar: Bicharacter
    coset_multiset: tuple[tuple[tuple[int, ...], int], ...]
    quotient_factors: tuple[int, ...]


def normalize_coset_multiset(qgroup: FinAbGroup, counts: Counter) -> tuple:
    """Canonical representative of a multiset over a group modulo shift."""
    best = None
    for shift in qgroup.elements():
        shifted = sorted(
            ((tuple((g * shift).coords), m) for g, m in counts.items())
        )
        key = tuple(shifted)
        if best is None or key < best:
            best = key
    return best if best is not None else ()


def graded_simple_decompose(a: FiniteGradedAlgebra) -> WedderburnInvariant:
    """Extract (T, beta, x mod T up to shift) from a central simple graded
    algebra by minimal-ideal linear algebra."""
    if not is_central_simple(a):
        raise ValueError("input is not central simple")
    mod, endo = minimal_graded_left_ideal(a)
    support_elems = endo.support()
    sub = Subgroup(
        a.group,
        frozenset(support_elems),
        tuple(sorted(support_elems, key=lambda g: g.coords)),
    )
    gens, orders, _ = subgroup_basis(sub)
    by_endo_degree = {
        endo.endo_degree(d): vs[0] for d, vs in endo.w_blocks.items()
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
            assert _vec_scale(p2, lam) == p1, "commutation ratio is not scalar"
            # the commutation value of an honest graded algebra lies in mu_n
            exp = next(k for k in range(n) if fld.zeta(k * scale) == lam)
            row.append(exp)
        rows.append(tuple(row))
    bichar = Bicharacter(sub, tuple(rows))
    # degrees of a basis of V over the endo algebra (right action)
    kept_degrees: list[GroupElem] = []
    ech = _Echelon()
    w_basis = [v for vs in endo.w_blocks.values() for v in vs]
    for deg, v in mod.homogeneous_basis():
        fresh = False
        for w in w_basis:
            img = endo.alg.mul(endo.preimage(v), w)
            if ech.add(img) is None:
                fresh = True
        if fresh:
            kept_degrees.append(deg)
    assert len(kept_degrees) * sub.order == mod.dim, "rank bookkeeping failed"
    qgroup, alpha = quotient(a.group, sub)
    counts = Counter(alpha(d) for d in kept_degrees)
    multiset = normalize_coset_multiset(qgroup, counts)
    assert a.dim == (len(kept_degrees) ** 2) * sub.order, "dimension check failed"
    return WedderburnInvariant(
        support=sub,
        bichar=bichar,
        coset_multiset=multiset,
        quotient_factors=qgroup.factors,
    )


def graded_iso_finite(a: FiniteGradedAlgebra, b: FiniteGradedAlgebra) -> bool:
    """Graded isomorphism of central simple graded algebras via invariants."""
    inv_a = graded_simple_decompose(a)
    inv_b = graded_simple_decompose(b)
    return (
        inv_a.support.elements == inv_b.support.elements
        and inv_a.bichar == inv_b.bichar
        and inv_a.coset_multiset == inv_b.coset_multiset
    )


# ---------------------------------------------------------------------------
# cross-validation against the Brauer arithmetic


def expected_tensor_invariant(
    d1: DivisionClass, d2: DivisionClass
) -> WedderburnInvariant:
    """The invariant of D1 (x) D2^op predicted by the Brauer arithmetic."""
    e_class, y, _h = brauer_mul(d1, d2)
    qgroup, alpha = quotient(d1.group, e_class.support)
    counts: Counter = Counter()
    for g, c in y.coeffs:
        counts[alpha(g)] += int(c)
    return WedderburnInvariant(
        support=e_class.support,
        bichar=e_class.bichar,
        coset_multiset=normalize_coset_multiset(qgroup, counts),
        quotient_factors=qgroup.factors,
    )


def observed_tensor_invariant(
    d1: DivisionClass, d2: DivisionClass
) -> WedderburnInvariant:
    """The invariant of the explicitly constructed tensor product."""
    prod_alg = tensor(algebra_of_class(d1), opposite(algebra_of_class(d2)))
    return graded_simple_decompose(prod_alg)


def cross_validate_group(group: FinAbGroup) -> list[str]:
    """Compare Brauer arithmetic with explicit tensor decompositions over all
    class pairs of the group; returns human-readable mismatch reports."""
    failures = []
    classes = enumerate_division_classes(group)
    for d1 in classes:
        for d2 in classes:
            want = expected_tensor_invariant(d1, d2)
            got = observed_tensor_invariant(d1, d2)
            if (
                want.support.elements != got.support.elements
                or want.bichar != got.bichar
                or want.coset_multiset != got.coset_multiset
            ):
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
