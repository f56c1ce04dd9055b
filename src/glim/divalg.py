"""Central simple graded-division algebras as (support, bicharacter) pairs and
the graded Brauer arithmetic on them.

A division class is determined by its support subgroup T together with the
alternating commutation bicharacter beta on T (base field algebraically
closed, values in the roots of unity of order dividing the exponent of G).
Classes are lifted to alternating bicharacters on the dual group, multiplied
there, and pulled back; the matrix multiset y with D (x) D'^op = M_y(E) is
uniform on cosets of Supp(E) inside T*T', with multiplicity pinned by a
dimension count that is asserted on every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt
from operator import mul

from .abelian import (
    FinAbGroup,
    GroupElem,
    Subgroup,
    _addition_table,
    all_subgroups,
    subgroup_basis,
    subgroup_from_members,
)
from .exactsolve import smith_normal_form
from .groupring import GroupRingElem, subgroup_sum


def _form(matrix, u, v, n: int) -> int:
    """u^T M v mod n: a bilinear form given by its exponent matrix."""
    return sum(
        matrix[i][j] * u[i] * v[j] for i in range(len(u)) for j in range(len(v))
    ) % n


def _scaled(matrix, scale: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Each exponent times scale, mod n; an entry that is not an ``int`` (a
    float, string or bool) is an error, never truncated."""
    if any(type(x) is not int for row in matrix for x in row):
        raise ValueError("bicharacter exponents must be ints")
    return tuple(tuple((x * scale) % n for x in row) for row in matrix)


def _check_alternating(matrix, orders, n: int) -> None:
    """Reject an exponent matrix (against zeta_n) that is not an alternating
    bicharacter over generators of these orders: square over them, zero on
    the diagonal, skew, and each entry a multiple of n / gcd of the two
    generator orders."""
    r = len(orders)
    if len(matrix) != r or any(len(row) != r for row in matrix):
        raise ValueError("bicharacter matrix does not match the generators")
    for i in range(r):
        if matrix[i][i] % n:
            raise ValueError("bicharacter is not alternating (diagonal)")
        for j in range(r):
            if (matrix[i][j] + matrix[j][i]) % n:
                raise ValueError("bicharacter is not alternating (skew)")
            if matrix[i][j] % (n // gcd(orders[i], orders[j])):
                raise ValueError("bicharacter not well defined on generator orders")


@dataclass(frozen=True)
class Bicharacter:
    """An alternating bicharacter on a subgroup, as zeta-exponents over the
    subgroup's canonical basis; may be degenerate."""

    subgroup: Subgroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_alternating(self.matrix, subgroup_basis(self.subgroup)[1], self.conductor)

    @property
    def conductor(self) -> int:
        return self.subgroup.parent.exponent

    @staticmethod
    def trivial(sub: Subgroup) -> "Bicharacter":
        r = len(subgroup_basis(sub)[0])
        return Bicharacter(sub, tuple(tuple(0 for _ in range(r)) for _ in range(r)))

    @staticmethod
    def from_exponents(sub: Subgroup, matrix, zeta_order: int | None = None) -> "Bicharacter":
        """Normalize a matrix of exponents over the canonical basis; entries are
        interpreted against zeta_{zeta_order} (default: the exponent of G)."""
        n = sub.parent.exponent
        zo = zeta_order if zeta_order is not None else n
        if n % zo:
            raise ValueError(f"zeta order {zo} must divide the group exponent {n}")
        return Bicharacter(sub, _scaled(matrix, n // zo, n))

    def exponent_of(self, s: GroupElem, t: GroupElem) -> int:
        """The zeta_n-exponent of beta(s, t)."""
        _, _, coords = subgroup_basis(self.subgroup)
        return _form(self.matrix, coords[s], coords[t], self.conductor)

    @cached_property
    def _rows(self) -> dict[GroupElem, tuple[int, ...]]:
        """t -> the exponents of beta(t, g_j) over the basis generators g_j,
        which is a_t M mod n for t's basis coordinates a_t."""
        _, _, coords = subgroup_basis(self.subgroup)
        n = self.conductor
        columns = list(zip(*self.matrix))
        return {
            t: tuple(sum(map(mul, c, col)) % n for col in columns)
            for t, c in coords.items()
        }

    def _radical_members(self) -> list[GroupElem]:
        """Elements t with beta(t, s) = 1 for every s: by bilinearity, those
        with beta(t, g_j) = 1 for each basis generator g_j."""
        return [t for t, row in self._rows.items() if not any(row)]

    def radical(self) -> Subgroup:
        return subgroup_from_members(self.subgroup.parent, self._radical_members())

    @property
    def is_nondegenerate(self) -> bool:
        return len(self._radical_members()) == 1

    def inverse(self) -> "Bicharacter":
        n = self.conductor
        return Bicharacter(
            self.subgroup, tuple(tuple((-m) % n for m in row) for row in self.matrix)
        )


def bicharacter_from_generator_data(
    group: FinAbGroup, gens: list[GroupElem], matrix, zeta_order: int
) -> Bicharacter:
    """Build a bicharacter from values on an arbitrary generating tuple.

    The generating tuple need not be independent, so the given exponent matrix
    is validated against all relations before being transported to the
    canonical basis.
    """
    n = group.exponent
    if zeta_order < 1 or n % zeta_order:
        raise ValueError(f"zeta_order must divide the exponent of the group ({n})")
    m = len(gens)
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise ValueError("beta matrix shape does not match the generator count")
    M = _scaled(matrix, n // zeta_order, n)
    sub = Subgroup(group, tuple(gens))
    words = sub.words

    def pairing(a: GroupElem, b: GroupElem) -> int:
        return _form(M, words[a], words[b], n)

    # well-definedness: the pairing must be bimultiplicative on elements and
    # reproduce the declared values on every generator pair
    elems = sub.sorted_elements()
    for a in elems:
        for b in elems:
            for c in elems:
                if pairing(a * b, c) != (pairing(a, c) + pairing(b, c)) % n:
                    raise ValueError("beta matrix is inconsistent with the relations")
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            if pairing(gi, gj) != M[i][j]:
                raise ValueError("beta matrix is inconsistent with the relations")
    gens_b, _, _ = subgroup_basis(sub)
    canon = tuple(tuple(pairing(gi, gj) for gj in gens_b) for gi in gens_b)
    return Bicharacter(sub, canon)


@dataclass(frozen=True)
class DivisionClass:
    """A central simple graded-division algebra up to isomorphism."""

    bichar: Bicharacter

    def __post_init__(self):
        if not self.bichar.is_nondegenerate:
            raise ValueError("division class requires a nondegenerate bicharacter")
        _, orders, _ = subgroup_basis(self.support)
        if any(orders.count(o) % 2 for o in set(orders)):
            raise AssertionError(
                "support of a nondegenerate class must be a product of squares"
            )

    @property
    def support(self) -> Subgroup:
        return self.bichar.subgroup

    @property
    def group(self) -> FinAbGroup:
        return self.support.parent

    @staticmethod
    @lru_cache(maxsize=None)
    def trivial(group: FinAbGroup) -> "DivisionClass":
        """The trivial class, one per group, so its lift is derived once."""
        return DivisionClass(Bicharacter.trivial(Subgroup(group, ())))

    @property
    def is_trivial(self) -> bool:
        return self.support.order == 1

    @cached_property
    def lift(self) -> "BrauerClass":
        """The Brauer lift (``brauer_lift``), derived once per class."""
        return brauer_lift(self)

    def __repr__(self) -> str:
        return f"DivisionClass(T order {self.support.order} of {self.group})"


def op_class(d: DivisionClass) -> DivisionClass:
    """The class of the opposite algebra: same support, inverse bicharacter."""
    return DivisionClass(d.bichar.inverse())


@dataclass(frozen=True)
class BrauerClass:
    """An alternating bicharacter on the dual group: the Brauer invariant."""

    group: FinAbGroup
    matrix: tuple[tuple[int, ...], ...]  # over the standard dual generators

    def __post_init__(self):
        _check_alternating(self.matrix, self.group.factors, self.group.exponent)

    def __mul__(self, other: "BrauerClass") -> "BrauerClass":
        n = self.group.exponent
        return BrauerClass(
            self.group,
            tuple(
                tuple((a + b) % n for a, b in zip(ra, rb))
                for ra, rb in zip(self.matrix, other.matrix)
            ),
        )

    def inverse(self) -> "BrauerClass":
        n = self.group.exponent
        return BrauerClass(
            self.group, tuple(tuple((-a) % n for a in row) for row in self.matrix)
        )

    def radical_dual(self) -> Subgroup:
        """Characters psi with B(., psi) trivial, as a subgroup of the dual
        (identified with G through exponent coordinates): the kernel of c -> Bc
        mod n, spanned by column i of V times n / gcd(S_ii, n) for U B V = S."""
        n = self.group.exponent
        S, _U, V = smith_normal_form([list(row) for row in self.matrix])
        gens = [[row[i] * (n // gcd(S[i][i], n)) for row in V] for i in range(len(V))]
        return Subgroup(self.group, tuple(map(self.group.element, gens)))


def brauer_lift(d: DivisionClass) -> BrauerClass:
    """Lift a division class to a bicharacter B on the dual group.

    B(chi, psi) := chi(t_psi) where t_psi is the unique element of the support
    with beta(t_psi, .) equal to psi restricted: one table from the rows of
    beta over the support basis to t finds it for every coordinate character.
    """
    G = d.group
    k = len(G.factors)
    gens_b, _, _ = subgroup_basis(d.support)
    table = {row: t for t, row in d.bichar._rows.items()}
    units = [G.element([int(i == j) for j in range(k)]) for i in range(k)]
    pairing_elems = [table[tuple(psi.value_exponent(g) for g in gens_b)] for psi in units]
    return BrauerClass(
        G, tuple(tuple(chi.value_exponent(t) for t in pairing_elems) for chi in units)
    )


def brauer_unlift(b: BrauerClass) -> tuple[Subgroup, Bicharacter]:
    """Reconstruct (support, beta) of the division class with lift ``b``.

    The carrier psi -> t, with chi(t) = B(chi, psi) for every chi, sends the
    j-th standard character to column j of B, row i divided by n/d_i.  The
    support is the span of those images, and beta(g_i, g_j) = psi_i(g_j) for
    a preimage psi_i of basis element g_i, read off one generator search over
    the images.  Any preimage serves: one psi with B(., psi) trivial is
    trivial on the image, as psi(carrier(phi)) = B(psi, phi) = -B(phi, psi).
    """
    G = b.group
    n, d, k = G.exponent, G.factors, len(G.factors)
    images = [G.element([b.matrix[i][j] * d[i] // n for i in range(k)]) for j in range(k)]
    support = Subgroup(G, tuple(images))
    gens_b, _, _ = subgroup_basis(support)
    rows = tuple(
        tuple(psi.value_exponent(gj) for gj in gens_b)
        for psi in (G.element(support.words[gi]) for gi in gens_b)
    )
    return support, Bicharacter(support, rows)


def brauer_mul(
    d: DivisionClass, dprime: DivisionClass
) -> tuple[DivisionClass, GroupRingElem, Subgroup]:
    """Invariants (E, y, H) of D (x) D'^op = M_y(E); H = T*T'.

    y is uniform with multiplicity m on the first element, in coordinate
    order, of each Supp(E)-coset of H.  Past lift and unlift all runs in the
    integer group ring: H is the span of both generator tuples and the
    support of x_T*x_{T'}, whose coefficient at the identity is |T cap T'|,
    and the dimension identity y*ybar*x_{T_E} = x_T*x_{T'} is asserted.
    """
    if d.group != dprime.group:
        raise ValueError("division classes over different groups")
    G = d.group
    t_e, beta_e = brauer_unlift(d.lift * dprime.lift.inverse())
    e_class = DivisionClass(beta_e)
    x_te = subgroup_sum(t_e)
    rhs = subgroup_sum(d.support) * subgroup_sum(dprime.support)
    H = Subgroup(G, d.support.generators + dprime.support.generators)
    if not t_e <= H:
        raise RuntimeError("support of the product class escaped T*T'")
    m_sq = Fraction(rhs.num[0] * t_e.order, H.order)
    if m_sq.denominator != 1 or isqrt(int(m_sq)) ** 2 != int(m_sq):
        raise RuntimeError("matrix multiplicity is not a perfect integer square")
    mult = isqrt(int(m_sq))
    add = _addition_table(G)
    coset = [t for t, c in enumerate(x_te.num) if c]
    reps: list[int] = []
    covered: set[int] = set()
    for h, c in enumerate(rhs.num):
        if c and h not in covered:
            reps.append(h)
            covered.update(add[h][t] for t in coset)
    y = GroupRingElem.from_terms(G, ((r, mult) for r in reps))
    if y * y.bar() * x_te != rhs:
        raise RuntimeError("dimension identity failed for the computed multiset")
    return e_class, y, H


def enumerate_division_classes(group: FinAbGroup) -> list[DivisionClass]:
    """All nondegenerate classes (T, beta) over the group, trivial class first."""
    out = []
    n = group.exponent
    for sub in all_subgroups(group):
        gens, orders, _ = subgroup_basis(sub)
        r = len(gens)
        slots = [(i, j) for i in range(r) for j in range(i + 1, r)]
        choices = [range(gcd(orders[i], orders[j])) for i, j in slots]
        for combo in itertools.product(*choices):
            mat = [[0] * r for _ in range(r)]
            for (i, j), u in zip(slots, combo):
                step = n // gcd(orders[i], orders[j])
                mat[i][j] = (u * step) % n
                mat[j][i] = (-u * step) % n
            bichar = Bicharacter(sub, tuple(tuple(row) for row in mat))
            if bichar.is_nondegenerate:
                out.append(DivisionClass(bichar))
    return out
