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
from math import gcd, isqrt

from .abelian import (
    Character,
    FinAbGroup,
    GroupElem,
    Subgroup,
    all_subgroups,
    generator_words,
    subgroup_basis,
    subgroup_from_members,
    subgroup_intersection,
    subgroup_join,
    trivial_subgroup,
)
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


@dataclass(frozen=True)
class Bicharacter:
    """An alternating bicharacter on a subgroup, as zeta-exponents over the
    subgroup's canonical basis; may be degenerate."""

    subgroup: Subgroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gens, orders, _ = subgroup_basis(self.subgroup)
        n = self.conductor
        r = len(gens)
        if len(self.matrix) != r or any(len(row) != r for row in self.matrix):
            raise ValueError("bicharacter matrix does not match the subgroup basis")
        for i in range(r):
            if self.matrix[i][i] % n:
                raise ValueError("bicharacter is not alternating (diagonal)")
            for j in range(r):
                m = self.matrix[i][j]
                if (m + self.matrix[j][i]) % n:
                    raise ValueError("bicharacter is not alternating (skew)")
                step = n // gcd(orders[i], orders[j])
                if m % step:
                    raise ValueError(
                        "bicharacter not well defined on generator orders"
                    )

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

    def _radical_members(self) -> list[GroupElem]:
        """Elements t with beta(t, s) = 1 for every s: by bilinearity, those
        with beta(t, g_j) = 1 for each basis generator g_j."""
        _, _, coords = subgroup_basis(self.subgroup)
        n = self.conductor
        columns = list(zip(*self.matrix))
        return [
            t
            for t, c in coords.items()
            if all(sum(a * m for a, m in zip(c, col)) % n == 0 for col in columns)
        ]

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
    words = generator_words(group, gens)
    sub = Subgroup(group, frozenset(words), tuple(gens))

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
    def trivial(group: FinAbGroup) -> "DivisionClass":
        return DivisionClass(Bicharacter.trivial(trivial_subgroup(group)))

    @property
    def is_trivial(self) -> bool:
        return self.support.order == 1

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
        n = self.group.exponent
        k = len(self.group.factors)
        if len(self.matrix) != k or any(len(r) != k for r in self.matrix):
            raise ValueError("Brauer matrix must be square over the dual generators")
        for i in range(k):
            if self.matrix[i][i] % n:
                raise ValueError("Brauer bicharacter must be alternating")
            for j in range(k):
                if (self.matrix[i][j] + self.matrix[j][i]) % n:
                    raise ValueError("Brauer bicharacter must be skew")

    def value_exponent(self, chi_coords, psi_coords) -> int:
        return _form(self.matrix, chi_coords, psi_coords, self.group.exponent)

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
        (identified with G through exponent coordinates)."""
        k = len(self.group.factors)
        units = [
            tuple(int(i == j) for j in range(k)) for i in range(k)
        ]
        members = [
            m
            for m in self.group.elements()
            if all(self.value_exponent(u, m.coords) == 0 for u in units)
        ]
        return subgroup_from_members(self.group, members)


def brauer_lift(d: DivisionClass) -> BrauerClass:
    """Lift a division class to a bicharacter B on the dual group.

    B(chi, psi) := chi(t_psi) where t_psi is the unique element of the support
    pairing to psi's restriction under beta.
    """
    G = d.group
    k = len(G.factors)
    units = [Character(G, tuple(int(i == j) for j in range(k))) for i in range(k)]
    pairing_elems = [_pairing_element(d, chi) for chi in units]
    return BrauerClass(
        G, tuple(tuple(chi.value_exponent(t) for t in pairing_elems) for chi in units)
    )


def _pairing_element(d: DivisionClass, psi: Character) -> GroupElem:
    """The unique t in the support with beta(t, .) equal to psi restricted."""
    gens_b, _, _ = subgroup_basis(d.support)
    found = None
    for t in d.support.sorted_elements():
        if all(d.bichar.exponent_of(t, g) == psi.value_exponent(g) for g in gens_b):
            if found is not None:
                raise AssertionError("pairing element not unique; beta degenerate?")
            found = t
    if found is None:
        raise AssertionError("pairing element missing; beta degenerate?")
    return found


def brauer_unlift(b: BrauerClass) -> tuple[Subgroup, Bicharacter]:
    """Reconstruct (support, beta) of the division class with lift ``b``."""
    G = b.group
    n = G.exponent
    k = len(G.factors)
    carrier: dict[GroupElem, GroupElem] = {}
    for psi in G.elements():
        coords = []
        for i in range(k):
            chi_i = tuple(int(i == j) for j in range(k))
            val = b.value_exponent(chi_i, psi.coords)
            step = n // G.factors[i]
            if val % step:
                raise AssertionError("dual bicharacter value out of image")
            coords.append((val // step) % G.factors[i])
        g = G.element(tuple(coords))
        carrier[psi] = g
    support = subgroup_from_members(G, carrier.values())
    gens_b, _, _ = subgroup_basis(support)
    reps: dict[GroupElem, GroupElem] = {}
    for psi, g in carrier.items():
        reps.setdefault(g, psi)
    rows = tuple(
        tuple(Character(G, reps[gi].coords).value_exponent(gj) for gj in gens_b)
        for gi in gens_b
    )
    return support, Bicharacter(support, rows)


def brauer_mul(
    d: DivisionClass, dprime: DivisionClass
) -> tuple[DivisionClass, GroupRingElem, Subgroup]:
    """Invariants (E, y, H) of D (x) D'^op = M_y(E); H = T*T'.

    y is uniform with multiplicity m on a full set of Supp(E)-coset
    representatives of H, normalized to contain the identity coset; the
    dimension identity y*ybar*x_{T_E} = x_T*x_{T'} is asserted.
    """
    if d.group != dprime.group:
        raise ValueError("division classes over different groups")
    B = brauer_lift(d) * brauer_lift(dprime).inverse()
    t_e, beta_e = brauer_unlift(B)
    e_class = DivisionClass(beta_e)
    H = subgroup_join(d.support, dprime.support)
    if not t_e <= H:
        raise RuntimeError("support of the product class escaped T*T'")
    inter = subgroup_intersection(d.support, dprime.support)
    m_sq = Fraction(inter.order * t_e.order, H.order)
    if m_sq.denominator != 1 or isqrt(int(m_sq)) ** 2 != int(m_sq):
        raise RuntimeError("matrix multiplicity is not a perfect integer square")
    mult = isqrt(int(m_sq))
    reps = []
    covered: set[GroupElem] = set()
    for h in H.sorted_elements():
        if h in covered:
            continue
        reps.append(h)
        covered.update(h * t for t in t_e.elements)
    y = GroupRingElem.from_dict(d.group, {r: Fraction(mult) for r in reps})
    lhs = y * y.bar() * subgroup_sum(t_e)
    rhs = subgroup_sum(d.support) * subgroup_sum(dprime.support)
    if lhs != rhs:
        raise RuntimeError("dimension identity failed for the computed multiset")
    return e_class, y, H


def enumerate_division_classes(group: FinAbGroup) -> list[DivisionClass]:
    """All nondegenerate classes (T, beta) over the group, trivial class first."""
    out = []
    n = group.exponent
    for sub in all_subgroups(group):
        gens, orders, _ = subgroup_basis(sub)
        r = len(gens)
        if r == 0:
            out.append(DivisionClass(Bicharacter.trivial(sub)))
            continue
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
