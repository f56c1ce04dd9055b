"""Arithmetic in Z>=0 G, ZG and QG, character projections, and the two exact
feasibility kernels (lattice membership in the integral image, cone membership
in the nonnegative image).

An element is a finitely supported map from group elements to rationals.  The
projection onto a set S of character orbits is stored as one cyclotomic
coordinate per orbit (the value at the orbit representative), which determines
the component because the component rings are fields permuted by the Galois
action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .abelian import (
    CharOrbit,
    Character,
    FinAbGroup,
    GroupElem,
    Subgroup,
    dual_and_orbits,
)
from .cyclotomic import CycNum, get_field
from .exactsolve import integer_solve, nonneg_integer_solve


@dataclass(frozen=True)
class GroupRingElem:
    """An element of QG as a coefficient map; flags are derived, not stored."""

    group: FinAbGroup
    coeffs: tuple[tuple[GroupElem, Fraction], ...]  # sorted by coords, no zeros

    @staticmethod
    def from_dict(group: FinAbGroup, data: dict[GroupElem, Fraction | int]) -> "GroupRingElem":
        items = []
        for g, c in data.items():
            if g.group != group:
                raise ValueError("coefficient key lies in a different group")
            c = Fraction(c)
            if c:
                items.append((g, c))
        items.sort(key=lambda it: it[0].coords)
        return GroupRingElem(group, tuple(items))

    @staticmethod
    def zero(group: FinAbGroup) -> "GroupRingElem":
        return GroupRingElem(group, ())

    @staticmethod
    def one(group: FinAbGroup) -> "GroupRingElem":
        return GroupRingElem.from_dict(group, {group.identity: 1})

    @staticmethod
    def monomial(g: GroupElem, coeff=1) -> "GroupRingElem":
        return GroupRingElem.from_dict(g.group, {g: Fraction(coeff)})

    @staticmethod
    def constant(group: FinAbGroup, value) -> "GroupRingElem":
        return GroupRingElem.from_dict(group, {group.identity: Fraction(value)})

    def as_dict(self) -> dict[GroupElem, Fraction]:
        return dict(self.coeffs)

    def coeff(self, g: GroupElem) -> Fraction:
        for h, c in self.coeffs:
            if h == g:
                return c
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_integer(self) -> bool:
        return all(c.denominator == 1 for _, c in self.coeffs)

    @property
    def is_nonneg_integer(self) -> bool:
        return all(c.denominator == 1 and c >= 0 for _, c in self.coeffs)

    def size(self) -> Fraction:
        return sum((c for _, c in self.coeffs), Fraction(0))

    def _check(self, other: "GroupRingElem"):
        if self.group != other.group:
            raise ValueError("group ring elements over different groups")

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        data = self.as_dict()
        for g, c in other.coeffs:
            data[g] = data.get(g, Fraction(0)) + c
        return GroupRingElem.from_dict(self.group, data)

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return self + other.scale(-1)

    def __mul__(self, other) -> "GroupRingElem":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        data: dict[GroupElem, Fraction] = {}
        for g, a in self.coeffs:
            for h, b in other.coeffs:
                gh = g * h
                data[gh] = data.get(gh, Fraction(0)) + a * b
        return GroupRingElem.from_dict(self.group, data)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "GroupRingElem":
        if k < 0:
            raise ValueError("negative powers are not defined in the semiring")
        result = GroupRingElem.one(self.group)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, value) -> "GroupRingElem":
        value = Fraction(value)
        return GroupRingElem.from_dict(
            self.group, {g: c * value for g, c in self.coeffs}
        )

    def bar(self) -> "GroupRingElem":
        """Transport coefficients to inverse group elements (an involution)."""
        return GroupRingElem.from_dict(
            self.group, {g.inverse(): c for g, c in self.coeffs}
        )

    def translate(self, h: GroupElem) -> "GroupRingElem":
        return GroupRingElem.from_dict(self.group, {g * h: c for g, c in self.coeffs})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            (f"{c}*{g}" if c != 1 else str(g)) for g, c in self.coeffs
        )


def subgroup_sum(sub: Subgroup) -> GroupRingElem:
    """The characteristic multiset of a subgroup (sum of its elements)."""
    return GroupRingElem.from_dict(sub.parent, {g: Fraction(1) for g in sub.elements})


def char_eval(z: GroupRingElem, chi: Character) -> CycNum:
    if chi.group != z.group:
        raise ValueError("character and element over different groups")
    n = z.group.exponent
    fld = get_field(n)
    out = fld.zero
    for g, c in z.coeffs:
        out = out + fld.zeta(chi.value_exponent(g)) * c
    return out


def supp_orbits(z: GroupRingElem) -> frozenset[CharOrbit]:
    """Character support: the orbits where the projection of z is nonzero."""
    return frozenset(
        o for o in dual_and_orbits(z.group) if not char_eval(z, o.representative).is_zero
    )


def orbit_idempotent(orbit: CharOrbit) -> GroupRingElem:
    """The rational idempotent cutting out one Galois orbit of characters."""
    G = orbit.representative.group
    n = G.exponent
    fld = get_field(n)
    data = {}
    for g in G.elements():
        total = fld.zero
        for chi in orbit.members:
            total = total + fld.zeta(-chi.value_exponent(g))
        coeff = total.as_rational() / G.order
        if coeff:
            data[g] = coeff
    return GroupRingElem.from_dict(G, data)


@dataclass(frozen=True)
class ProjCoords:
    """Coordinates of a projection onto a set of character orbits."""

    group: FinAbGroup
    orbits: tuple[CharOrbit, ...]
    values: tuple[CycNum, ...]

    def __post_init__(self):
        if len(self.orbits) != len(self.values):
            raise ValueError("one value per orbit required")

    def _check(self, other: "ProjCoords"):
        if self.orbits != other.orbits:
            raise ValueError("projections over different orbit sets")

    def __mul__(self, other) -> "ProjCoords":
        if isinstance(other, (int, Fraction, CycNum)):
            return ProjCoords(
                self.group, self.orbits, tuple(v * other for v in self.values)
            )
        self._check(other)
        return ProjCoords(
            self.group,
            self.orbits,
            tuple(a * b for a, b in zip(self.values, other.values)),
        )

    __rmul__ = __mul__

    def inverse(self) -> "ProjCoords":
        return ProjCoords(
            self.group, self.orbits, tuple(v.inverse() for v in self.values)
        )

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.values)

    def __repr__(self) -> str:
        return "pi(" + ", ".join(repr(v) for v in self.values) + ")"


def canonical_orbits(group: FinAbGroup, orbits) -> tuple[CharOrbit, ...]:
    return tuple(sorted(orbits, key=lambda o: o.sort_key()))


def project(z: GroupRingElem, orbits) -> ProjCoords:
    orbs = canonical_orbits(z.group, orbits)
    return ProjCoords(
        z.group, orbs, tuple(char_eval(z, o.representative) for o in orbs)
    )


# ---------------------------------------------------------------------------
# feasibility kernels


class _CoordSystem:
    """Integer coordinate matrix of the group elements on an orbit set.

    Column g stacks, orbit by orbit, the coefficient vector of chi_j(g) in the
    power basis of Q(zeta_n); these are always integers.
    """

    def __init__(self, group: FinAbGroup, orbits: tuple[CharOrbit, ...]):
        self.group = group
        self.orbits = orbits
        self.elements = sorted(group.elements(), key=lambda g: g.coords)
        n = group.exponent
        fld = get_field(n)
        self.field = fld
        cols = []
        for g in self.elements:
            col: list[int] = []
            for o in orbits:
                # a root of unity has denominator 1
                col.extend(fld.zeta(o.representative.value_exponent(g)).num)
            cols.append(col)
        self.nrows = len(cols[0]) if cols else 0
        self.rows = [[cols[c][r] for c in range(len(cols))] for r in range(self.nrows)]

    def target_vector(self, target: ProjCoords) -> list[int] | None:
        """Stacked coordinates of the target; None when not integral."""
        vec: list[int] = []
        for v in target.values:
            if v.den != 1:
                return None
            vec.extend(v.num)
        return vec

    def combine(self, coeffs: list[int]) -> GroupRingElem:
        return GroupRingElem.from_dict(
            self.group,
            {g: Fraction(c) for g, c in zip(self.elements, coeffs)},
        )


@lru_cache(maxsize=None)
def _coord_system(group: FinAbGroup, orbits: tuple[CharOrbit, ...]) -> _CoordSystem:
    return _CoordSystem(group, orbits)


def _system(target: ProjCoords) -> _CoordSystem:
    return _coord_system(target.group, target.orbits)


def lattice_preimage(target: ProjCoords) -> GroupRingElem | None:
    """Some z in ZG with the given projection, or None."""
    sys = _system(target)
    vec = sys.target_vector(target)
    if vec is None:
        return None
    sol = integer_solve(sys.rows, vec)
    if sol is None:
        return None
    return sys.combine(sol)


def cone_preimage(target: ProjCoords) -> GroupRingElem | None:
    """Some z in Z>=0 G with the given projection, or None (complete)."""
    sys = _system(target)
    vec = sys.target_vector(target)
    if vec is None:
        return None
    sol = nonneg_integer_solve(sys.rows, vec)
    if sol is None:
        return None
    return sys.combine(sol)


def lattice_member(target: ProjCoords) -> bool:
    return lattice_preimage(target) is not None


def cone_member(target: ProjCoords) -> bool:
    return cone_preimage(target) is not None
