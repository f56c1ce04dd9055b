"""Arithmetic in Z>=0 G, ZG and QG, character projections, and the two exact
feasibility kernels (lattice membership in the integral image, cone membership
in the nonnegative image).

An element is a vector of integer numerators, one per group element in
coordinate order, over one common denominator, as a cyclotomic number is.  The
projection onto a set S of character orbits is stored as one cyclotomic
coordinate per orbit (the value at the orbit representative), which determines
the component because the component rings are fields permuted by the Galois
action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .abelian import (
    CharOrbit,
    FinAbGroup,
    GroupElem,
    Subgroup,
    _addition_table,
    _element_index,
    dual_and_orbits,
)
from .cyclotomic import CycNum, _canonical, _rational, get_field
from .exactsolve import integer_solve, nonneg_integer_solve, smith_form


def _reduced(group: FinAbGroup, num, den: int) -> "GroupRingElem":
    """num/den (den > 0) in lowest terms; zero gets den 1, as gcd(den, 0, ...) is den."""
    if den != 1 and (g := gcd(den, *num)) != 1:
        num, den = [c // g for c in num], den // g
    return GroupRingElem(group, tuple(num), den)


@lru_cache(maxsize=None)
def _inverses(group: FinAbGroup) -> tuple[int, ...]:
    """The index of each element's inverse: the permutation behind ``bar``."""
    return tuple(row.index(0) for row in _addition_table(group))


class GroupRingElem:
    """An element of QG: ``num[i] / den`` is the coefficient of the i-th element
    in ``group.elements()`` (coordinate) order, den positive and in lowest
    terms (1 for zero), so equality is of integers.  ``from_dict``/``coeffs``
    convert from/to ``(GroupElem, Fraction)`` pairs; the constructor takes
    the canonical form as given.  Coefficients and scalars are int or
    Fraction, never a bool or a float."""

    __slots__ = ("group", "num", "den")

    def __init__(self, group: FinAbGroup, num: tuple[int, ...], den: int = 1):
        self.group = group
        self.num = num
        self.den = den

    @staticmethod
    def from_dict(group: FinAbGroup, data: dict[GroupElem, Fraction | int]) -> "GroupRingElem":
        if any(g.group != group for g in data):
            raise ValueError("coefficient key lies in a different group")
        index = _element_index(group)
        terms = [(index[g.coords], _rational(c)) for g, c in data.items()]
        den = lcm(*(c.denominator for _, c in terms))
        return GroupRingElem.from_terms(
            group, [(i, c.numerator * (den // c.denominator)) for i, c in terms], den
        )

    @staticmethod
    def from_terms(group: FinAbGroup, terms, den: int = 1) -> "GroupRingElem":
        """The sum of the (element index, integer numerator) pairs over den."""
        num = [0] * group.order
        for i, c in terms:
            num[i] += c
        return _reduced(group, num, den)

    @staticmethod
    def zero(group: FinAbGroup) -> "GroupRingElem":
        return GroupRingElem(group, (0,) * group.order)

    @staticmethod
    def one(group: FinAbGroup) -> "GroupRingElem":
        return GroupRingElem(group, (1,) + (0,) * (group.order - 1))

    @staticmethod
    def constant(group: FinAbGroup, value) -> "GroupRingElem":
        return GroupRingElem.one(group).scale(value)

    @property
    def coeffs(self) -> tuple[tuple[GroupElem, Fraction], ...]:
        """The nonzero coefficients with their elements, in coordinate order."""
        elems = self.group.elements()
        return tuple((elems[i], Fraction(c, self.den)) for i, c in enumerate(self.num) if c)

    def as_dict(self) -> dict[GroupElem, Fraction]:
        return dict(self.coeffs)

    def coeff(self, g: GroupElem) -> Fraction:
        return Fraction(self.num[_element_index(self.group)[g.coords]], self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    @property
    def is_nonneg_integer(self) -> bool:
        return self.den == 1 and min(self.num) >= 0

    def size(self) -> Fraction:
        return Fraction(sum(self.num), self.den)

    def _check(self, other: "GroupRingElem"):
        if self.group != other.group:
            raise ValueError("group ring elements over different groups")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.group == other.group

    def __hash__(self) -> int:
        return hash((self.group, self.num, self.den))

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        da, db = self.den, other.den
        return _reduced(self.group, [a * db + b * da for a, b in zip(self.num, other.num)], da * db)

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return self + other.scale(-1)

    def __mul__(self, other) -> "GroupRingElem":
        """The convolution over the nonzero entries, through the addition table."""
        if not isinstance(other, GroupRingElem):
            return self.scale(other)
        self._check(other)
        terms = [(j, b) for j, b in enumerate(other.num) if b]
        out = [0] * len(self.num)
        for a, row in zip(self.num, _addition_table(self.group)):
            if a:
                for j, b in terms:
                    out[row[j]] += a * b
        return _reduced(self.group, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "GroupRingElem":
        if k < 0:
            raise ValueError("negative powers are not defined in the semiring")
        return prod([self] * k, start=GroupRingElem.one(self.group))

    def scale(self, value) -> "GroupRingElem":
        v = _rational(value)
        return _reduced(self.group, [c * v.numerator for c in self.num], self.den * v.denominator)

    def bar(self) -> "GroupRingElem":
        """Transport coefficients to inverse group elements (an involution)."""
        inv = _inverses(self.group)
        return GroupRingElem(self.group, tuple(map(self.num.__getitem__, inv)), self.den)

    def translate(self, h: GroupElem) -> "GroupRingElem":
        """The product with h: the coefficient at g*h is that of g here."""
        G = self.group
        if h.group != G:
            raise ValueError("translation by an element of a different group")
        row = _addition_table(G)[_inverses(G)[_element_index(G)[h.coords]]]
        return GroupRingElem(G, tuple(map(self.num.__getitem__, row)), self.den)

    def __repr__(self) -> str:
        return " + ".join((f"{c}*{g}" if c != 1 else str(g)) for g, c in self.coeffs) or "0"


def subgroup_sum(sub: Subgroup) -> GroupRingElem:
    """The characteristic multiset of a subgroup (sum of its elements)."""
    index = _element_index(sub.parent)
    return GroupRingElem.from_terms(sub.parent, ((index[g.coords], 1) for g in sub.elements))


def pushforward(z: GroupRingElem, target: FinAbGroup, image) -> GroupRingElem:
    """The image of z under a homomorphism onto target, given as the table of
    every element's image index (as ``abelian.quotient`` returns G -> G/T):
    each fibre's coefficients add."""
    return GroupRingElem.from_terms(target, zip(image, z.num), z.den)


def _exponents(chi: GroupElem) -> tuple[int, ...]:
    """The k with chi(g) = zeta^k for each g, in coordinate order."""
    return tuple(chi.value_exponent(g) for g in chi.group.elements())


@lru_cache(maxsize=None)
def _orbit_table(group: FinAbGroup) -> dict[CharOrbit, tuple]:
    """Each orbit's rank in ``dual_and_orbits`` (by ``sort_key``), the orbit
    and its representative's exponents: sorting these triples sorts by rank."""
    return {o: (r, o, _exponents(o.representative)) for r, o in enumerate(dual_and_orbits(group))}


@lru_cache(maxsize=None)
def _character_table(group: FinAbGroup) -> dict[CharOrbit, tuple[tuple[int, ...], ...]]:
    """Per orbit representative chi, one row per power-basis coordinate over
    the elements: the numerators of zeta^{chi(g)}, integers (denominator 1)."""
    fld = get_field(group.exponent)
    table = _orbit_table(group).items()
    return {o: tuple(zip(*(fld.zeta(k).num for k in e))) for o, (_, _, e) in table}


@lru_cache(maxsize=1024)
def _character_system(group: FinAbGroup, orbits: tuple[CharOrbit, ...]):
    """The stacked character rows of the orbits, in the given order, and
    their ``smith_form``: one per orbit tuple of the group (projections list
    theirs canonically), shared by every lattice and cone solve over it.
    A group has up to 2^(number of orbits) such tuples, so the cache keeps
    the 1024 most recently used."""
    table = _character_table(group)
    rows = tuple(row for o in orbits for row in table[o])
    return rows, smith_form(rows)


def _evaluate(z: GroupRingElem, blocks) -> tuple[CycNum, ...]:
    """sum_g c_g zeta^{k_g} for each block of exponents k: each nonzero term
    adds the sparse reduction of its power of zeta; one canonical form each."""
    fld = get_field(z.group.exponent)
    terms = [(i, c) for i, c in enumerate(z.num) if c]
    out = []
    for exps in blocks:
        acc = [0] * fld.degree
        for i, c in terms:
            for j, r in fld._pow[exps[i]]:
                acc[j] += c * r
        out.append(_canonical(fld, acc, z.den))
    return tuple(out)


def char_eval(z: GroupRingElem, chi: GroupElem) -> CycNum:
    if chi.group != z.group:
        raise ValueError("character and element over different groups")
    return _evaluate(z, [_exponents(chi)])[0]


def supp_orbits(z: GroupRingElem) -> frozenset[CharOrbit]:
    """Character support: the orbits where the projection of z is nonzero."""
    full = project(z, dual_and_orbits(z.group))
    return frozenset(o for o, v in zip(full.orbits, full.values) if not v.is_zero)


def orbit_idempotent(orbit: CharOrbit) -> GroupRingElem:
    """The rational idempotent cutting out one Galois orbit of characters: at g
    the trace of chi(g^-1) over the orbit (an integer) over |G|."""
    G = orbit.representative.group
    fld = get_field(G.exponent)
    exps = [_exponents(chi) for chi in orbit.members]
    traces = [sum((fld.zeta(-e[i]) for e in exps), fld.zero) for i in range(G.order)]
    return _reduced(G, [int(t.as_rational()) for t in traces], G.order)


@dataclass(frozen=True)
class ProjCoords:
    """Coordinates of a projection onto a set of character orbits."""

    group: FinAbGroup
    orbits: tuple[CharOrbit, ...]
    values: tuple[CycNum, ...]

    def __post_init__(self):
        if len(self.orbits) != len(self.values):
            raise ValueError("one value per orbit required")

    def __mul__(self, other) -> "ProjCoords":
        if isinstance(other, (int, Fraction, CycNum)):
            values = tuple(v * other for v in self.values)
        elif self.orbits != other.orbits:
            raise ValueError("projections over different orbit sets")
        else:
            values = tuple(a * b for a, b in zip(self.values, other.values))
        return ProjCoords(self.group, self.orbits, values)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ProjCoords":
        return ProjCoords(self.group, self.orbits, tuple(v**k for v in self.values))

    def inverse(self) -> "ProjCoords":
        return ProjCoords(self.group, self.orbits, tuple(v.inverse() for v in self.values))

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.values)

    def __repr__(self) -> str:
        return "pi(" + ", ".join(repr(v) for v in self.values) + ")"


def canonical_orbits(group: FinAbGroup, orbits) -> tuple[CharOrbit, ...]:
    return tuple(e[1] for e in sorted(map(_orbit_table(group).__getitem__, orbits)))


def project(z: GroupRingElem, orbits) -> ProjCoords:
    entries = sorted(map(_orbit_table(z.group).__getitem__, orbits))
    return ProjCoords(z.group, tuple(e[1] for e in entries), _evaluate(z, [e[2] for e in entries]))


# ---------------------------------------------------------------------------
# feasibility kernels


def _preimage(target: ProjCoords, solve) -> GroupRingElem | None:
    """Some z with the given projection whose coefficients ``solve`` finds
    from the stacked integer coordinates, or None."""
    vec: list[int] = []
    for v in target.values:
        if v.den != 1:
            return None
        vec.extend(v.num)
    rows, smith = _character_system(target.group, target.orbits)
    sol = solve(rows, vec, smith)
    if sol is None:
        return None
    return GroupRingElem.from_terms(target.group, enumerate(sol))


def lattice_preimage(target: ProjCoords) -> GroupRingElem | None:
    """Some z in ZG with the given projection, or None."""
    return _preimage(target, integer_solve)


def cone_preimage(target: ProjCoords) -> GroupRingElem | None:
    """Some z in Z>=0 G with the given projection, or None (complete)."""
    return _preimage(target, nonneg_integer_solve)
