"""Finite abelian groups, subgroups, quotients, characters, and Galois orbits.

Groups are products of cyclic factors with elements stored as reduced
coordinate tuples.  A subgroup is the span of its generators, stored by full
element enumeration, which is exact and ample at the documented scale
(|G| <= 64); ``subgroup_from_members`` is the one checked conversion from an
element set.  Quotients are normalized through the Smith normal form so equal
quotients get equal factor lists.  The dual group is G itself: a character
is the element whose coordinates are its exponents, read through the
symmetric pairing ``GroupElem.value_exponent``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm, prod

from .exactsolve import hermite_basis, integer_solve, smith_form, smith_normal_form


@dataclass(frozen=True)
class FinAbGroup:
    """The group Z_{d1} x ... x Z_{dk} for the given cyclic factors."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a group needs at least one cyclic factor")
        if any(type(d) is not int for d in self.factors):
            raise ValueError(f"cyclic factors must be ints, got {self.factors!r}")
        if any(d < 1 for d in self.factors):
            raise ValueError(f"cyclic factors must be positive, got {self.factors}")

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def exponent(self) -> int:
        return lcm(*self.factors)

    @property
    def identity(self) -> "GroupElem":
        return GroupElem(self, (0,) * len(self.factors))

    def element(self, coords) -> "GroupElem":
        """The element with these coordinates, each reduced mod its factor;
        a coordinate that is not an ``int`` (a float, string or bool) is an
        error, never converted."""
        if len(coords) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} coordinates, got {len(coords)}"
            )
        if any(type(x) is not int for x in coords):
            raise ValueError(f"coordinates must be ints, got {tuple(coords)!r}")
        return GroupElem(self, tuple(x % d for x, d in zip(coords, self.factors)))

    def elements(self) -> list["GroupElem"]:
        """Every element in coordinate order (mixed radix, the last factor
        fastest): a copy of one tuple built once per group."""
        return list(_elements(self))

    def __repr__(self) -> str:
        return "Z" + "x".join(f"{d}" for d in self.factors)


def group_new(factors) -> FinAbGroup:
    return FinAbGroup(tuple(factors))


@lru_cache(maxsize=None)
def _elements(group: FinAbGroup) -> tuple["GroupElem", ...]:
    return tuple(GroupElem(group, c) for c in itertools.product(*map(range, group.factors)))


@dataclass(frozen=True)
class GroupElem:
    group: FinAbGroup
    coords: tuple[int, ...]

    def _check(self, other: "GroupElem"):
        if self.group != other.group:
            raise ValueError("elements belong to different groups")

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        self._check(other)
        return GroupElem(
            self.group,
            tuple(
                (a + b) % d
                for a, b, d in zip(self.coords, other.coords, self.group.factors)
            ),
        )

    def inverse(self) -> "GroupElem":
        return GroupElem(
            self.group,
            tuple((-a) % d for a, d in zip(self.coords, self.group.factors)),
        )

    def __pow__(self, k: int) -> "GroupElem":
        return GroupElem(
            self.group,
            tuple((a * k) % d for a, d in zip(self.coords, self.group.factors)),
        )

    @property
    def order(self) -> int:
        return lcm(
            *(d // gcd(d, a) if a else 1 for a, d in zip(self.coords, self.group.factors))
        )

    @property
    def is_identity(self) -> bool:
        return all(a == 0 for a in self.coords)

    def value_exponent(self, g: "GroupElem") -> int:
        """The k with chi(g) = zeta_n^k for the character chi whose exponents
        m are this element's coordinates: sum (n/d_i) m_i c_i mod n, which is
        symmetric in chi and g."""
        n, terms = self.group.exponent, zip(self.coords, g.coords, self.group.factors)
        return sum((n // d) * m * c for m, c, d in terms) % n

    def __repr__(self) -> str:
        return "(" + ",".join(str(a) for a in self.coords) + ")"


@dataclass(frozen=True)
class Subgroup:
    """The span of ``generators`` in ``parent``, so closed by construction.

    ``words`` maps each element to the first exponent word over the
    generators that reaches it (``generator_words``); equality and hashing
    read only the parent and the elements.
    """

    parent: FinAbGroup
    generators: tuple[GroupElem, ...] = field(compare=False)
    words: dict[GroupElem, tuple[int, ...]] = field(init=False, compare=False)
    elements: frozenset[GroupElem] = field(init=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        words = generator_words(self.parent, gens)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "elements", frozenset(words))

    @property
    def order(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[GroupElem]:
        return sorted(self.elements, key=lambda g: g.coords)

    def __contains__(self, g: GroupElem) -> bool:
        return g in self.elements

    def __le__(self, other: "Subgroup") -> bool:
        return self.elements <= other.elements

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order} of {self.parent})"


def generator_words(group: FinAbGroup, gens) -> dict[GroupElem, tuple[int, ...]]:
    """Every element of the span of ``gens``, with the first exponent word
    (one nonnegative exponent per generator) a breadth-first search over the
    generators reaches it by.  The search runs on element indices through
    the addition table; only the result is keyed by ``GroupElem``."""
    gens = tuple(gens)
    for g in gens:
        if g.group != group:
            raise ValueError("generator belongs to a different group")
    index = _element_index(group)
    steps = [index[group.element(g.coords).coords] for g in gens]
    add = _addition_table(group)
    words = {0: (0,) * len(gens)}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            w, row = words[x], add[x]
            for i, s in enumerate(steps):
                y = row[s]
                if y not in words:
                    words[y] = w[:i] + (w[i] + 1,) + w[i + 1 :]
                    nxt.append(y)
        frontier = nxt
    elems = _elements(group)
    return {elems[x]: w for x, w in words.items()}


def _relation_rows(group: FinAbGroup, elements) -> list[list[int]]:
    """The coordinates of ``elements`` in coordinate order, then the rows
    d_i e_i: together they span the preimage in Z^k of the subgroup the
    elements generate."""
    k = len(group.factors)
    rows = [list(g.coords) for g in sorted(elements, key=lambda g: g.coords)]
    return rows + [[group.factors[i] if j == i else 0 for j in range(k)] for i in range(k)]


def subgroup_from_members(group: FinAbGroup, members) -> Subgroup:
    """The subgroup with exactly these elements, generated by the Hermite
    basis of their relation rows.  That span holds every member, so it is
    the member set exactly when the set is a subgroup; otherwise this is an
    error."""
    members = frozenset(members)
    basis = map(group.element, hermite_basis(_relation_rows(group, members)))
    sub = Subgroup(group, tuple(g for g in basis if not g.is_identity))
    if sub.elements != members:
        raise ValueError("the member set is not a subgroup")
    return sub


@lru_cache(maxsize=None)
def _addition_table(group: FinAbGroup) -> tuple[tuple[int, ...], ...]:
    """``add[a][b]`` is the index of the product of elements a and b, where an
    element's index is its position in ``group.elements()`` (mixed radix over
    the factors, the last one fastest)."""
    add = [[0]]
    for d in group.factors:
        n = len(add) * d
        add = [
            [add[a // d][b // d] * d + (a % d + b % d) % d for b in range(n)]
            for a in range(n)
        ]
    return tuple(map(tuple, add))


@lru_cache(maxsize=None)
def _element_index(group: FinAbGroup) -> dict[tuple[int, ...], int]:
    """Each element's index in ``group.elements()`` by its reduced coordinates."""
    return {g.coords: i for i, g in enumerate(group.elements())}


@lru_cache(maxsize=None)
def all_subgroups(group: FinAbGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of ``group``, ordered by order, then by sorted elements.

    Every subgroup is a join of cyclic subgroups, so saturating the trivial
    subgroup under joins with the distinct cyclic subgroups finds them all.
    The search runs on element indices; a join S + C is |S|*|C| lookups in
    the addition table.  Breadth first, a subgroup's generators are those of
    the subgroup it was first reached from plus the first element (in
    coordinate order) generating the cyclic subgroup joined.
    """
    elems = group.elements()
    add = _addition_table(group)
    cyclic: dict[frozenset[int], int] = {}
    for g in range(len(elems)):
        members, x = {0}, g
        while x:
            members.add(x)
            x = add[x][g]
        cyclic.setdefault(frozenset(members), g)
    trivial = frozenset({0})
    found: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for cyc, g in cyclic.items():
                if g in sub:
                    continue
                bigger = frozenset([add[s][c] for s in sub for c in cyc])
                if bigger not in found:
                    found[bigger] = found[sub] + (g,)
                    nxt.append(bigger)
        frontier = nxt
    return tuple(
        Subgroup(group, tuple(elems[g] for g in found[sub]))
        for sub in sorted(found, key=lambda s: (len(s), sorted(s)))
    )


@lru_cache(maxsize=None)
def subgroup_basis(sub: Subgroup):
    """Independent generators for a subgroup.

    Returns (gens, orders, coords) where every element of the subgroup is
    uniquely prod gens[i]**c[i] with 0 <= c[i] < orders[i], and ``coords``
    maps each element to its exponent tuple.
    """
    G = sub.parent
    k = len(G.factors)
    rows = _relation_rows(G, sub.elements)
    B = hermite_basis(rows)
    assert len(B) == k, "subgroup lattice must have full rank"
    # W = D * B^{-1} over Z for D = diag(d_i), the last k relation rows, one
    # solve of B^T w = d_i e_i each (unique: B is square of full rank); rows
    # of W span the kernel of Z^k -> sub, v -> v*B
    Bt = [list(col) for col in zip(*B)]
    smith = smith_form(Bt)
    W = [integer_solve(Bt, row, smith) for row in rows[-k:]]
    # U W V = S and W = D B^-1 give U D = S V^-1 B: the rows of V^-1 B, read
    # off U D, with S_ii > 1 are independent generators of orders S_ii
    S, U, _V = smith_normal_form(W)
    gens = []
    orders = []
    for i in range(k):
        d = S[i][i]
        assert d != 0, "subgroup quotient must be finite"
        if d == 1:
            continue
        row = [U[i][j] * G.factors[j] for j in range(k)]
        assert all(x % d == 0 for x in row), "U*D is not S times an integer matrix"
        gens.append(G.element([x // d for x in row]))
        orders.append(d)
    # over independent generators the first word reached is the reduced
    # exponent tuple, each coordinate below its generator's order
    coords = generator_words(G, gens)
    assert len(coords) == sub.order, "basis does not enumerate the subgroup"
    return tuple(gens), tuple(orders), coords


@lru_cache(maxsize=None)
def quotient(group: FinAbGroup, sub: Subgroup) -> tuple[FinAbGroup, tuple[int, ...]]:
    """G/T in Smith-normalized cyclic-factor form, and the projection
    G -> G/T as a table: ``image[i]`` is the index in ``target.elements()``
    of the image of the i-th element of G.  Derived once per subgroup."""
    if sub.parent != group:
        raise ValueError("subgroup belongs to a different group")
    S, _U, V = smith_normal_form(hermite_basis(_relation_rows(group, sub.elements)))
    kept = [j for j in range(len(group.factors)) if S[j][j] > 1]
    target = FinAbGroup(tuple(S[j][j] for j in kept) or (1,))
    index = _element_index(target)
    image = tuple(
        index[
            tuple(sum(c * V[i][j] for i, c in enumerate(g.coords)) % S[j][j] for j in kept)
            or (0,)
        ]
        for g in _elements(group)
    )
    source = _element_index(group)
    assert not any(image[source[t.coords]] for t in sub.elements), "projection must kill T"
    return target, image


@dataclass(frozen=True)
class CharOrbit:
    """Galois orbit of a character under chi -> chi^k, gcd(k, exponent) = 1:
    the generators of the cyclic subgroup the character spans."""

    representative: GroupElem
    members: frozenset[GroupElem]

    @property
    def field_degree(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return self.representative.is_identity

    def sort_key(self):
        return (0 if self.is_trivial else 1, self.representative.coords)

    def __hash__(self) -> int:  # one tuple hash; equality compares all fields
        return hash(self.representative.coords)

    def __repr__(self) -> str:
        return f"Orbit({self.representative}, size {self.field_degree})"


@lru_cache(maxsize=None)
def dual_and_orbits(group: FinAbGroup) -> tuple[CharOrbit, ...]:
    """All characters of G partitioned into Galois orbits.  In coordinate
    order an orbit is first reached at its least member, its representative,
    so the trivial orbit comes first and the rest in ``sort_key`` order."""
    n = group.exponent
    units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
    seen: set[GroupElem] = set()
    orbits = []
    for chi in _elements(group):
        if chi not in seen:
            members = frozenset(chi**k for k in units)
            seen |= members
            orbits.append(CharOrbit(chi, members))
    assert sum(o.field_degree for o in orbits) == group.order
    return tuple(orbits)


def perp(group: FinAbGroup, elements) -> Subgroup:
    """The g with x.value_exponent(g) = 0 for every x in ``elements``.  As the
    pairing is symmetric, T-perp is ``perp(G, T.elements)``; as chi(g) = 1
    exactly when every Galois conjugate of chi(g) is 1, S-perp for a set S of
    orbits is ``perp(G, [o.representative for o in S])``."""
    elements = tuple(elements)
    members = [g for g in _elements(group) if all(x.value_exponent(g) == 0 for x in elements)]
    return subgroup_from_members(group, members)
