"""Descriptors of direct limits of graded matrix algebras and the budgeted
classification procedures.

A descriptor is M_{x0} (x) M_{a_1} (x) M_{a_2} (x) ... with an eventually
periodic label sequence (finite prefix plus repeated cycle), optionally
tensored with a graded-division algebra.  Standard-form reduction makes every
label's character support a fixed set S; the ordered K-theory datum is then
realized as explicit cyclotomic coordinates with denominator sequence the
partial products of the labels.

All procedures return three-valued verdicts.  A yes or no always carries a
certificate that can be replayed by exact arithmetic; unknown means the
search budget ran out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat
from math import gcd, isqrt, prod
from operator import mul

from .abelian import (
    CharOrbit,
    FinAbGroup,
    GroupElem,
    Subgroup,
    dual_and_orbits,
    quotient,
)
from .codec import elem_payload, exact, orbit_index, orbit_payload, parse_element, parse_label
from .divalg import DivisionClass, brauer_mul
from .groupring import (
    GroupRingElem,
    ProjCoords,
    canonical_orbits,
    cone_preimage,
    lattice_preimage,
    project,
    pushforward,
    subgroup_sum,
    supp_orbits,
)

DEFAULT_BUDGET = 32
DEFAULT_PRIME_BUDGET = 13
# _norm_obstruction trial-divides only up to this bound
TRIAL_DIVISION_CAP = 10**6


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class TriBool:
    """A yes/no/unknown verdict; yes and no always carry a certificate."""

    verdict: str
    certificate: dict

    def __post_init__(self):
        if self.verdict not in ("yes", "no", "unknown"):
            raise ValueError(f"bad verdict {self.verdict!r}")

    @staticmethod
    def yes(certificate: dict) -> "TriBool":
        return TriBool("yes", certificate)

    @staticmethod
    def no(certificate: dict) -> "TriBool":
        return TriBool("no", certificate)

    @staticmethod
    def unknown(certificate: dict | None = None) -> "TriBool":
        return TriBool("unknown", certificate or {"kind": "budget-exhausted"})

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"

    @property
    def is_no(self) -> bool:
        return self.verdict == "no"

    @property
    def is_certified(self) -> bool:
        return self.verdict != "unknown"


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class LimitDescriptor:
    """An eventually periodic direct limit M_{x0} (x) (x)_i M_{a_i} ((x) D)."""

    group: FinAbGroup
    x0: GroupRingElem
    prefix: tuple[GroupRingElem, ...]
    cycle: tuple[GroupRingElem, ...]
    division: DivisionClass | None = None

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must contain at least one label")
        for lbl in (self.x0, *self.prefix, *self.cycle):
            if lbl.group != self.group:
                raise ValueError("label over the wrong group")
            if lbl.is_zero:
                raise ValueError("labels must be nonzero")
            if not lbl.is_nonneg_integer:
                raise ValueError("labels must have nonnegative integer coefficients")
        if self.division is not None and self.division.group != self.group:
            raise ValueError("division class over the wrong group")

    @property
    def is_elementary(self) -> bool:
        return self.division is None or self.division.is_trivial

    def elementary_part(self) -> "LimitDescriptor":
        """The descriptor without its division part: itself when it has none,
        else one copy made on the first call."""
        return self if self.division is None else self._elementary

    # derived once, on first use, so a decision and its replay share them

    @cached_property
    def _elementary(self) -> "LimitDescriptor":
        return replace(self, division=None)

    @cached_property
    def _tensors(self) -> dict[GroupRingElem, "LimitDescriptor"]:
        """``tensor_elementary(self, c)`` by the factor c."""
        return {}

    @cached_property
    def realization(self) -> "K0Descriptor":
        """The realized K0 datum that ``k0_realization`` returns."""
        return _realize(self)


def tensor_elementary(d: LimitDescriptor, c: GroupRingElem) -> LimitDescriptor:
    """Tensor with one more matrix factor: x0 becomes c*x0, labels unchanged.
    Made once per factor and kept on ``d``, so a decision and its replay
    realize the same tensor."""
    if c.is_zero:
        raise ValueError("matrix factor must be nonzero")
    if not c.is_nonneg_integer:
        raise ValueError("matrix factor must have nonnegative integer coefficients")
    if c not in d._tensors:
        d._tensors[c] = replace(d, x0=c * d.x0)
    return d._tensors[c]


def quotient_pushforward(d: LimitDescriptor, sub: Subgroup) -> LimitDescriptor:
    """Push a descriptor through G -> G/T, adding coefficients inside cosets."""
    if d.division is not None:
        raise ValueError("pushforward is defined on elementary descriptors")
    target, image = quotient(d.group, sub)
    push = functools.partial(pushforward, target=target, image=image)
    prefix, cycle = tuple(map(push, d.prefix)), tuple(map(push, d.cycle))
    return LimitDescriptor(target, push(d.x0), prefix, cycle)


def standard_form(d: LimitDescriptor) -> LimitDescriptor:
    """Equivalent descriptor in which every label has character support S and
    the initial multiset's support is contained in S.

    The prefix is absorbed into x0, then cycle labels are absorbed until the
    support condition holds, and the cycle is merged into the product over one
    period (a cofinal subsequence, so the limit is unchanged).
    """
    x0, cycle_product, _S, _S0 = _standard(d)
    return LimitDescriptor(d.group, x0, (), (cycle_product,), d.division)


def _standard(d: LimitDescriptor):
    """The standard-form pass: (x0, cycle product, S, S0), where S is the
    support of the cycle product and S0, contained in S, that of x0."""
    cycle_product = prod(d.cycle, start=GroupRingElem.one(d.group))
    S = supp_orbits(cycle_product)
    x0 = prod(d.prefix, start=d.x0)
    absorbed = 0
    while not (s0 := supp_orbits(x0)) <= S:
        x0 = x0 * d.cycle[absorbed % len(d.cycle)]
        absorbed += 1
        if absorbed > len(d.cycle):
            raise AssertionError("support did not stabilize within one period")
    return x0, cycle_product, S, s0


def support_invariants(d: LimitDescriptor):
    """The invariants (S, S0) of the elementary part."""
    _x0, _cycle, S, s0 = _standard(d.elementary_part())
    return S, s0


# ---------------------------------------------------------------------------
# realized K-theory data


@dataclass(frozen=True)
class K0Descriptor:
    """Realized ordered K-theory datum of a standard-form descriptor."""

    group: FinAbGroup
    orbits: tuple[CharOrbit, ...]  # S, canonically ordered
    s0: frozenset[CharOrbit]
    x0_bar: GroupRingElem
    cycle_bar: GroupRingElem

    @cached_property
    def order_unit(self) -> ProjCoords:
        return project(self.x0_bar, self.orbits)

    @cached_property
    def cycle(self) -> ProjCoords:
        """pi(cycle_bar) on S; pi is a ring map, so the denominators are its powers."""
        return project(self.cycle_bar, self.orbits)

    @cached_property
    def cycle_norms(self) -> tuple[Fraction, ...]:
        """The norm to Q of each cycle coordinate, in orbit order."""
        return tuple(v.norm_to_q() for v in self.cycle.values)

    @property
    def S(self) -> frozenset[CharOrbit]:
        return frozenset(self.orbits)

    def denominators(self, budget: int):
        """Coordinates of the unrolled denominators cycle^i, i = 1..budget."""
        power = self.cycle
        for i in range(1, budget + 1):
            if i > 1:
                power = power * self.cycle
            yield i, power


def k0_realization(d: LimitDescriptor) -> K0Descriptor:
    """The realized triple: coordinates of the order-unit and denominators.

    With a division part of support T the realization is computed over G/T
    through the coefficient-collapsing pushforward.  It is derived once per
    descriptor (``LimitDescriptor.realization``).
    """
    return d.realization


def _realize(d: LimitDescriptor) -> K0Descriptor:
    """The body of ``k0_realization``, run once per descriptor."""
    base = d.elementary_part()
    if not d.is_elementary:
        base = quotient_pushforward(base, d.division.support)
    x0, cycle_product, S, s0 = _standard(base)
    orbits = canonical_orbits(base.group, S)
    assert orbits[0].is_trivial, "the trivial orbit is always in S"
    # the bar conjugates every character value, so the cycle vanishes nowhere on S
    return K0Descriptor(base.group, orbits, s0, x0.bar(), cycle_product.bar())


# ---------------------------------------------------------------------------
# membership in K and K+


def _valuation(q: Fraction, p: int) -> int:
    if q == 0:
        raise ValueError("valuation of zero")
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _least_factor(m: int) -> int:
    """The least prime factor of m when it is at most TRIAL_DIVISION_CAP or
    m is prime; otherwise m itself."""
    for p in range(2, min(isqrt(m), TRIAL_DIVISION_CAP) + 1):
        if m % p == 0:
            return p
    return m


def _norm_obstruction(k0: K0Descriptor, z: ProjCoords) -> dict | None:
    """A factor of a coordinate norm's denominator that the cycle can never
    clear: the cycle norm's primes are stripped by gcd, then the rest is
    trial-divided up to its square root or TRIAL_DIVISION_CAP, whichever is
    smaller (past the cap the certificate names the whole remainder)."""
    for orbit, val, cyc_norm in zip(k0.orbits, z.values, k0.cycle_norms):
        if val.is_zero:
            continue
        nz = val.norm_to_q()
        den = nz.denominator
        while (g := gcd(den, cyc_norm.numerator * cyc_norm.denominator)) != 1:
            den //= g
        if den > 1:
            p = _least_factor(den)
            return {
                "kind": "norm-obstruction",
                "orbit": orbit_payload(orbit),
                "prime": p,
                "value_valuation": _valuation(nz, p),
                # 0: standard_form leaves no prefix (key kept for the schema)
                "prefix_valuation_cap": 0,
            }
    return None


def _member_search(k0: K0Descriptor, z: ProjCoords, budget: int, cone: bool) -> TriBool:
    """Try the norm obstruction, which rules out a witness at every index,
    then search the denominators for an integral (cone: nonnegative)
    preimage of z times cycle^i."""
    if z.is_zero:
        return TriBool.yes(
            {"kind": "member-witness", "cone": cone, "index": 1, "witness": []}
        )
    obstruction = _norm_obstruction(k0, z)
    if obstruction is not None:
        return TriBool.no(obstruction)
    preimage = cone_preimage if cone else lattice_preimage
    for i, b in k0.denominators(budget):
        w = preimage(z * b)
        if w is not None:
            return TriBool.yes(
                {
                    "kind": "member-witness",
                    "cone": cone,
                    "index": i,
                    "witness": elem_payload(w),
                }
            )
    return TriBool.unknown({"kind": "budget-exhausted", "budget": budget})


def in_k_group(k0: K0Descriptor, z: ProjCoords, budget: int = DEFAULT_BUDGET) -> TriBool:
    """Membership of a coordinate vector in the realized K group."""
    if z.orbits != k0.orbits:
        raise ValueError("coordinates over the wrong orbit set")
    return _member_search(k0, z, budget, cone=False)


def in_positive_cone(
    k0: K0Descriptor, z: ProjCoords, budget: int = DEFAULT_BUDGET
) -> TriBool:
    """Membership of a coordinate vector in the realized positive cone."""
    if z.orbits != k0.orbits:
        raise ValueError("coordinates over the wrong orbit set")
    if k0.orbits[0].is_trivial:
        trivial_value = z.values[0]
        if not trivial_value.is_rational:
            return TriBool.no({"kind": "irrational-trivial-coordinate"})
        tv = trivial_value.as_rational()
        if tv < 0:
            return TriBool.no(
                {"kind": "negative-trivial-coordinate", "value": str(tv)}
            )
        if not z.is_zero and tv == 0:
            return TriBool.no({"kind": "zero-trivial-coordinate"})
    return _member_search(k0, z, budget, cone=True)


# ---------------------------------------------------------------------------
# scaling, absorption


def scaling_invertible(
    k0: K0Descriptor, c: GroupRingElem, budget: int = DEFAULT_BUDGET
) -> TriBool:
    """Does multiplication by the bar of c map the positive cone onto itself?

    The inclusion into the cone is automatic; equality reduces to membership
    of 1/pi(cbar) in the cone, and one witness propagates to every unroll
    index by periodicity.
    """
    if c.group != k0.group:
        raise ValueError("scaler over the wrong group")
    if c.is_zero or not c.is_nonneg_integer:
        raise ValueError("scaler must be a nonzero nonnegative integer element")
    supp_c = supp_orbits(c)
    missing = [o for o in k0.orbits if o not in supp_c]
    if missing:
        return TriBool.no({"kind": "support-deficit", "orbit": orbit_payload(missing[0])})
    target = project(c.bar(), k0.orbits).inverse()
    inner = in_positive_cone(k0, target, budget)
    cert = {"kind": "scaling", "scaler": elem_payload(c), "inner": inner.certificate}
    return TriBool(inner.verdict, cert)


def absorbs_k0(k0: K0Descriptor, d_class: DivisionClass, budget: int = DEFAULT_BUDGET) -> TriBool:
    """Absorption test against a realized K-theory datum."""
    if d_class.group != k0.group:
        raise ValueError("division class over the wrong group")
    # the first t of T outside S-perp, and the first orbit of S not trivial on it
    for t in d_class.support.sorted_elements():
        bad = next(
            (o for o in k0.orbits if o.representative.value_exponent(t) != 0), None
        )
        if bad is not None:
            return TriBool.no(
                {
                    "kind": "support-obstruction",
                    "element": list(t.coords),
                    "orbit": orbit_payload(bad),
                }
            )
    order = d_class.support.order
    inner = scaling_invertible(k0, GroupRingElem.constant(k0.group, order), budget)
    cert = {"kind": "absorption", "support_order": order, "inner": inner.certificate}
    return TriBool(inner.verdict, cert)


def brauer_equivalent(
    d: DivisionClass, dprime: DivisionClass, k0: K0Descriptor, budget: int
) -> TriBool:
    """Equivalence of division classes relative to an ordered K0 datum:
    the support of D (x) D'^op must annihilate S and its order must scale the
    positive cone invertibly."""
    e_class, _y, _h = brauer_mul(d, dprime)
    return absorbs_k0(k0, e_class, budget)


def absorbs(
    d: LimitDescriptor, d_class: DivisionClass, budget: int = DEFAULT_BUDGET
) -> TriBool:
    """Is the graded-division algebra absorbed by the elementary limit?

    Yes means the tensor product is isomorphic to the limit itself.  The test
    is: the support annihilates S, and |T| scales the cone invertibly.
    """
    if d.division is not None and not d.division.is_trivial:
        raise ValueError("absorption is tested against an elementary descriptor")
    if d_class.group != d.group:
        raise ValueError("division class over the wrong group")
    return absorbs_k0(k0_realization(d.elementary_part()), d_class, budget)


# ---------------------------------------------------------------------------
# isomorphism procedures


def _solve_initial_factor(
    k0a: K0Descriptor, rhs: GroupRingElem, pinned: GroupRingElem | None
) -> GroupRingElem | None:
    """A nonnegative integer b with b*x0bar = rhs and support exactly S.

    Coordinates on S0 are forced by division, coordinates off S must vanish;
    coordinates on S minus S0 are free (or pinned to the given element's
    values on a retry).  Returns None when the constrained cone is empty or
    the free coordinates came out vanishing.
    """
    # dual_and_orbits is in canonical order, so the target's orbits are too
    all_orbits = dual_and_orbits(k0a.group)
    rhs_c, x0_c = (project(z, all_orbits).values for z in (rhs, k0a.x0_bar))
    pin_c = repeat(None) if pinned is None else project(pinned, all_orbits).values
    forced = []
    for o, rv, xv, pv in zip(all_orbits, rhs_c, x0_c, pin_c):
        if o in k0a.s0:
            forced.append((o, rv * xv.inverse()))
        elif o not in k0a.S:
            forced.append((o, rv * 0))  # zero off S
        elif pv is not None:
            forced.append((o, pv))
    orbs, values = zip(*forced)
    b = cone_preimage(ProjCoords(k0a.group, orbs, values))
    if b is None or any(v.is_zero for v in project(b, k0a.orbits).values):
        return None
    return b


def iso_elementary(
    d: LimitDescriptor,
    d2: LimitDescriptor,
    budget: int = DEFAULT_BUDGET,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
) -> TriBool:
    """Isomorphism of two elementary limits over the same group.

    Certified no comes from invariant mismatch (S or S0), dimension-type
    mismatch (one side finite-dimensional), finite type with no shift
    between the order units, or a separating prime scaling invariant;
    certified yes from an explicit pair (b, b') equalizing the order-units
    together with replayable mutual cone memberships and cycle divisibility
    witnesses.  Everything else is unknown.
    """
    if d.group != d2.group:
        raise ValueError("descriptors over different groups")
    if not (d.is_elementary and d2.is_elementary):
        raise ValueError("iso_elementary requires elementary descriptors")
    k0a = k0_realization(d)
    k0b = k0_realization(d2)
    if k0a.S != k0b.S:
        return TriBool.no(
            {
                "kind": "invariant-mismatch",
                "invariant": "S",
                "left": [orbit_payload(o) for o in k0a.orbits],
                "right": [orbit_payload(o) for o in k0b.orbits],
            }
        )
    if k0a.s0 != k0b.s0:
        return TriBool.no(
            {
                "kind": "invariant-mismatch",
                "invariant": "S0",
                "left": [orbit_payload(o) for o in canonical_orbits(d.group, k0a.s0)],
                "right": [orbit_payload(o) for o in canonical_orbits(d.group, k0b.s0)],
            }
        )
    # a size-1 cycle presents a finite-dimensional algebra: the matrix sizes
    # stabilize and isomorphism is exactly shift-equivalence of the multiset
    finite_a = k0a.cycle_bar.size() == 1
    finite_b = k0b.cycle_bar.size() == 1
    if finite_a != finite_b:
        return TriBool.no(
            {
                "kind": "dimension-type-mismatch",
                "left_cycle_size": str(k0a.cycle_bar.size()),
                "right_cycle_size": str(k0b.cycle_bar.size()),
            }
        )
    if finite_a and finite_b:
        shift = _shift_between(k0a.x0_bar, k0b.x0_bar)
        if shift is None:
            return TriBool.no({"kind": "finite-type-no-shift"})

    for p in _primes_up_to(prime_budget):
        scaler = GroupRingElem.constant(d.group, p)
        va = scaling_invertible(k0a, scaler, budget)
        vb = scaling_invertible(k0b, scaler, budget)
        if va.is_certified and vb.is_certified and va.verdict != vb.verdict:
            return TriBool.no(
                {
                    "kind": "prime-separation",
                    "prime": p,
                    "left_verdict": va.verdict,
                    "left": va.certificate,
                    "right_verdict": vb.verdict,
                    "right": vb.certificate,
                }
            )

    # cycle divisibility: 1/pi(c_a) in K_b^+ (a witness u at index delta says
    # c_a * pi(u) = c_b^delta with u >= 0), and the mirror.  A norm
    # obstruction proves there is none at any index; it ends unknown here
    # like an exhausted walk.
    cycles = {}
    for way, k_src, k_other in (("forward", k0b, k0a), ("backward", k0a, k0b)):
        r = in_positive_cone(k_src, k_other.cycle.inverse(), budget)
        if not r.is_yes:
            return TriBool.unknown(
                {"kind": "budget-exhausted", "stage": "cycle-divisibility", "budget": budget}
            )
        delta, witness = r.certificate["index"], r.certificate["witness"]
        cycles["cycle_" + way] = {"delta": delta, "witness": witness}

    s_is_everything = len(k0a.orbits) == len(dual_and_orbits(d.group))
    start = 0 if s_is_everything else 1
    # the powers cycle_bar^k for k = start..budget, drawn as they are tried
    powers = accumulate(repeat(k0b.cycle_bar), mul, initial=GroupRingElem.one(d.group))
    for b2 in islice(powers, start, budget + 1):
        rhs = b2 * k0b.x0_bar
        lhs = b2 * k0a.x0_bar
        # order units related by a shift: try translated copies of b' first
        # (the identity comes first, so b' itself when the order units agree)
        b_list = [b2.translate(g) for g in d.group.elements() if lhs.translate(g) == rhs]
        for pinned in (None, b2, b2 * k0a.cycle_bar):
            cand = _solve_initial_factor(k0a, rhs, pinned)
            if cand is not None:
                b_list.append(cand)
        for b in b_list:
            if b * k0a.x0_bar != rhs or supp_orbits(b) != k0a.S:
                continue
            # base memberships, as the replay checks them: b/b' in K_b^+
            # (forward) and b'/b in K_a^+ (backward)
            b_c = project(b, k0a.orbits)
            b2_c = project(b2, k0a.orbits)
            fwd = in_positive_cone(k0b, b_c * b2_c.inverse(), budget)
            if not fwd.is_yes:
                continue
            bwd = in_positive_cone(k0a, b2_c * b_c.inverse(), budget)
            if bwd.is_yes:
                return TriBool.yes(
                    {
                        "kind": "iso-witness",
                        "b": elem_payload(b),
                        "b_prime": elem_payload(b2),
                        "base_forward": fwd.certificate,
                        "base_backward": bwd.certificate,
                        **cycles,
                    }
                )
    return TriBool.unknown(
        {"kind": "budget-exhausted", "budget": budget, "prime_budget": prime_budget}
    )


def _shift_between(x: GroupRingElem, y: GroupRingElem) -> GroupElem | None:
    """A group element g with g*x = y, if one exists."""
    return next((g for g in x.group.elements() if x.translate(g) == y), None)


def _primes_up_to(bound: int) -> list[int]:
    out = []
    for p in range(2, bound + 1):
        if all(p % q for q in out):
            out.append(p)
    return out


def _general_operands(d: LimitDescriptor, d2: LimitDescriptor):
    """(E, y, left, right) for ``iso_general``: D (x) D'^op = M_y(E), and the
    elementary parts it compares, d's tensored with y and d2's with x_{T'}."""
    cls2 = d2.division or DivisionClass.trivial(d2.group)
    e_class, y, _h = brauer_mul(d.division or DivisionClass.trivial(d.group), cls2)
    left = tensor_elementary(d.elementary_part(), y)
    return e_class, y, left, tensor_elementary(d2.elementary_part(), subgroup_sum(cls2.support))


def iso_general(
    d: LimitDescriptor,
    d2: LimitDescriptor,
    budget: int = DEFAULT_BUDGET,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
) -> TriBool:
    """Isomorphism of limits with graded-division parts.

    Reduces to (i) absorption of the Brauer quotient class by the first
    elementary part and (ii) elementary isomorphism after tensoring with the
    matrix multiset relating the two division algebras.
    """
    if d.group != d2.group:
        raise ValueError("descriptors over different groups")
    e_class, y, left, right = _general_operands(d, d2)
    part1 = absorbs(d.elementary_part(), e_class, budget)
    if part1.is_no:
        return TriBool.no({"kind": "absorption-fails", "inner": part1.certificate})
    part2 = iso_elementary(left, right, budget, prime_budget)
    if part2.is_no:
        return TriBool.no({"kind": "elementary-part", "inner": part2.certificate})
    if part1.is_yes and part2.is_yes:
        return TriBool.yes(
            {
                "kind": "general-iso",
                "absorption": part1.certificate,
                "elementary": part2.certificate,
                "y": elem_payload(y),
                "support_product_class": [
                    list(t.coords) for t in e_class.support.sorted_elements()
                ],
            }
        )
    return TriBool.unknown(
        {
            "kind": "budget-exhausted",
            "absorption": part1.certificate,
            "elementary": part2.certificate,
        }
    )


# ---------------------------------------------------------------------------
# certificate replay
#
# One boundary: each public verify_* is total.  It returns a bool and never
# raises; a certificate of a kind outside its table, one certifying a verdict
# its kind may not certify, and a malformed one (a missing key, a field of
# the wrong type) replay False.  Every field that replay reads is read
# through ``glim.codec``, whose ``DescriptorError`` names the field.

_YES, _NO, _UNKNOWN = ("yes",), ("no",), ("unknown",)
_ANY = _YES + _NO + _UNKNOWN


def _replay(kinds: dict[str, tuple[str, ...]]):
    """Make a replay body ``body(x, y, verdict, cert)`` total; ``kinds`` maps
    each certificate kind it replays to the verdicts that kind may certify."""

    def decorate(body):
        @functools.wraps(body)
        def verify(x, y, verdict: str, cert: dict) -> bool:
            try:
                return verdict in kinds[cert["kind"]] and body(x, y, verdict, cert) is True
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                return False

        return verify

    return decorate


_MEMBER = {"member-witness": _YES, "norm-obstruction": _NO, "budget-exhausted": _UNKNOWN}


@_replay(_MEMBER)
def verify_member_certificate(
    k0: K0Descriptor, z: ProjCoords, verdict: str, cert: dict
) -> bool:
    """Replay a certificate of membership in the realized K group."""
    if z.orbits != k0.orbits:
        return False
    kind = cert["kind"]
    if kind == "member-witness":
        w = parse_label(k0.group, cert["witness"], "witness", certificate=True)
        if not (w.is_nonneg_integer if exact(cert["cone"], bool, "cone") else w.is_integer):
            return False
        index = exact(cert["index"], int, "index")
        return index >= 1 and project(w, k0.orbits) == z * k0.cycle**index
    if kind == "norm-obstruction":
        # any p >= 2 prime to the cycle norm and dividing the value's norm
        # denominator has a prime factor that no denominator can clear
        p = exact(cert["prime"], int, "prime")
        idx = orbit_index(k0.orbits, cert["orbit"], "orbit")
        val = z.values[idx]
        cyc_norm = k0.cycle_norms[idx]
        return (
            p >= 2
            and not val.is_zero
            and gcd(p, cyc_norm.numerator * cyc_norm.denominator) == 1
            and val.norm_to_q().denominator % p == 0
        )
    return kind == "budget-exhausted"


@_replay({**_MEMBER, "negative-trivial-coordinate": _NO,
          "zero-trivial-coordinate": _NO, "irrational-trivial-coordinate": _NO})
def verify_cone_certificate(
    k0: K0Descriptor, z: ProjCoords, verdict: str, cert: dict
) -> bool:
    """Replay a certificate of membership in the positive cone.  The
    trivial-coordinate kinds refute the cone only; a yes must be a cone
    witness, as a lattice witness (``cone`` false) shows membership in K."""
    if z.orbits != k0.orbits:
        return False
    kind = cert["kind"]
    trivial = z.values[0]
    if kind == "negative-trivial-coordinate":
        return trivial.is_rational and trivial.as_rational() < 0
    if kind == "zero-trivial-coordinate":
        return trivial.is_rational and trivial.as_rational() == 0 and not z.is_zero
    if kind == "irrational-trivial-coordinate":
        return not trivial.is_rational
    cone_witness = verdict != "yes" or exact(cert["cone"], bool, "cone")
    return cone_witness and verify_member_certificate(k0, z, verdict, cert)


@_replay({"support-deficit": _NO, "scaling": _ANY})
def verify_scaling_certificate(
    k0: K0Descriptor, c: GroupRingElem, verdict: str, cert: dict
) -> bool:
    if cert["kind"] == "support-deficit":
        return k0.orbits[orbit_index(k0.orbits, cert["orbit"], "orbit")] not in supp_orbits(c)
    if parse_label(k0.group, cert["scaler"], "scaler", certificate=True) != c:
        return False
    target = project(c.bar(), k0.orbits).inverse()
    return verify_cone_certificate(k0, target, verdict, cert["inner"])


_ABSORPTION = {"support-obstruction": _NO, "absorption": _ANY}


@_replay(_ABSORPTION)
def verify_absorbs_certificate(
    d: LimitDescriptor, d_class: DivisionClass, verdict: str, cert: dict
) -> bool:
    return verify_absorbs_k0_certificate(
        k0_realization(d.elementary_part()), d_class, verdict, cert
    )


@_replay(_ABSORPTION)
def verify_absorbs_k0_certificate(
    k0: K0Descriptor, d_class: DivisionClass, verdict: str, cert: dict
) -> bool:
    order = d_class.support.order
    if cert["kind"] == "support-obstruction":
        t = parse_element(k0.group, cert["element"], "element")
        orbit = k0.orbits[orbit_index(k0.orbits, cert["orbit"], "orbit")]
        return t in d_class.support and orbit.representative.value_exponent(t) != 0
    if exact(cert["support_order"], int, "support_order") != order:
        return False
    scaler = GroupRingElem.constant(k0.group, order)
    return verify_scaling_certificate(k0, scaler, verdict, cert["inner"])


@_replay({"invariant-mismatch": _NO, "dimension-type-mismatch": _NO,
          "finite-type-no-shift": _NO, "prime-separation": _NO,
          "iso-witness": _YES, "budget-exhausted": _UNKNOWN})
def verify_iso_certificate(
    d: LimitDescriptor, d2: LimitDescriptor, verdict: str, cert: dict
) -> bool:
    """Replay an elementary-isomorphism certificate."""
    kind = cert["kind"]
    k0a = k0_realization(d)
    k0b = k0_realization(d2)
    if kind == "invariant-mismatch":
        return {"S": k0a.S != k0b.S, "S0": k0a.s0 != k0b.s0}[cert["invariant"]]
    finite_a = k0a.cycle_bar.size() == 1
    finite_b = k0b.cycle_bar.size() == 1
    if kind == "dimension-type-mismatch":
        return finite_a != finite_b
    if kind == "finite-type-no-shift":
        return finite_a and finite_b and _shift_between(k0a.x0_bar, k0b.x0_bar) is None
    if kind == "prime-separation":
        scaler = GroupRingElem.constant(d.group, exact(cert["prime"], int, "prime"))
        left, right = cert["left_verdict"], cert["right_verdict"]
        return (
            {left, right} == {"yes", "no"}
            and verify_scaling_certificate(k0a, scaler, left, cert["left"])
            and verify_scaling_certificate(k0b, scaler, right, cert["right"])
        )
    if kind == "iso-witness":
        b = parse_label(d.group, cert["b"], "b", certificate=True)
        b2 = parse_label(d.group, cert["b_prime"], "b_prime", certificate=True)
        if not (b.is_nonneg_integer and b2.is_nonneg_integer) or k0a.orbits != k0b.orbits:
            return False
        same_support = supp_orbits(b) == supp_orbits(b2) == k0a.S
        if not same_support or b * k0a.x0_bar != b2 * k0b.x0_bar:
            return False
        b_c = project(b, k0a.orbits)
        b2_c = project(b2, k0a.orbits)
        for way, k_src, k_other, ratio in (
            ("forward", k0b, k0a, b_c * b2_c.inverse()),
            ("backward", k0a, k0b, b2_c * b_c.inverse()),
        ):
            if not verify_cone_certificate(k_src, ratio, "yes", cert["base_" + way]):
                return False
            # the cycle divisibility of iso_elementary: 1/pi(c_other) in K_src^+
            cycle = cert["cycle_" + way]
            delta = exact(cycle["delta"], int, f"cycle_{way}.delta")
            member = {"kind": "member-witness", "cone": True, "index": delta,
                      "witness": cycle["witness"]}
            if not verify_cone_certificate(k_src, k_other.cycle.inverse(), "yes", member):
                return False
        return True
    return kind == "budget-exhausted"


@_replay({"absorption-fails": _NO, "elementary-part": _NO, "general-iso": _YES,
          "budget-exhausted": _UNKNOWN})
def verify_general_iso_certificate(
    d: LimitDescriptor, d2: LimitDescriptor, verdict: str, cert: dict
) -> bool:
    kind = cert["kind"]
    e_class, y, left, right = _general_operands(d, d2)
    de = d.elementary_part()
    if kind == "absorption-fails":
        return verify_absorbs_certificate(de, e_class, "no", cert["inner"])
    if kind == "budget-exhausted":
        return True
    if kind == "elementary-part":
        return verify_iso_certificate(left, right, "no", cert["inner"])
    return (
        parse_label(d.group, cert["y"], "y", certificate=True) == y
        and verify_absorbs_certificate(de, e_class, "yes", cert["absorption"])
        and verify_iso_certificate(left, right, "yes", cert["elementary"])
    )
