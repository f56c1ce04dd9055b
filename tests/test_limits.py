import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from glim import exactsolve, limits
from glim.abelian import GroupElem, Subgroup, group_new
from glim.codec import elem_payload
from glim.cyclotomic import get_field
from glim.divalg import DivisionClass, enumerate_division_classes
from glim.groupring import (
    GroupRingElem,
    ProjCoords,
    cone_preimage,
    project,
    subgroup_sum,
    supp_orbits,
)
from glim.limits import (
    LimitDescriptor,
    absorbs,
    absorbs_k0,
    in_k_group,
    in_positive_cone,
    iso_elementary,
    iso_general,
    k0_realization,
    quotient_pushforward,
    scaling_invertible,
    standard_form,
    support_invariants,
    tensor_elementary,
    verify_absorbs_certificate,
    verify_cone_certificate,
    verify_general_iso_certificate,
    verify_iso_certificate,
    verify_member_certificate,
    verify_scaling_certificate,
)

from conftest import (
    PRESENTATION_TRANSFORMS,
    const,
    equivalent_presentation,
    random_descriptor,
    random_label,
    uhf,
)
from test_derive_once import DECIDE_MIXED_GROUPS
from test_golden import BUDGET as GOLDEN_BUDGET
from test_golden import _verdict as canonical_verdict
from test_golden import golden_queries


# ---------------------------------------------------------------------------
# descriptors, standard form, invariants


def test_descriptor_validation(klein):
    with pytest.raises(ValueError):
        LimitDescriptor(klein, GroupRingElem.zero(klein), (), (const(klein, 2),))
    with pytest.raises(ValueError):
        LimitDescriptor(klein, const(klein, 1), (), ())
    with pytest.raises(ValueError):
        LimitDescriptor(
            klein, const(klein, 1), (), (GroupRingElem.constant(klein, Fraction(1, 2)),)
        )


def test_standard_form_absorbs_one_step():
    z2 = group_new([2])
    label = GroupRingElem.from_dict(z2, {z2.identity: 1, z2.element((1,)): 1})
    d = LimitDescriptor(z2, GroupRingElem.one(z2), (), (label,))
    sf = standard_form(d)
    assert sf.x0 == label  # one absorption step: supp(e) is too big
    assert sf.cycle == (label,)
    assert len(supp_orbits(sf.x0)) == 1


def test_standard_form_keeps_standard_input(klein, x_t):
    d = LimitDescriptor(klein, x_t, (), (x_t,))
    sf = standard_form(d)
    assert sf.x0 == x_t and sf.cycle == (x_t,)


def test_standard_form_merges_prefix(trivial_group):
    t = trivial_group
    d = LimitDescriptor(t, const(t, 1), (const(t, 2), const(t, 3)), (const(t, 5),))
    sf = standard_form(d)
    assert sf.x0 == const(t, 6)
    assert sf.prefix == ()
    assert sf.cycle == (const(t, 5),)


def test_support_invariants_examples(klein, x_t):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    s, s0 = support_invariants(a)
    assert len(s) == 4 and len(s0) == 4
    a_prime = LimitDescriptor(klein, x_t, (), (x_t,))
    s, s0 = support_invariants(a_prime)
    assert len(s) == 1 and len(s0) == 1
    two = uhf(group_new([1]), 2)
    s, s0 = support_invariants(two)
    assert len(s) == len(s0) == 1


def test_invariants_stable_under_merging_and_prepending(klein):
    rng = random.Random(41)
    for _ in range(10):
        d = random_descriptor(rng, klein)
        s, s0 = support_invariants(d)
        # merge consecutive cycle labels (pass to a coarser subsequence)
        merged = LimitDescriptor(klein, d.x0, d.prefix, (_prod(d.cycle),))
        assert support_invariants(merged) == (s, s0)
        # prepend an absorbed step
        stepped = LimitDescriptor(
            klein, d.x0 * d.cycle[0], d.prefix, d.cycle[1:] + d.cycle[:1]
        )
        assert support_invariants(stepped) == (s, s0)


def _prod(labels):
    out = labels[0]
    for lbl in labels[1:]:
        out = out * lbl
    return out


# ---------------------------------------------------------------------------
# realization


def test_k0_realization_example_4_4(klein, x_t):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    k = k0_realization(a)
    f = get_field(2)
    assert len(k.orbits) == 4
    assert all(v == f.scalar(2) for v in k.order_unit.values)
    assert all(v == f.scalar(2) for v in k.cycle.values)

    a_prime = LimitDescriptor(klein, x_t, (), (x_t,))
    kp = k0_realization(a_prime)
    assert len(kp.orbits) == 1
    assert kp.order_unit.values[0] == f.scalar(4)


def test_k0_realization_with_division(klein, pauli):
    a_d = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),), pauli)
    k = k0_realization(a_d)
    assert k.group.order == 1
    assert k.order_unit.values[0].as_rational() == 2


def test_order_unit_trivial_coordinate_is_size(klein):
    rng = random.Random(43)
    for _ in range(10):
        d = standard_form(random_descriptor(rng, klein))
        k = k0_realization(d)
        assert k.order_unit.values[0].as_rational() == d.x0.size()


# ---------------------------------------------------------------------------
# membership


def test_member_k_order_unit(klein):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    k = k0_realization(a)
    r = in_k_group(k, k.order_unit, 4)
    assert r.verdict == "yes" and r.certificate["index"] == 1
    assert verify_member_certificate(k, k.order_unit, r.verdict, r.certificate)


def test_member_witness_with_a_bad_index_does_not_replay(klein):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    k = k0_realization(a)
    r = in_k_group(k, k.order_unit, 4)
    assert verify_member_certificate(k, k.order_unit, r.verdict, r.certificate)
    for index in (0, -1, "1", 1.0):
        cert = dict(r.certificate, index=index)
        assert verify_member_certificate(k, k.order_unit, "yes", cert) is False


def test_member_k_dyadic(trivial_group):
    k = k0_realization(uhf(trivial_group, 2))
    f = get_field(1)
    half = ProjCoords(trivial_group, k.orbits, (f.scalar(Fraction(1, 2)),))
    r = in_k_group(k, half, 8)
    assert r.verdict == "yes"
    third = ProjCoords(trivial_group, k.orbits, (f.scalar(Fraction(1, 3)),))
    r2 = in_k_group(k, third, 8)
    assert r2.verdict == "no"
    assert r2.certificate == {
        "kind": "norm-obstruction",
        "orbit": {"rep": [0], "size": 1},
        "prime": 3,
        "value_valuation": -1,
        "prefix_valuation_cap": 0,
    }
    assert verify_member_certificate(k, third, r2.verdict, r2.certificate)


def test_norm_obstruction_is_tried_before_any_denominator(trivial_group, count_calls):
    # the obstruction rules out a witness at every index, so no budget is walked
    k = k0_realization(uhf(trivial_group, 2))
    third = ProjCoords(trivial_group, k.orbits, (get_field(1).scalar(Fraction(1, 3)),))
    solves = count_calls(limits, "lattice_preimage")
    assert in_k_group(k, third, 10**6).certificate["kind"] == "norm-obstruction"
    assert solves[0] == 0


def test_member_witness_with_a_huge_index_is_refused_quickly(trivial_group):
    k = k0_realization(uhf(trivial_group, 2))
    r = in_k_group(k, k.order_unit, 4)
    cert = dict(r.certificate, index=10**6)
    assert verify_member_certificate(k, k.order_unit, "yes", cert) is False


def test_norm_obstruction_with_a_bad_prime_does_not_replay(trivial_group):
    k = k0_realization(uhf(trivial_group, 2))
    quarter = ProjCoords(
        trivial_group, k.orbits, (get_field(1).scalar(Fraction(1, 4)),)
    )
    assert in_k_group(k, quarter, 4).verdict == "yes"
    for prime in (4, 1, 0, "3"):
        cert = {
            "kind": "norm-obstruction",
            "orbit": {"rep": [0], "size": 1},
            "prime": prime,
            "value_valuation": -1,
            "prefix_valuation_cap": 0,
        }
        assert verify_member_certificate(k, quarter, "no", cert) is False


def test_norm_obstruction_finds_a_large_prime(trivial_group):
    k = k0_realization(uhf(trivial_group, 2))
    # a prime, then a product of two primes past the trial-division cap,
    # which the certificate names whole
    for p in (1000000007, 1000000000039 * 1000000000061):
        z = ProjCoords(trivial_group, k.orbits, (get_field(1).scalar(Fraction(1, p)),))
        r = in_k_group(k, z, 4)
        assert r.verdict == "no"
        assert r.certificate["prime"] == p and r.certificate["value_valuation"] == -1
        assert verify_member_certificate(k, z, r.verdict, r.certificate)


def test_member_k_plus_examples(trivial_group):
    z2 = group_new([2])
    label = GroupRingElem.from_dict(z2, {z2.identity: 1, z2.element((1,)): 1})
    d = LimitDescriptor(z2, label, (), (label,))
    k = k0_realization(d)
    one_coord = project(GroupRingElem.one(z2), k.orbits)
    assert in_positive_cone(k, one_coord, 4).verdict == "yes"

    kt = k0_realization(uhf(trivial_group, 2))
    f = get_field(1)
    zero = ProjCoords(trivial_group, kt.orbits, (f.zero,))
    assert in_positive_cone(kt, zero, 4).verdict == "yes"
    minus = ProjCoords(trivial_group, kt.orbits, (f.scalar(-1),))
    r = in_positive_cone(kt, minus, 4)
    assert r.verdict == "no"
    assert r.certificate["kind"] == "negative-trivial-coordinate"
    assert verify_cone_certificate(kt, minus, r.verdict, r.certificate)


def test_trivial_coordinate_kinds_refute_the_cone_only(trivial_group):
    # -1 lies in K but not in the positive cone, so a trivial-coordinate no
    # replays for the cone and never for K
    kt = k0_realization(uhf(trivial_group, 2))
    minus = ProjCoords(trivial_group, kt.orbits, (get_field(1).scalar(-1),))
    assert in_k_group(kt, minus, 4).verdict == "yes"
    cert = {"kind": "negative-trivial-coordinate"}
    assert verify_cone_certificate(kt, minus, "no", cert)
    assert verify_member_certificate(kt, minus, "no", cert) is False
    for kind in ("zero-trivial-coordinate", "irrational-trivial-coordinate"):
        assert verify_member_certificate(kt, minus, "no", {"kind": kind}) is False


def test_coordinates_over_other_orbits_do_not_replay():
    # the search refuses such coordinates, so replay answers False for them
    # instead of indexing past their values
    z4 = group_new([4])
    label = GroupRingElem.from_dict(z4, {z4.identity: 1, z4.element((1,)): 1})
    k = k0_realization(LimitDescriptor(z4, label, (), (label,)))
    assert len(k.orbits) == 2
    z = project(GroupRingElem.one(z4), k.orbits[:1])
    with pytest.raises(ValueError, match="wrong orbit set"):
        in_k_group(k, z, 4)
    cert = {
        "kind": "norm-obstruction",
        "orbit": {"rep": [1], "size": 2},  # the orbit z lacks
        "prime": 3,
        "value_valuation": -1,
        "prefix_valuation_cap": 0,
    }
    assert verify_member_certificate(k, z, "no", cert) is False
    assert verify_cone_certificate(k, z, "no", cert) is False
    empty = ProjCoords(z4, (), ())
    for kind in ("zero-trivial-coordinate", "negative-trivial-coordinate",
                 "irrational-trivial-coordinate"):
        assert verify_cone_certificate(k, empty, "no", {"kind": kind}) is False


def test_member_monotonicity(klein):
    rng = random.Random(47)
    f = get_field(2)
    for _ in range(8):
        d = random_descriptor(rng, klein)
        k = k0_realization(d)
        denom = project(k.cycle_bar, k.orbits)
        z = k.order_unit * denom.inverse()
        r1 = in_positive_cone(k, z, 6)
        assert r1.verdict == "yes"
        r2 = in_positive_cone(k, z, 12)
        assert r2.verdict == "yes" and r2.certificate["index"] <= r1.certificate["index"]
        # membership in the cone implies membership in the group
        assert in_k_group(k, z, 6).verdict == "yes"


# ---------------------------------------------------------------------------
# scaling and absorption


def test_scaling_invertible_examples(klein, trivial_group):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    k = k0_realization(a)
    r = scaling_invertible(k, const(klein, 2), 8)
    assert r.verdict == "yes"
    assert verify_scaling_certificate(k, const(klein, 2), r.verdict, r.certificate)

    kt = k0_realization(uhf(trivial_group, 2))
    r2 = scaling_invertible(kt, const(trivial_group, 3), 8)
    assert r2.verdict == "no"
    assert verify_scaling_certificate(kt, const(trivial_group, 3), r2.verdict, r2.certificate)
    assert scaling_invertible(kt, const(trivial_group, 1), 4).verdict == "yes"


def test_scaling_support_deficit(klein, x_t):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    k = k0_realization(a)
    r = scaling_invertible(k, x_t, 4)
    assert r.verdict == "no" and r.certificate["kind"] == "support-deficit"
    assert verify_scaling_certificate(k, x_t, r.verdict, r.certificate)


def test_absorbs_examples(klein, pauli, x_t):
    a_prime = LimitDescriptor(klein, x_t, (), (x_t,))
    r = absorbs(a_prime, pauli, 8)
    assert r.verdict == "yes"
    assert verify_absorbs_certificate(a_prime, pauli, r.verdict, r.certificate)

    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    r2 = absorbs(a, pauli, 8)
    assert r2.verdict == "no" and r2.certificate["kind"] == "support-obstruction"
    assert verify_absorbs_certificate(a, pauli, r2.verdict, r2.certificate)

    triv = DivisionClass.trivial(klein)
    assert absorbs(a, triv, 8).verdict == "yes"


def test_absorbs_k0_pairs_only_the_support_with_the_orbits_of_s(count_calls):
    # x0 = cycle = x_G leaves S the trivial orbit alone: |T|*|S| = 4
    # character values decide T in S-perp, not one per element of G
    g = group_new([4, 4])
    x_g = subgroup_sum(Subgroup(g, (g.element((1, 0)), g.element((0, 1)))))
    k0 = k0_realization(LimitDescriptor(g, x_g, (), (x_g,)))
    assert len(k0.orbits) == 1
    d_class = next(c for c in enumerate_division_classes(g) if c.support.order == 4)
    absorbs_k0(k0, d_class)
    values = count_calls(GroupElem, "value_exponent")
    assert absorbs_k0(k0, d_class).verdict == "yes"
    assert values[0] <= 4


def _with_rep(cert: dict, rep: list) -> dict:
    return {**cert, "orbit": {**cert["orbit"], "rep": rep}}


def test_certificate_naming_an_unknown_orbit_does_not_replay(trivial_group, klein, pauli, x_t):
    kt = k0_realization(uhf(trivial_group, 2))
    third = ProjCoords(trivial_group, kt.orbits, (get_field(1).scalar(Fraction(1, 3)),))
    r = in_k_group(kt, third, 8)
    assert r.certificate["kind"] == "norm-obstruction"
    assert not verify_member_certificate(kt, third, "no", _with_rep(r.certificate, [5]))

    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    k = k0_realization(a)
    r = scaling_invertible(k, x_t, 4)
    assert r.certificate["kind"] == "support-deficit"
    assert not verify_scaling_certificate(k, x_t, "no", _with_rep(r.certificate, [5, 5]))

    r = absorbs(a, pauli, 8)
    assert r.certificate["kind"] == "support-obstruction"
    assert not verify_absorbs_certificate(a, pauli, "no", _with_rep(r.certificate, [5, 5]))


def _coordinate_variants(coords: list, factors) -> tuple[list, list]:
    """Tampered copies of a certificate's coordinates that name no element
    (floats and strings that truncate to them), and an out-of-range int copy
    that names the same element."""
    bad = [[c + 0.5 for c in coords], [float(c) for c in coords], [str(c) for c in coords]]
    return bad, [c + d for c, d in zip(coords, factors)]


def test_certificate_with_non_integer_coordinates_does_not_replay(klein, pauli):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    r = absorbs(a, pauli, 8)
    assert r.certificate["kind"] == "support-obstruction"
    bad, shifted = _coordinate_variants(r.certificate["element"], klein.factors)
    for element in bad:
        cert = dict(r.certificate, element=element)
        assert verify_absorbs_certificate(a, pauli, "no", cert) is False
    assert verify_absorbs_certificate(a, pauli, "no", dict(r.certificate, element=shifted))

    k = k0_realization(a)
    r = in_k_group(k, k.order_unit, 4)
    assert r.certificate["kind"] == "member-witness"
    term = r.certificate["witness"][0]
    bad, shifted = _coordinate_variants(term["elem"], klein.factors)
    for elem in bad + [[0], [0, 0, 0], 0]:
        witness = [dict(term, elem=elem)] + r.certificate["witness"][1:]
        cert = dict(r.certificate, witness=witness)
        assert verify_member_certificate(k, k.order_unit, "yes", cert) is False
    witness = [dict(term, elem=shifted)] + r.certificate["witness"][1:]
    cert = dict(r.certificate, witness=witness)
    assert verify_member_certificate(k, k.order_unit, "yes", cert)


def test_member_witness_with_a_malformed_multiplicity_or_key_does_not_replay(klein):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    k = k0_realization(a)
    r = in_k_group(k, k.order_unit, 4)
    assert r.certificate["kind"] == "member-witness"
    assert verify_member_certificate(k, k.order_unit, "yes", r.certificate)
    term, *rest = r.certificate["witness"]
    for mult in ("abc", True, None, 0.5, float(term["mult"]), str(term["mult"]), "4/2"):
        cert = dict(r.certificate, witness=[dict(term, mult=mult)] + rest)
        assert verify_member_certificate(k, k.order_unit, "yes", cert) is False, mult
    for key in r.certificate:
        cert = {k_: v for k_, v in r.certificate.items() if k_ != key}
        assert verify_member_certificate(k, k.order_unit, "yes", cert) is False, key


def test_prime_and_support_order_must_be_ints(trivial_group, pauli, x_t):
    two, three = uhf(trivial_group, 2), uhf(trivial_group, 3)
    r = iso_elementary(two, three, 8)
    assert r.certificate["kind"] == "prime-separation" and r.certificate["prime"] == 2
    assert verify_iso_certificate(two, three, "no", dict(r.certificate, prime=2.0)) is False

    kt = k0_realization(two)
    third = ProjCoords(trivial_group, kt.orbits, (get_field(1).scalar(Fraction(1, 3)),))
    r = in_k_group(kt, third, 8)
    assert r.certificate["kind"] == "norm-obstruction" and r.certificate["prime"] == 3
    for prime in (3.0, "3", True):
        cert = dict(r.certificate, prime=prime)
        assert verify_member_certificate(kt, third, "no", cert) is False

    a_prime = LimitDescriptor(x_t.group, x_t, (), (x_t,))
    r = absorbs(a_prime, pauli, 8)
    assert r.certificate["kind"] == "absorption" and r.certificate["support_order"] == 4
    for order in (4.0, "4"):
        cert = dict(r.certificate, support_order=order)
        assert verify_absorbs_certificate(a_prime, pauli, "yes", cert) is False


def test_iso_witness_needs_cone_witnesses_for_the_base_factors():
    """A lattice witness proves membership in K, not in the positive cone.

    A = M_e (x) M_{2g} (x) ... is trivially graded (every unit of M_{2g} has
    degree g g^-1 = e); B has x0 = 3e + g, with a component of degree g.  So
    A and B are not isomorphic, though b = 3e + g and b' = e equalize the
    order units and pi(b')/pi(b) lies in K(A)."""
    z2 = group_new([2])
    e, g = z2.identity, z2.element((1,))
    lbl = lambda terms: GroupRingElem.from_dict(z2, {h: Fraction(m) for h, m in terms})
    a = LimitDescriptor(z2, lbl([(e, 1)]), (), (lbl([(g, 2)]),))
    b_desc = LimitDescriptor(z2, lbl([(e, 3), (g, 1)]), (), (lbl([(g, 2)]),))
    ka, kb = k0_realization(a), k0_realization(b_desc)
    b, b2 = lbl([(e, 3), (g, 1)]), lbl([(e, 1)])
    b_c, b2_c = project(b, ka.orbits), project(b2, ka.orbits)
    forward = in_positive_cone(kb, b_c * b2_c.inverse())
    backward = in_k_group(ka, b2_c * b_c.inverse())
    assert forward.is_yes and backward.certificate == {
        "kind": "member-witness",
        "cone": False,
        "index": 3,
        "witness": [{"elem": [0], "mult": -1}, {"elem": [1], "mult": 3}],
    }
    cycle = {"delta": 1, "witness": [{"elem": [0], "mult": 1}]}
    cert = {
        "kind": "iso-witness",
        "b": [{"elem": [0], "mult": 3}, {"elem": [1], "mult": 1}],
        "b_prime": [{"elem": [0], "mult": 1}],
        "base_forward": forward.certificate,
        "base_backward": backward.certificate,
        "cycle_forward": cycle,
        "cycle_backward": cycle,
    }
    assert verify_iso_certificate(a, b_desc, "yes", cert) is False
    assert not iso_elementary(a, b_desc, 8).is_yes


# ---------------------------------------------------------------------------
# isomorphism procedures


def _cycle_divisibility_reference(k0, other_cycle, budget):
    """The direct walk for iso's cycle divisibility, kept as a reference:
    the first (delta, u) with other_cycle * pi(u) = cycle^delta and u >= 0."""
    inv = other_cycle.inverse()
    for delta, power in k0.denominators(budget):
        u = cone_preimage(power * inv)
        if u is not None:
            return delta, u
    return None


def test_cycle_divisibility_is_the_cone_membership_of_the_inverse_cycle():
    """iso_elementary searches c_a * pi(u) = c_b^delta, u >= 0, as 1/pi(c_a)
    in K_b^+ (and the mirror).  On the golden iso pairs and seeded pairs in
    the decide-mixed groups, the cone search finds the reference's (delta, u)
    exactly when the reference finds one; a norm obstruction, which rules
    out every index, comes only where the reference finds none."""
    pairs = [
        (name, *args[:2])
        for name, (proc, args) in golden_queries().items()
        if proc is iso_elementary
    ]
    rng = random.Random(61)
    for factors in DECIDE_MIXED_GROUPS:
        g = group_new(factors)
        for i in range(9):
            a = random_descriptor(rng, g)
            b = (
                random_descriptor(rng, g),
                tensor_elementary(a, random_label(rng, g)),
                equivalent_presentation(rng, a, rng.choice(PRESENTATION_TRANSFORMS)),
            )[i % 3]
            pairs.append((f"random/{factors}/{i}", a, b))
    kinds, obstructed = Counter(), set()
    for name, a, b in pairs:
        ka, kb = k0_realization(a), k0_realization(b)
        if ka.orbits != kb.orbits:
            continue
        for way, k_src, k_other in (("forward", kb, ka), ("backward", ka, kb)):
            z = k_other.cycle.inverse()
            ref = _cycle_divisibility_reference(k_src, k_other.cycle, GOLDEN_BUDGET)
            r = in_positive_cone(k_src, z, GOLDEN_BUDGET)
            if ref is None:
                assert r.certificate["kind"] in ("norm-obstruction", "budget-exhausted")
            else:
                got = (r.certificate.get("index"), r.certificate.get("witness"))
                assert r.is_yes and got == (ref[0], elem_payload(ref[1])), name
            assert verify_cone_certificate(k_src, z, r.verdict, r.certificate)
            kinds[r.certificate["kind"]] += 1
            if r.certificate["kind"] == "norm-obstruction":
                obstructed.add((name, way))
    assert kinds["member-witness"] >= 100 and kinds["norm-obstruction"] >= 20
    # the two golden cycle-divisibility unknowns: one side's 1/pi(c) is not
    # in the other side's K at all, not merely past the budget
    assert ("iso_elementary/4x2/0", "backward") in obstructed
    assert ("iso_elementary/3x3/1", "forward") in obstructed


def test_iso_elementary_reflexive(klein):
    rng = random.Random(53)
    for _ in range(6):
        d = random_descriptor(rng, klein)
        r = iso_elementary(d, d, 6)
        assert r.verdict == "yes"
        assert verify_iso_certificate(d, d, r.verdict, r.certificate)


def test_iso_draws_no_cycle_power_past_the_candidate_that_succeeds(klein, count_calls):
    # x0 = e and cycle e+a+b+2ab: the first candidate b' succeeds, so the
    # work done does not grow with the budget
    a, b = klein.element((1, 0)), klein.element((0, 1))
    cycle = GroupRingElem.from_dict(klein, {klein.identity: 1, a: 1, b: 1, a * b: 2})

    def fresh():
        return LimitDescriptor(klein, const(klein, 1), (), (cycle,))

    iso_elementary(fresh(), fresh())  # the per-group caches fill here
    muls = count_calls(GroupRingElem, "__mul__")
    counts = []
    for budget in (32, 20_000):
        start = muls[0]
        assert iso_elementary(fresh(), fresh(), budget).verdict == "yes"
        counts.append(muls[0] - start)
    assert counts[0] == counts[1]


def test_iso_elementary_uhf(trivial_group):
    two, three, four = (
        uhf(trivial_group, 2),
        uhf(trivial_group, 3),
        uhf(trivial_group, 4),
    )
    r = iso_elementary(two, three, 8)
    assert r.verdict == "no" and r.certificate["kind"] == "prime-separation"
    assert r.certificate["prime"] == 2
    assert verify_iso_certificate(two, three, r.verdict, r.certificate)

    r2 = iso_elementary(two, four, 4)
    assert r2.verdict == "yes"
    assert verify_iso_certificate(two, four, r2.verdict, r2.certificate)


def test_iso_witness_with_a_bad_cycle_delta_does_not_replay(trivial_group):
    two, four = uhf(trivial_group, 2), uhf(trivial_group, 4)
    r = iso_elementary(two, four, 4)
    assert r.verdict == "yes"
    for delta in (0, -1, "1", 1.0, True):
        for key in ("cycle_forward", "cycle_backward"):
            cert = dict(r.certificate, **{key: dict(r.certificate[key], delta=delta)})
            assert verify_iso_certificate(two, four, "yes", cert) is False


def test_iso_witness_with_non_integer_coordinates_does_not_replay(trivial_group):
    two, four = uhf(trivial_group, 2), uhf(trivial_group, 4)
    r = iso_elementary(two, four, 4)
    assert r.verdict == "yes"
    for elem in ([0.0], ["0"], [False]):
        for key in ("b", "b_prime"):
            label = [dict(t, elem=elem) for t in r.certificate[key]]
            cert = dict(r.certificate, **{key: label})
            assert verify_iso_certificate(two, four, "yes", cert) is False
        for key in ("cycle_forward", "cycle_backward"):
            witness = [dict(t, elem=elem) for t in r.certificate[key]["witness"]]
            cert = dict(r.certificate, **{key: dict(r.certificate[key], witness=witness)})
            assert verify_iso_certificate(two, four, "yes", cert) is False


def test_iso_elementary_example_4_4(klein, x_t):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    a_prime = LimitDescriptor(klein, x_t, (), (x_t,))
    r = iso_elementary(a, a_prime, 8)
    assert r.verdict == "no" and r.certificate["kind"] == "invariant-mismatch"
    assert verify_iso_certificate(a, a_prime, r.verdict, r.certificate)


def test_iso_elementary_shift_invariance():
    z4 = group_new([4])
    x = GroupRingElem.from_dict(z4, {z4.identity: 1, z4.element((2,)): 1})
    shifted = x.translate(z4.element((1,)))
    two = const(z4, 2)
    a = LimitDescriptor(z4, x, (), (two,))
    b = LimitDescriptor(z4, shifted, (), (two,))
    assert iso_elementary(a, b, 8).verdict == "yes"


def test_iso_symmetry_on_corpus(klein):
    rng = random.Random(59)
    pairs = [
        (random_descriptor(rng, klein), random_descriptor(rng, klein))
        for _ in range(6)
    ]
    for d1, d2 in pairs:
        v12 = iso_elementary(d1, d2, 5)
        v21 = iso_elementary(d2, d1, 5)
        if v12.is_certified and v21.is_certified:
            assert v12.verdict == v21.verdict


# sha256 over the canonical JSON lines (as in golden.json) of the verdicts
# and certificates of the pairs below; the Fraction-tableau simplex that
# tests/test_exactsolve.py keeps as the reference gives the same
ORDER_64_ISO_SHA256 = "941a06b403d8d58c699ca48f55bc68a14ffc7159933f1c61e2cace33b1b366e5"


def test_iso_against_a_matrix_factor_twin_on_order_64_groups(count_calls):
    # (a, a(x)m) on Z8xZ8 and Z4^3 at budgets 8/7: the cone memberships of
    # these queries run the branch-and-bound's simplex, so any change to a
    # vertex it returns shows in a witness
    lp_calls = count_calls(exactsolve, "lp_feasible")
    rng = random.Random(7)
    digest = hashlib.sha256()
    for factors in ([8, 8], [4, 4, 4]):
        g = group_new(factors)
        for _ in range(12):
            a = random_descriptor(rng, g)
            r = iso_elementary(a, tensor_elementary(a, random_label(rng, g)), 8, 7)
            digest.update(canonical_verdict(r).encode() + b"\n")
    assert lp_calls[0] > 0
    assert digest.hexdigest() == ORDER_64_ISO_SHA256


def test_cancellation_sanity(klein, trivial_group):
    rng = random.Random(61)
    corpus = [
        (uhf(trivial_group, 2), uhf(trivial_group, 4)),
        (uhf(trivial_group, 2), uhf(trivial_group, 3)),
        (random_descriptor(rng, klein), random_descriptor(rng, klein)),
        (random_descriptor(rng, klein), random_descriptor(rng, klein)),
    ]
    for n in (2, 3):
        for d1, d2 in corpus:
            base = iso_elementary(d1, d2, 6)
            amplified = iso_elementary(
                tensor_elementary(d1, const(d1.group, n)),
                tensor_elementary(d2, const(d2.group, n)),
                6,
            )
            if base.is_certified and amplified.is_certified:
                assert base.verdict == amplified.verdict


def test_iso_general_examples(klein, pauli, x_t):
    triv = DivisionClass.trivial(klein)
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),), pauli)
    a_prime = LimitDescriptor(klein, x_t, (), (x_t,))
    r = iso_general(a, a_prime, 8)
    assert r.verdict == "no" and r.certificate["kind"] == "absorption-fails"
    assert verify_general_iso_certificate(a, a_prime, r.verdict, r.certificate)

    ap_pauli = LimitDescriptor(klein, x_t, (), (x_t,), pauli)
    r2 = iso_general(ap_pauli, a_prime, 8)
    assert r2.verdict == "yes"
    assert verify_general_iso_certificate(ap_pauli, a_prime, r2.verdict, r2.certificate)

    r3 = iso_general(a, a, 8)
    assert r3.verdict == "yes"


def test_absorption_implies_general_iso(klein, pauli, x_t):
    d = LimitDescriptor(klein, x_t, (), (x_t,))
    assert absorbs(d, pauli, 8).verdict == "yes"
    with_d = LimitDescriptor(klein, x_t, (), (x_t,), pauli)
    assert iso_general(with_d, d, 8).verdict == "yes"


# ---------------------------------------------------------------------------
# tensor and pushforward


def test_tensor_elementary(klein, x_t):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    assert tensor_elementary(a, GroupRingElem.one(klein)) == a
    assert tensor_elementary(a, x_t).x0 == x_t.scale(2)
    d = LimitDescriptor(klein, x_t, (), (x_t,))
    assert tensor_elementary(d, x_t).x0 == x_t.scale(4)
    with pytest.raises(ValueError):
        tensor_elementary(a, GroupRingElem.zero(klein))


def test_finite_level_iso_matches_oracle(klein):
    """Degenerate descriptors (all labels 1) describe finite matrix algebras,
    where the decision procedure must agree with the explicit ground truth."""
    from glim.oracle import build_matrix, graded_iso_finite

    rng = random.Random(71)
    one = GroupRingElem.one(klein)
    multisets = []
    for _ in range(8):
        from conftest import random_label

        multisets.append(random_label(rng, klein, max_terms=2, max_mult=2))
    for x in multisets:
        for y in multisets:
            d1 = LimitDescriptor(klein, x, (), (one,))
            d2 = LimitDescriptor(klein, y, (), (one,))
            verdict = iso_elementary(d1, d2, 4)
            truth = graded_iso_finite(build_matrix(x), build_matrix(y))
            # finite-type descriptors are decided exactly
            assert verdict.is_certified, (x, y)
            assert (verdict.verdict == "yes") == truth, (x, y)
            assert verify_iso_certificate(d1, d2, verdict.verdict, verdict.certificate)


def test_quotient_pushforward(klein, klein_full, x_t):
    a = LimitDescriptor(klein, const(klein, 2), (), (const(klein, 2),))
    pushed = quotient_pushforward(a, klein_full)
    assert pushed.group.order == 1
    assert pushed.x0.size() == 2
    k = k0_realization(pushed)
    assert k.order_unit.values[0].as_rational() == 2

    triv_sub = Subgroup(klein, ())
    same = quotient_pushforward(a, triv_sub)
    assert same.group == klein and same.x0 == a.x0

    d = LimitDescriptor(klein, x_t, (), (x_t,))
    collapsed = quotient_pushforward(d, klein_full)
    assert collapsed.x0 == const(collapsed.group, 4)
