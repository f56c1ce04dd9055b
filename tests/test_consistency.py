"""Cross-checks between independent routes to the same answers, on randomized
corpora: shift-invariance, matrix-factor absorption versus cone scaling, and
agreement of the two division-absorption formulations."""

import random

import pytest

from glim.abelian import quotient, group_new
from glim.divalg import enumerate_division_classes
from glim.groupring import GroupRingElem, pushforward, subgroup_sum
from glim.limits import (
    LimitDescriptor,
    absorbs,
    iso_elementary,
    iso_general,
    k0_realization,
    scaling_invertible,
    standard_form,
    tensor_elementary,
    verify_general_iso_certificate,
)
from glim.oracle import (
    build_matrix,
    graded_iso_finite,
    graded_simple_decompose,
    normalize_coset_multiset,
)

from conftest import (
    PRESENTATION_TRANSFORMS,
    equivalent_presentation,
    random_descriptor,
    random_label,
)
from test_derive_once import DECIDE_MIXED_GROUPS


def test_shifted_descriptors_are_isomorphic():
    rng = random.Random(101)
    for factors in [[2, 2], [4]]:
        g = group_new(factors)
        for _ in range(6):
            d = random_descriptor(rng, g)
            shift = rng.choice(g.elements())
            shifted = LimitDescriptor(
                g, d.x0.translate(shift), d.prefix, d.cycle, None
            )
            r = iso_elementary(d, shifted, 6)
            assert r.verdict == "yes", (d.x0, shift, r.certificate)


def test_matrix_absorption_matches_scaling():
    # tensoring with one elementary factor is invisible exactly when the
    # factor's bar scales the cone onto itself (descriptors with S0 = S)
    rng = random.Random(103)
    checked = 0
    for factors in [[2, 2], [4]]:
        g = group_new(factors)
        while checked < 8:
            d = standard_form(random_descriptor(rng, g))
            k0 = k0_realization(d)
            if frozenset(k0.orbits) != k0.s0:
                continue
            c = random_label(rng, g)
            scaling = scaling_invertible(k0, c, 6)
            iso = iso_elementary(tensor_elementary(d, c), d, 6)
            if scaling.is_certified and iso.is_certified:
                assert scaling.verdict == iso.verdict, (d.x0, c)
                checked += 1


def test_division_absorption_consistent_with_general_iso():
    rng = random.Random(107)
    g = group_new([2, 2])
    classes = enumerate_division_classes(g)
    for _ in range(10):
        d = random_descriptor(rng, g)
        cls = rng.choice(classes)
        absorbed = absorbs(d, cls, 6)
        if not absorbed.is_certified:
            continue
        with_cls = LimitDescriptor(g, d.x0, d.prefix, d.cycle, cls)
        general = iso_general(with_cls, d, 6)
        if absorbed.verdict == "yes":
            assert general.verdict == "yes", (d.x0, cls.support.order)
        elif general.is_certified:
            assert general.verdict == "no", (d.x0, cls.support.order)


def test_iso_no_false_separation_on_equal_presentations():
    # the same limit presented with a merged cycle must compare as isomorphic
    rng = random.Random(109)
    g = group_new([2, 2])
    for _ in range(6):
        d = random_descriptor(rng, g)
        merged_label = d.cycle[0]
        for lbl in d.cycle[1:]:
            merged_label = merged_label * lbl
        merged = LimitDescriptor(g, d.x0, d.prefix, (merged_label,), None)
        assert iso_elementary(d, merged, 6).verdict == "yes"


def test_general_iso_reflexive_with_division_parts():
    rng = random.Random(127)
    g = group_new([2, 2])
    classes = enumerate_division_classes(g)
    for _ in range(6):
        d = random_descriptor(rng, g)
        cls = rng.choice(classes)
        with_cls = LimitDescriptor(g, d.x0, d.prefix, d.cycle, cls)
        assert iso_general(with_cls, with_cls, 4).verdict == "yes"


def test_certificates_replay_on_random_corpus():
    from glim.limits import (
        verify_absorbs_certificate,
        verify_iso_certificate,
        verify_scaling_certificate,
    )

    rng = random.Random(131)
    groups = [group_new(f) for f in ([2, 2], [4], [6])]
    replayed = 0
    for trial in range(30):
        g = groups[trial % len(groups)]
        d1, d2 = random_descriptor(rng, g), random_descriptor(rng, g)
        r = iso_elementary(d1, d2, 4)
        if r.is_certified:
            assert verify_iso_certificate(d1, d2, r.verdict, r.certificate)
            replayed += 1
        cls = rng.choice(enumerate_division_classes(g))
        ra = absorbs(d1, cls, 4)
        if ra.is_certified:
            assert verify_absorbs_certificate(d1, cls, ra.verdict, ra.certificate)
            replayed += 1
        c = random_label(rng, g)
        k = k0_realization(d1)
        rs = scaling_invertible(k, c, 4)
        if rs.is_certified:
            assert verify_scaling_certificate(k, c, rs.verdict, rs.certificate)
            replayed += 1
    assert replayed >= 60


def test_support_multiset_absorption_equivalence():
    # x_T-scaling and the (support, order) split must agree when certified
    rng = random.Random(113)
    g = group_new([2, 2])
    classes = enumerate_division_classes(g)
    for _ in range(12):
        d = random_descriptor(rng, g)
        cls = rng.choice(classes)
        k0 = k0_realization(d)
        x_t = subgroup_sum(cls.support)
        via_multiset = scaling_invertible(k0, x_t, 6)
        via_split = absorbs(d, cls, 6)
        if via_multiset.is_certified and via_split.is_certified:
            assert via_multiset.verdict == via_split.verdict


def test_iso_verdict_never_flips_with_orientation():
    # isomorphism is symmetric: iso(a, b) and iso(b, a) may differ only by an
    # `unknown`, never yes one way and no the other.  Pairs that end `unknown`
    # stay in the draw.  Groups and budgets are those of the decide-mixed corpus.
    rng = random.Random(16)
    pairs = []
    for factors in ([2, 2], [4, 2], [2, 2, 2], [3, 3], [6, 2], [4, 4]):
        g = group_new(factors)
        for i in range(8):
            a = random_descriptor(rng, g)
            b = random_descriptor(rng, g) if i % 2 else tensor_elementary(a, random_label(rng, g))
            pairs.append((a, b))
    both_certified = 0
    for a, b in pairs:
        verdicts = {iso_elementary(a, b, 8, 7).verdict, iso_elementary(b, a, 8, 7).verdict}
        assert verdicts != {"yes", "no"}, (a, b)
        both_certified += "unknown" not in verdicts
    assert len(pairs) == 48 and both_certified >= 24


def test_iso_verdict_does_not_depend_on_presentation():
    # a re-presentation p(a) is the same limit as a: iso(a, p(a)) is never
    # `no`, and (p(a), b) never gets the certified verdict opposite to that of
    # (a, b).  p runs over the four re-presentations and the cycle merged by
    # standard_form.  Pairs that end `unknown` stay in the draw.  Groups and
    # budgets are those of the decide-mixed corpus.
    rng = random.Random(18)
    both_certified = 0
    for factors in ([2, 2], [4, 2], [2, 2, 2], [3, 3], [6, 2], [4, 4]):
        g = group_new(factors)
        for i in range(2):
            a = random_descriptor(rng, g)
            b = random_descriptor(rng, g) if i % 2 else tensor_elementary(a, random_label(rng, g))
            verdict = iso_elementary(a, b, 8, 7).verdict
            presentations = [equivalent_presentation(rng, a, t) for t in PRESENTATION_TRANSFORMS]
            for pa in presentations + [standard_form(a)]:
                assert iso_elementary(a, pa, 8, 7).verdict != "no", (a, pa)
                verdicts = {verdict, iso_elementary(pa, b, 8, 7).verdict}
                assert verdicts != {"yes", "no"}, (pa, b)
                both_certified += "unknown" not in verdicts
    assert both_certified >= 30  # 40 of the 60 (p(a), b) pairs at this seed


def test_tensor_with_a_matrix_factor_respects_presentation():
    # tensor compatibility: a and a re-presentation p(a) are the same limit,
    # so a (x) m and p(a) (x) m are isomorphic and iso must never say `no`.
    # p runs over the four re-presentations.  Pairs that end `unknown` stay
    # in the draw.  Groups and budgets are those of the decide-mixed corpus.
    rng = random.Random(20)
    verdicts = []
    for factors in ([2, 2], [4, 2], [2, 2, 2], [3, 3], [6, 2], [4, 4]):
        g = group_new(factors)
        for _ in range(2):
            a, m = random_descriptor(rng, g), random_label(rng, g)
            for t in PRESENTATION_TRANSFORMS:
                pa = equivalent_presentation(rng, a, t)
                r = iso_elementary(tensor_elementary(a, m), tensor_elementary(pa, m), 8, 7)
                assert r.verdict != "no", (a, pa, m)
                verdicts.append(r.verdict)
    assert len(verdicts) == 48 and verdicts.count("yes") >= 40  # 48 at this seed


def test_iso_yes_is_transitive():
    # transitivity: when iso(a, b) and iso(b, c) are both `yes`, iso(a, c) is
    # never `no`.  b is a re-presentation of a or a (x) m, and c a
    # re-presentation of b.  Triples that end `unknown` anywhere stay in the
    # draw.  Groups and budgets are those of the decide-mixed corpus.
    rng = random.Random(22)
    chained = 0
    for factors in DECIDE_MIXED_GROUPS:
        g = group_new(factors)
        for i in range(4):
            a = random_descriptor(rng, g)
            if i % 2:
                b = tensor_elementary(a, random_label(rng, g))
            else:
                b = equivalent_presentation(rng, a, rng.choice(PRESENTATION_TRANSFORMS))
            c = equivalent_presentation(rng, b, rng.choice(PRESENTATION_TRANSFORMS))
            ab, bc, ac = (iso_elementary(x, y, 8, 7).verdict for x, y in ((a, b), (b, c), (a, c)))
            if ab == bc == "yes":
                assert ac != "no", (a, b, c)
                chained += 1
    assert chained >= 12  # 15 of the 24 triples at this seed


def test_absorbs_agrees_on_isomorphic_limits():
    # absorption is a property of the limit: when a and b are certified
    # isomorphic, absorbs(a, D) and absorbs(b, D) never certify opposite
    # verdicts.  b runs over the four re-presentations of a, its standard
    # form and a (x) m; D is a random division class.  Draws that end
    # `unknown` stay in.  Groups and budgets are those of the decide-mixed
    # corpus.
    rng = random.Random(23)
    compared = 0
    for factors in DECIDE_MIXED_GROUPS:
        g = group_new(factors)
        classes = enumerate_division_classes(g)
        a = random_descriptor(rng, g)
        twins = [equivalent_presentation(rng, a, t) for t in PRESENTATION_TRANSFORMS]
        twins += [standard_form(a), tensor_elementary(a, random_label(rng, g))]
        for b in twins:
            if iso_elementary(a, b, 8, 7).verdict != "yes":
                continue
            cls = rng.choice(classes)
            verdicts = {absorbs(a, cls, 8).verdict, absorbs(b, cls, 8).verdict}
            assert verdicts != {"yes", "no"}, (a, b, cls)
            compared += "unknown" not in verdicts
    assert compared >= 24  # 31 of the 36 pairs are `yes`, all 31 certified both ways


def _finite_type(rng, g, classes):
    """M(x0) (x) D as a limit: a one-element cycle of multiplicity 1, a random
    division class D and a random x0 with dim M(x0) (x) D at most 64."""
    while True:
        cls = rng.choice(classes)
        x0 = random_label(rng, g, max_terms=3, max_mult=2)
        if x0.size() ** 2 * cls.support.order <= 64:
            return LimitDescriptor(g, x0, (), (_one_element(rng, g),), cls)


def _one_element(rng, g):
    return GroupRingElem.from_dict(g, {rng.choice(g.elements()): 1})


@pytest.mark.parametrize("factors", DECIDE_MIXED_GROUPS)
def test_general_iso_of_finite_type_limits_matches_the_oracle(factors):
    # a limit whose cycle is one group element is the finite-dimensional
    # M(x0) (x) D, so the oracle's explicit decomposition decides its graded
    # isomorphism independently of the Brauer reduction in iso_general.  About
    # 40 % of the pairs are a translated twin: the same class and a translated
    # x0 behind another cycle element.  The oracle's coset multiset is the
    # normalized pushforward of x0 (not of the realized x0 bar) to G/T.
    rng = random.Random(str(factors))
    g = group_new(factors)
    classes = enumerate_division_classes(g)
    yes = 0
    for _ in range(40):
        a = _finite_type(rng, g, classes)
        if rng.random() < 0.4:
            x0 = a.x0.translate(rng.choice(g.elements()))
            b = LimitDescriptor(g, x0, (), (_one_element(rng, g),), a.division)
        else:
            b = _finite_type(rng, g, classes)
        r = iso_general(a, b, 8, 7)
        alg_a = build_matrix(a.x0, a.division)
        truth = graded_iso_finite(alg_a, build_matrix(b.x0, b.division))
        assert r.is_certified, (a, b, r.certificate)
        assert (r.verdict == "yes") == truth, (a, b)
        assert verify_general_iso_certificate(a, b, r.verdict, r.certificate)
        qgroup, image = quotient(g, a.division.support)
        want = normalize_coset_multiset(pushforward(a.x0, qgroup, image))
        assert graded_simple_decompose(alg_a).coset_multiset == want
        yes += truth
    assert 0 < yes < 40
