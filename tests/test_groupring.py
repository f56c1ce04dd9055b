import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from glim.abelian import (
    GroupElem,
    Subgroup,
    all_subgroups,
    dual_and_orbits,
    group_new,
    quotient,
)
from glim.cyclotomic import get_field
from glim.groupring import (
    GroupRingElem,
    ProjCoords,
    _character_table,
    char_eval,
    cone_preimage,
    lattice_preimage,
    orbit_idempotent,
    project,
    pushforward,
    subgroup_sum,
    supp_orbits,
)

from conftest import random_label

IDEMPOTENT_GROUPS = [[2], [3], [4], [2, 2], [6], [4, 2], [8], [3, 3], [2, 2, 2]]
TABLE_GROUPS = [[2, 2], [4], [4, 2], [3, 3], [6, 2], [8]]


def test_convolution_examples(klein, klein_full, x_t):
    assert x_t * x_t == x_t.scale(4)
    z2 = group_new([2])
    z = GroupRingElem.from_dict(z2, {z2.identity: 1, z2.element((1,)): 1})
    assert z * GroupRingElem.one(z2) == z
    sq = z * z
    assert sq.coeff(z2.identity) == 2 and sq.coeff(z2.element((1,))) == 2


def test_group_mismatch_raises(klein):
    z2 = group_new([2])
    with pytest.raises(ValueError):
        GroupRingElem.one(klein) * GroupRingElem.one(z2)


def test_bar_examples(klein, x_t):
    z4 = group_new([4])
    w = GroupRingElem.from_dict(z4, {z4.identity: 2, z4.element((1,)): 3})
    assert w.bar() == GroupRingElem.from_dict(
        z4, {z4.identity: 2, z4.element((3,)): 3}
    )
    assert x_t.bar() == x_t  # every Klein element is self-inverse


def test_bar_is_an_involution_and_ring_map(klein):
    rng = random.Random(5)
    for _ in range(20):
        z = random_label(rng, klein)
        w = random_label(rng, klein)
        assert z.bar().bar() == z
        assert (z * w).bar() == z.bar() * w.bar()


def test_subgroup_sum_examples(klein, klein_full, x_t):
    assert x_t.size() == 4
    assert subgroup_sum(
        Subgroup(klein, ())
    ) == GroupRingElem.one(klein)
    z4 = group_new([4])
    sub = Subgroup(z4, (z4.element((2,)),))
    s = subgroup_sum(sub)
    assert s.coeff(z4.identity) == 1 and s.coeff(z4.element((2,))) == 1


def test_char_eval_examples(klein, x_t):
    z2 = group_new([2])
    z = GroupRingElem.from_dict(z2, {z2.identity: 1, z2.element((1,)): 1})
    triv, sign = dual_and_orbits(z2)
    assert char_eval(z, triv.representative) == get_field(2).scalar(2)
    assert char_eval(z, sign.representative).is_zero
    for orbit in dual_and_orbits(klein)[1:]:
        assert char_eval(x_t, orbit.representative).is_zero


def test_char_eval_is_ring_homomorphism():
    """pi is a ring map, on each character and on the stacked coordinates;
    the realized K0 datum reads pi(cycle^i) as the i-th coordinate power."""
    rng = random.Random(9)
    for factors in [[2, 2], [4], [4, 2], [3, 3], [6, 2]]:
        g = group_new(factors)
        orbits = dual_and_orbits(g)
        for _ in range(15):
            z, w = random_label(rng, g), random_label(rng, g)
            for o in orbits:
                chi = o.representative
                assert char_eval(z * w, chi) == char_eval(z, chi) * char_eval(w, chi)
            pz = project(z, orbits)
            assert project(z * w, orbits) == pz * project(w, orbits)
            power = pz
            for k in range(2, 5):
                power = power * pz
                assert project(z**k, orbits) == power


def _per_term_value(z: GroupRingElem, chi: GroupElem):
    """The reference sum_g c_g zeta^{chi(g)}, one cyclotomic term at a time."""
    fld = get_field(z.group.exponent)
    return sum((fld.zeta(chi.value_exponent(g)) * c for g, c in z.coeffs), fld.zero)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLE_GROUPS), st.data())
def test_character_table_matches_per_term_sum(factors, data):
    g = group_new(factors)
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    z = GroupRingElem.from_dict(
        g, {e: data.draw(coeff) for e in g.elements() if data.draw(st.booleans())}
    )
    orbits = dual_and_orbits(g)
    # every member of every orbit, so most characters are not representatives
    for o in orbits:
        for chi in o.members:
            assert char_eval(z, chi) == _per_term_value(z, chi)
    chosen = data.draw(st.lists(st.sampled_from(orbits), unique=True))
    pz = project(z, chosen)
    assert pz.values == tuple(_per_term_value(z, o.representative) for o in pz.orbits)
    assert supp_orbits(z) == frozenset(
        o for o in orbits if not _per_term_value(z, o.representative).is_zero
    )
    # the stored rows run over the elements in coordinate order
    fld = get_field(g.exponent)
    elems = sorted(g.elements(), key=lambda e: e.coords)
    table = _character_table(g)
    for o in orbits:
        assert table[o] == tuple(
            tuple(fld.zeta(o.representative.value_exponent(e)).num[r] for e in elems)
            for r in range(fld.degree)
        )


def test_supp_orbits_examples(klein, x_t):
    z2 = group_new([2])
    z = GroupRingElem.from_dict(z2, {z2.identity: 1, z2.element((1,)): 1})
    assert {o.representative.coords for o in supp_orbits(z)} == {(0,)}
    assert {o.representative.coords for o in supp_orbits(x_t)} == {(0, 0)}
    two = GroupRingElem.constant(klein, 2)
    assert len(supp_orbits(two)) == 4


def test_supp_of_bar_equals_supp():
    rng = random.Random(13)
    for factors in [[2, 2], [4], [4, 2]]:
        g = group_new(factors)
        for _ in range(10):
            z = random_label(rng, g)
            assert supp_orbits(z.bar()) == supp_orbits(z)


def test_supp_of_product_is_intersection():
    rng = random.Random(17)
    for factors in [[2, 2], [4]]:
        g = group_new(factors)
        for _ in range(15):
            z, w = random_label(rng, g), random_label(rng, g)
            assert supp_orbits(z * w) == supp_orbits(z) & supp_orbits(w)


def test_idempotent_examples():
    z2 = group_new([2])
    triv, sign = dual_and_orbits(z2)
    e, g = z2.identity, z2.element((1,))
    assert orbit_idempotent(triv) == GroupRingElem.from_dict(
        z2, {e: Fraction(1, 2), g: Fraction(1, 2)}
    )
    assert orbit_idempotent(sign) == GroupRingElem.from_dict(
        z2, {e: Fraction(1, 2), g: Fraction(-1, 2)}
    )
    z4 = group_new([4])
    pair = next(o for o in dual_and_orbits(z4) if o.field_degree == 2)
    assert orbit_idempotent(pair) == GroupRingElem.from_dict(
        z4, {z4.identity: Fraction(1, 2), z4.element((2,)): Fraction(-1, 2)}
    )


@pytest.mark.parametrize("factors", IDEMPOTENT_GROUPS)
def test_idempotents_orthogonal_and_complete(factors):
    g = group_new(factors)
    orbits = dual_and_orbits(g)
    idems = [orbit_idempotent(o) for o in orbits]
    total = GroupRingElem.zero(g)
    for i, ei in enumerate(idems):
        assert ei * ei == ei
        total = total + ei
        for ej in idems[i + 1 :]:
            assert (ei * ej).is_zero
    assert total == GroupRingElem.one(g)


def test_proj_coords_examples(klein, x_t):
    orbits = dual_and_orbits(klein)
    ones = project(GroupRingElem.one(klein), orbits)
    assert all(v == get_field(2).one for v in ones.values)
    coords = project(x_t, orbits)
    assert coords.values[0] == get_field(2).scalar(4)
    assert all(v.is_zero for v in coords.values[1:])


def test_lattice_membership_z2():
    z2 = group_new([2])
    orbits = dual_and_orbits(z2)
    f = get_field(2)
    t = ProjCoords(z2, tuple(orbits), (f.scalar(2), f.scalar(0)))
    w = lattice_preimage(t)
    assert w is not None and project(w, orbits) == t
    odd = ProjCoords(z2, tuple(orbits), (f.scalar(1), f.scalar(0)))
    assert lattice_preimage(odd) is None
    zero = ProjCoords(z2, tuple(orbits), (f.zero, f.zero))
    assert lattice_preimage(zero) is not None


def test_cone_membership_z2():
    z2 = group_new([2])
    orbits = dual_and_orbits(z2)
    f = get_field(2)
    odd = ProjCoords(z2, tuple(orbits), (f.scalar(1), f.scalar(0)))
    assert cone_preimage(odd) is None
    t = ProjCoords(z2, tuple(orbits), (f.scalar(3), f.scalar(1)))
    w = cone_preimage(t)
    assert w is not None and w.is_nonneg_integer and project(w, orbits) == t


def test_cone_contains_projections_of_multisets():
    rng = random.Random(23)
    for factors in [[2], [2, 2], [4]]:
        g = group_new(factors)
        orbits = dual_and_orbits(g)
        for _ in range(10):
            z = random_label(rng, g)
            t = project(z, orbits)
            assert cone_preimage(t) is not None
            assert lattice_preimage(t) is not None


def test_cone_implies_lattice_and_product_stability():
    rng = random.Random(29)
    g = group_new([2, 2])
    orbits = dual_and_orbits(g)
    for _ in range(10):
        z = random_label(rng, g)
        w = random_label(rng, g)
        t = project(z, orbits)
        assert cone_preimage(t) is not None and lattice_preimage(t) is not None
        # both closed under coordinatewise multiplication by a multiset image
        assert cone_preimage(t * project(w, orbits)) is not None
        assert lattice_preimage(t * project(w, orbits)) is not None


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, None, "1"])
def test_only_int_and_fraction_enter_the_group_ring(klein, bad):
    g = klein.element((1, 0))
    one = GroupRingElem.one(klein)
    for build in (
        lambda: GroupRingElem.from_dict(klein, {g: bad}),
        lambda: GroupRingElem.constant(klein, bad),
        lambda: one.scale(bad),
        lambda: one * bad,
    ):
        with pytest.raises(ValueError, match="int or Fraction"):
            build()
    if not isinstance(bad, str):  # str * x is sequence repetition
        with pytest.raises(ValueError, match="int or Fraction"):
            bad * one
    assert GroupRingElem.from_dict(klein, {g: Fraction(1, 2)}) == one.translate(g).scale(
        Fraction(1, 2)
    )
    assert 3 * one == one.scale(3) == GroupRingElem.constant(klein, 3)


# ---------------------------------------------------------------------------
# every operation against a dict-of-Fraction reference on coordinate tuples

DECIDE_MIXED_GROUPS = [(2, 2), (4, 2), (2, 2, 2), (3, 3), (6, 2), (4, 4)]
REFERENCE_GROUPS = DECIDE_MIXED_GROUPS + [(8,), (2, 2, 2, 2), (8, 8)]
_coefficients = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)


def _ref_add(group, *xs):
    out = {}
    for x in xs:
        for k, c in x.items():
            out[k] = out.get(k, 0) + c
    return {k: Fraction(c) for k, c in out.items() if c}


def _ref_mul(group, x, y):
    return _ref_add(
        group,
        *(
            {tuple((p + q) % d for p, q, d in zip(a, b, group.factors)): ca * cb}
            for a, ca in x.items()
            for b, cb in y.items()
        ),
    )


def _ref_value(group, x, chi):
    fld = get_field(group.exponent)
    return sum((fld.zeta(chi.value_exponent(group.element(k))) * c for k, c in x.items()), fld.zero)


def _ref_of(z):
    return {g.coords: c for g, c in z.coeffs}


def _assert_canonical(z, ref):
    """z is in canonical form and has exactly the reference coefficients."""
    assert len(z.num) == z.group.order and z.den >= 1
    assert gcd(z.den, *z.num) == 1
    assert _ref_of(z) == ref
    assert [g.coords for g, _ in z.coeffs] == sorted(ref)
    assert z.is_zero == (not ref)
    assert z.size() == sum(ref.values(), Fraction(0))
    assert z.is_integer == all(c.denominator == 1 for c in ref.values())
    assert z.is_nonneg_integer == all(c.denominator == 1 and c >= 0 for c in ref.values())
    for g in z.group.elements():
        assert z.coeff(g) == ref.get(g.coords, 0)


@st.composite
def _element_pairs(draw):
    """Two coefficient dicts over one group; about one pair in three
    multiplies to zero: a multiple of 1 + t + ... + t^(o-1) and of 1 - t
    for an element t of order o."""
    group = group_new(draw(st.sampled_from(REFERENCE_GROUPS)))
    elems = [g.coords for g in group.elements()]

    def sparse():
        keys = draw(st.lists(st.sampled_from(elems), max_size=6, unique=True))
        return {k: Fraction(draw(_coefficients)) for k in keys}

    x, y = sparse(), sparse()
    if draw(st.integers(0, 2)) == 0:
        t = group.element(draw(st.sampled_from(elems)))
        orbit = {(t ** i).coords: Fraction(1) for i in range(t.order)}
        one_minus_t = _ref_add(group, {group.identity.coords: 1}, {t.coords: -1})
        x = _ref_mul(group, _ref_add(group, x, {group.identity.coords: 1}), orbit)
        y = _ref_mul(group, _ref_add(group, y, {group.identity.coords: 1}), one_minus_t)
    return group, x, y


def _from_ref(group, ref):
    return GroupRingElem.from_dict(group, {group.element(k): c for k, c in ref.items()})


@settings(max_examples=150, deadline=None)
@given(_element_pairs(), st.data())
def test_every_operation_matches_the_fraction_reference(pair, data):
    group, x, y = pair
    z, w = _from_ref(group, x), _from_ref(group, y)
    _assert_canonical(z, _ref_add(group, x))
    assert z.as_dict() == {group.element(k): c for k, c in _ref_add(group, x).items()}
    assert (z == w) == (_ref_add(group, x) == _ref_add(group, y))
    if z == w:
        assert hash(z) == hash(w)
    _assert_canonical(z + w, _ref_add(group, x, y))
    _assert_canonical(z - w, _ref_add(group, x, {k: -c for k, c in y.items()}))
    _assert_canonical(z * w, _ref_mul(group, x, y))
    s = data.draw(_coefficients)
    _assert_canonical(z.scale(s), _ref_add(group, {k: c * s for k, c in x.items()}))
    _assert_canonical(s * z, _ref_add(group, {k: c * s for k, c in x.items()}))
    inverse = lambda k: tuple(-a % d for a, d in zip(k, group.factors))
    _assert_canonical(z.bar(), _ref_add(group, {inverse(k): c for k, c in x.items()}))
    h = group.element(data.draw(st.sampled_from([g.coords for g in group.elements()])))
    _assert_canonical(z.translate(h), _ref_mul(group, x, {h.coords: Fraction(1)}))
    k = data.draw(st.integers(0, 3))
    power = {group.identity.coords: Fraction(1)}
    for _ in range(k):
        power = _ref_mul(group, power, x)
    _assert_canonical(z**k, power)
    orbits = dual_and_orbits(group)
    chosen = data.draw(st.lists(st.sampled_from(orbits), unique=True, max_size=4))
    pz = project(z, chosen)
    assert pz.orbits == tuple(o for o in orbits if o in chosen)
    assert pz.values == tuple(_ref_value(group, x, o.representative) for o in pz.orbits)
    members = [chi for o in orbits for chi in o.members]
    for chi in data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=4)):
        assert char_eval(z, chi) == _ref_value(group, x, chi)
    assert supp_orbits(z) == frozenset(
        o for o in orbits if not _ref_value(group, x, o.representative).is_zero
    )


def _ref_push(group, target, image, x):
    counts = Counter()
    for g, i in zip(group.elements(), image):
        counts[target.elements()[i].coords] += x.get(g.coords, 0)
    return {k: Fraction(c) for k, c in counts.items() if c}


@settings(max_examples=60, deadline=None)
@given(_element_pairs(), st.data())
def test_pushforward_is_the_fibre_sum_and_a_ring_map(pair, data):
    group, x, y = pair
    target, image = quotient(group, data.draw(st.sampled_from(all_subgroups(group))))
    z, w = _from_ref(group, x), _from_ref(group, y)
    pz = pushforward(z, target, image)
    _assert_canonical(pz, _ref_push(group, target, image, x))
    assert pz.size() == z.size()
    pw = pushforward(w, target, image)
    assert pushforward(z * w, target, image) == pz * pw
    assert pushforward(z + w, target, image) == pz + pw
