"""The JSON codec: what it writes it reads back unchanged, and a field that
breaks its int rule is a ``DescriptorError`` naming the field."""

import copy
import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glim.abelian import group_new
from glim.cli import parse_descriptor, serialize_descriptor
from glim.codec import (
    DescriptorError,
    elem_payload,
    parse_division,
    parse_label,
    serialize_division,
)
from glim.divalg import enumerate_division_classes
from glim.groupring import GroupRingElem
from glim.limits import LimitDescriptor, in_k_group, k0_realization, verify_member_certificate

from conftest import const
from test_derive_once import DECIDE_MIXED_GROUPS


@functools.cache
def _classes(factors: tuple) -> list:
    return enumerate_division_classes(group_new(list(factors)))


@st.composite
def descriptors(draw):
    """A descriptor over a decide-mixed group: small nonzero labels, a prefix
    of up to two labels, a cycle of one or two, and any division class or
    none."""
    factors = draw(st.sampled_from(DECIDE_MIXED_GROUPS))
    g = group_new(factors)
    label = st.lists(
        st.tuples(st.integers(0, g.order - 1), st.integers(1, 5)), min_size=1, max_size=3
    ).map(lambda terms: GroupRingElem.from_terms(g, terms))
    division = draw(st.none() | st.sampled_from(_classes(tuple(factors))))
    return LimitDescriptor(
        g,
        draw(label),
        tuple(draw(st.lists(label, max_size=2))),
        tuple(draw(st.lists(label, min_size=1, max_size=2))),
        division,
    )


@settings(max_examples=100, deadline=None)
@given(descriptors())
def test_descriptor_and_division_payloads_round_trip(d):
    payload = json.loads(json.dumps(serialize_descriptor(d)))
    back = parse_descriptor(payload)
    assert serialize_descriptor(back) == payload
    assert back == d
    if d.division is not None:
        division = serialize_division(d.division)
        cls = parse_division(d.group, json.loads(json.dumps(division)), "division")
        assert serialize_division(cls) == division


@settings(max_examples=100, deadline=None)
@given(
    factors=st.sampled_from(DECIDE_MIXED_GROUPS),
    coeffs=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), min_size=1, max_size=4),
)
def test_certificate_label_with_rationals_round_trips(factors, coeffs):
    g = group_new(factors)
    elems = g.elements()
    z = GroupRingElem.from_dict(g, {elems[i]: Fraction(p, q) for i, (p, q) in enumerate(coeffs)})
    payload = json.loads(json.dumps(elem_payload(z)))
    assert parse_label(g, payload, "witness", certificate=True) == z


@pytest.mark.parametrize("mult", [True, 2.0, "4/2"])
def test_certificate_mult_breaking_the_int_rule_names_the_field(klein, x_t, mult):
    k0 = k0_realization(LimitDescriptor(klein, const(klein, 2), (), (x_t,)))
    z = k0.order_unit
    result = in_k_group(k0, z)
    assert result.certificate["kind"] == "member-witness"
    assert verify_member_certificate(k0, z, "yes", result.certificate)
    bad = copy.deepcopy(result.certificate)
    bad["witness"][0]["mult"] = mult
    with pytest.raises(DescriptorError) as info:
        parse_label(klein, bad["witness"], "witness", certificate=True)
    assert info.value.path == "witness[0].mult"
    assert verify_member_certificate(k0, z, "yes", bad) is False
