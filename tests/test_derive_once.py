"""Each immutable input derives its data once: a descriptor its elementary
part, its realization and its tensors with matrix factors; a division class
its Brauer lift, and a group its trivial class; a character system its Smith
form.  The caches must not change an answer."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from glim import divalg, limits
from glim.abelian import dual_and_orbits, group_new
from glim.cli import main
from glim.cyclotomic import get_field
from glim.divalg import DivisionClass, brauer_mul
from glim.exactsolve import integer_solve, nonneg_integer_solve, smith_form
from glim.groupring import (
    GroupRingElem,
    ProjCoords,
    _character_system,
    _character_table,
    canonical_orbits,
    cone_preimage,
    lattice_preimage,
    project,
)
from glim.limits import LimitDescriptor, k0_realization

from conftest import const
from test_golden import GOLDEN, golden_queries, golden_records

DECIDE_MIXED_GROUPS = [[2, 2], [4, 2], [2, 2, 2], [3, 3], [6, 2], [4, 4]]


def test_realization_is_derived_once(klein, x_t, pauli):
    d = LimitDescriptor(klein, const(klein, 2), (), (x_t,))
    assert k0_realization(d) is k0_realization(d)
    with_pauli = LimitDescriptor(klein, const(klein, 2), (), (x_t,), pauli)
    assert k0_realization(with_pauli) is k0_realization(with_pauli)


def test_elementary_part_is_derived_once(klein, x_t, pauli):
    d = LimitDescriptor(klein, const(klein, 2), (), (x_t,))
    assert d.elementary_part() is d
    with_pauli = LimitDescriptor(klein, const(klein, 2), (), (x_t,), pauli)
    part = with_pauli.elementary_part()
    assert part is with_pauli.elementary_part()
    assert part == d and part.division is None


def test_division_class_lifts_once(count_calls, pauli):
    calls = count_calls(divalg, "brauer_lift")
    brauer_mul(pauli, pauli)
    brauer_mul(pauli, pauli)
    assert calls[0] == 1
    twin = DivisionClass(pauli.bichar)  # equal, but a new instance
    assert twin.lift == pauli.lift
    assert calls[0] == 2


def test_trivial_class_is_built_and_lifted_once(monkeypatch, klein, x_t, pauli):
    """The side without a division part reads one trivial class per group,
    so a decision and its replay lift it at most once."""
    lifted = []
    lift = divalg.brauer_lift
    monkeypatch.setattr(divalg, "brauer_lift", lambda d: lifted.append(d) or lift(d))
    with_pauli = LimitDescriptor(klein, x_t, (), (x_t,), pauli)
    plain = LimitDescriptor(klein, x_t, (), (x_t,))
    result = limits.iso_general(with_pauli, plain)
    assert result.certificate["kind"] == "general-iso"
    assert limits.verify_general_iso_certificate(with_pauli, plain, "yes", result.certificate)
    assert len([d for d in lifted if d.is_trivial]) <= 1
    assert DivisionClass.trivial(klein) is DivisionClass.trivial(klein)


@pytest.mark.parametrize("kind", ["general-iso", "elementary-part"])
def test_general_iso_realizes_each_operand_once(count_calls, klein, x_t, pauli, kind):
    """The decision realizes the elementary part and the two tensor operands;
    the replay realizes nothing again."""
    calls = count_calls(limits, "_realize")
    d = LimitDescriptor(klein, x_t, (), (x_t,), DivisionClass(pauli.bichar))
    x0 = x_t if kind == "general-iso" else const(klein, 4)
    d2 = LimitDescriptor(klein, x0, (), (x0,))
    result = limits.iso_general(d, d2)
    assert result.certificate["kind"] == kind
    assert calls[0] == 3
    assert limits.verify_general_iso_certificate(d, d2, result.verdict, result.certificate)
    assert calls[0] == 3


def test_cli_iso_realizes_each_descriptor_once(count_calls, tmp_path, capsys):
    """The decision and the certificate replay read one realization each."""
    calls = count_calls(limits, "_realize")
    label = [{"elem": [0, 0], "mult": 2}]
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"group": [2, 2], "x0": label, "cycle_labels": [label]}))
    code = main(["iso", str(a), str(a), "--check-certificate", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["verdict"], payload["certificate_ok"]) == (0, "yes", True)
    assert calls[0] == 2


def test_golden_corpus_is_unchanged_with_warm_caches():
    """The second pass reads every cache the first pass filled."""
    queries = golden_queries()
    cold = golden_records(queries)
    warm = golden_records(queries)
    assert warm == cold == json.loads(GOLDEN.read_text())


def test_cached_smith_form_is_immutable():
    g = group_new([4, 2])
    rows, (diag, U, V) = _character_system(g, dual_and_orbits(g))
    for part in (rows, U, V):
        assert type(part) is tuple and all(type(row) is tuple for row in part)
    assert type(diag) is tuple


@st.composite
def targets(draw):
    """A group, a canonical orbit tuple, a target over it and whether to
    solve in the cone too: the projection of a small element (nonnegative or
    not), or arbitrary integral coordinates, which mostly have no preimage
    and are solved in the lattice only."""
    g = group_new(draw(st.sampled_from(DECIDE_MIXED_GROUPS)))
    orbits = dual_and_orbits(g)
    chosen = draw(st.sets(st.integers(0, len(orbits) - 1), min_size=1))
    orbs = canonical_orbits(g, [orbits[i] for i in chosen])
    if draw(st.booleans()):
        nonneg = draw(st.booleans())
        low = 0 if nonneg else -2
        num = draw(st.lists(st.integers(low, 2), min_size=g.order, max_size=g.order))
        return nonneg, project(GroupRingElem(g, tuple(num)), orbs)
    fld = get_field(g.exponent)
    coords = st.lists(st.integers(-3, 3), min_size=fld.degree, max_size=fld.degree)
    values = tuple(fld.element(draw(coords)) for _ in orbs)
    return False, ProjCoords(g, orbs, values)


@settings(max_examples=60, deadline=None)
@given(targets())
def test_cached_smith_form_solves_as_a_fresh_one(case):
    nonneg, target = case
    g = target.group
    table = _character_table(g)
    rows = [list(row) for o in target.orbits for row in table[o]]
    vec = [c for v in target.values for c in v.num]
    fresh = integer_solve(rows, vec, smith_form(rows))
    got = lattice_preimage(target)
    assert (got is None) == (fresh is None)
    if got is not None:
        assert list(got.num) == fresh and project(got, target.orbits) == target
    if nonneg:  # the cone's branch and bound is kept to targets it decides fast
        fresh = nonneg_integer_solve(rows, vec, smith_form(rows))
        got = cone_preimage(target)
        assert (got is None) == (fresh is None)
        if got is not None:
            assert list(got.num) == fresh and got.is_nonneg_integer
