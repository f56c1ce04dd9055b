"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime bound."""

import random
import time

from glim.abelian import Subgroup, group_new
from glim.divalg import (
    Bicharacter,
    DivisionClass,
    brauer_mul,
    enumerate_division_classes,
    op_class,
)
from glim.groupring import GroupRingElem, subgroup_sum, supp_orbits
from glim.limits import (
    LimitDescriptor,
    absorbs,
    in_k_group,
    in_positive_cone,
    iso_elementary,
    iso_general,
    k0_realization,
    quotient_pushforward,
    scaling_invertible,
    tensor_elementary,
)
from glim import oracle

from conftest import const, random_descriptor, uhf


def _klein():
    g = group_new([2, 2])
    full = Subgroup(g, (g.element((1, 0)), g.element((0, 1))))
    pauli = DivisionClass(Bicharacter.from_exponents(full, [[0, 1], [1, 0]]))
    return g, full, pauli, subgroup_sum(full)


def _report(number: int, ok: bool, detail: str, elapsed: float, bound: float):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail} ({elapsed:.2f}s, bound {bound:.0f}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < bound, f"criterion {number} exceeded {bound}s ({elapsed:.2f}s)"


def test_criterion_1_absorption_example():
    g, full, pauli, x_t = _klein()
    start = time.monotonic()
    d = LimitDescriptor(g, x_t, (), (x_t,))
    verdict = absorbs(d, pauli, 8)
    q = oracle.build_twisted(pauli.bichar)
    squares_to_matrix = oracle.graded_iso_finite(
        oracle.tensor(q, q), oracle.build_matrix(x_t)
    )
    elapsed = time.monotonic() - start
    ok = verdict.verdict == "yes" and squares_to_matrix
    _report(1, ok, "division grading absorbed; square of the division algebra "
            "is the full matrix multiset", elapsed, 1.0)


def test_criterion_2_division_times_opposite():
    g, full, pauli, x_t = _klein()
    start = time.monotonic()
    e_class, y, _h = brauer_mul(pauli, op_class(pauli))
    arithmetic_ok = e_class.is_trivial and y == x_t
    observed = oracle.graded_simple_decompose(
        oracle.tensor(
            oracle.build_twisted(pauli.bichar),
            oracle.opposite(oracle.build_twisted(op_class(pauli).bichar)),
        )
    )
    expected = oracle.expected_tensor_invariant(pauli, op_class(pauli))
    oracle_ok = (
        observed.support.elements == expected.support.elements
        and observed.bichar == expected.bichar
        and observed.coset_multiset == expected.coset_multiset
    )
    elapsed = time.monotonic() - start
    _report(2, arithmetic_ok and oracle_ok,
            "product with the opposite class is the full-support matrix multiset, "
            "matching the explicit 16-dim tensor", elapsed, 1.0)


def test_criterion_3_rank_data_and_nonisomorphism():
    g, full, pauli, x_t = _klein()
    start = time.monotonic()
    a = LimitDescriptor(g, const(g, 2), (), (const(g, 2),))
    a_prime = LimitDescriptor(g, x_t, (), (x_t,))
    ka, kap = k0_realization(a), k0_realization(a_prime)
    checks = [
        len(ka.orbits) == 4,
        len(kap.orbits) == 1,
        scaling_invertible(ka, const(g, 2), 8).verdict == "yes",
        scaling_invertible(kap, const(g, 2), 8).verdict == "yes",
        ka.order_unit.values[0].as_rational() == 2,
        kap.order_unit.values[0].as_rational() == 4,
        iso_elementary(a, a_prime, 8).verdict == "no",
    ]
    a_with_pauli = LimitDescriptor(g, const(g, 2), (), (const(g, 2),), pauli)
    checks.append(iso_general(a_with_pauli, a_prime, 8).verdict == "no")
    pushed = k0_realization(quotient_pushforward(a, full))
    checks.append(pushed.group.order == 1)
    checks.append(pushed.order_unit.values[0].as_rational() == 2)
    checks.append(pushed.order_unit == k0_realization(a_with_pauli).order_unit)
    elapsed = time.monotonic() - start
    _report(3, all(checks),
            "rank data match the two realizations; limits certified "
            "non-isomorphic while the pushforward identifies the modules",
            elapsed, 5.0)


def test_criterion_4_absorption_conditions_agree():
    start = time.monotonic()
    rng = random.Random(2024)
    groups = [group_new([2, 2]), group_new([4])]
    agreements = 0
    for i in range(50):
        g = groups[i % 2]
        d = random_descriptor(rng, g)
        cls = rng.choice(enumerate_division_classes(g))
        k0 = k0_realization(d)
        x_t = subgroup_sum(cls.support)
        s = frozenset(k0.orbits)
        # (ii): multiplication by the support multiset fixes the cone
        if supp_orbits(x_t) >= s:
            cond2 = scaling_invertible(k0, x_t, 6)
        else:
            cond2 = scaling_invertible(k0, x_t, 6)  # support deficit: certified no
        # (iii): support annihilates S and the support order scales invertibly
        cond3 = absorbs(d, cls, 6)
        if cond2.is_certified and cond3.is_certified:
            assert cond2.verdict == cond3.verdict, (d, cls.support.order)
            agreements += 1
    elapsed = time.monotonic() - start
    _report(4, agreements >= 40,
            f"absorption conditions agreed on {agreements}/50 certified cases",
            elapsed, 60.0)


def test_criterion_5_oracle_equivalence_suite():
    start = time.monotonic()
    failures = []
    for factors in [(2, 2), (4, 4)]:
        failures += oracle.cross_validate_group(group_new(list(factors)))
    elapsed = time.monotonic() - start
    _report(5, not failures,
            "Brauer arithmetic matches explicit tensor decompositions on every "
            "class pair over the fully enumerable groups", elapsed, 300.0)


def test_criterion_6_invariant_suites():
    start = time.monotonic()
    from glim.abelian import all_subgroups, dual_and_orbits, perp
    from glim.groupring import orbit_idempotent, project

    ok = True
    # idempotent orthogonality and completeness
    for factors in [[2, 2], [4], [6], [4, 2]]:
        g = group_new(factors)
        idems = [orbit_idempotent(o) for o in dual_and_orbits(g)]
        total = GroupRingElem.zero(g)
        for i, ei in enumerate(idems):
            ok = ok and ei * ei == ei
            total = total + ei
            for ej in idems[i + 1:]:
                ok = ok and (ei * ej).is_zero
        ok = ok and total == GroupRingElem.one(g)
    # conjugation-stability of the character support
    rng = random.Random(7)
    from conftest import random_label
    for _ in range(20):
        z = random_label(rng, group_new([4, 2]))
        ok = ok and supp_orbits(z.bar()) == supp_orbits(z)
    # membership monotonicity
    g = group_new([2, 2])
    for _ in range(8):
        d = random_descriptor(rng, g)
        k = k0_realization(d)
        z = k.order_unit * project(k.cycle_bar, k.orbits).inverse()
        r_small = in_positive_cone(k, z, 4)
        r_big = in_positive_cone(k, z, 10)
        ok = ok and r_small.verdict == "yes" == r_big.verdict
        ok = ok and r_big.certificate["index"] <= r_small.certificate["index"]
        ok = ok and in_k_group(k, z, 4).verdict == "yes"
    # perp biduality
    for factors in [[2, 2], [4], [4, 2], [8]]:
        gg = group_new(factors)
        for sub in all_subgroups(gg):
            dd = perp(gg, perp(gg, sub.elements).elements)
            ok = ok and {x.coords for x in dd.elements} == {
                x.coords for x in sub.elements
            }
    # cancellation sanity on a regression corpus
    triv = group_new([1])
    corpus = [
        (uhf(triv, 2), uhf(triv, 4)),
        (uhf(triv, 2), uhf(triv, 3)),
        (random_descriptor(rng, g), random_descriptor(rng, g)),
        (random_descriptor(rng, g), random_descriptor(rng, g)),
    ]
    for n in (2, 3):
        for d1, d2 in corpus:
            base = iso_elementary(d1, d2, 6)
            amp = iso_elementary(
                tensor_elementary(d1, const(d1.group, n)),
                tensor_elementary(d2, const(d2.group, n)),
                6,
            )
            if base.is_certified and amp.is_certified:
                ok = ok and base.verdict == amp.verdict
    elapsed = time.monotonic() - start
    _report(6, ok, "idempotent, support, monotonicity, biduality and "
            "cancellation invariants all hold", elapsed, 60.0)


def test_criterion_7_classical_uhf_sanity():
    start = time.monotonic()
    triv = group_new([1])
    two, three, four = uhf(triv, 2), uhf(triv, 3), uhf(triv, 4)
    r_23 = iso_elementary(two, three, 8)
    r_24 = iso_elementary(two, four, 4)
    elapsed = time.monotonic() - start
    ok = r_23.verdict == "no" and r_24.verdict == "yes"
    _report(7, ok, "dyadic vs triadic limits separated; dyadic vs quartic "
            "identified within budget 4", elapsed, 1.0)
