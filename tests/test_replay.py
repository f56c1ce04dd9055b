"""Certificate replay is total and reads every field exactly.

The inputs are the golden corpus's decision queries (``test_golden``), each
with its certificate.  Every public ``verify_*`` must return a bool and never
raise, whatever it is given as a certificate; a type swap in a field that
replay reads, or a dropped key that it reads, must replay False; and no
certificate may transplant: a ``no`` replayed against a pair with a certified
``yes`` is False, and so is a ``yes`` against a pair with a certified ``no``.
"""

import copy
import functools

from hypothesis import given, seed, settings, strategies as st

from glim.groupring import GroupRingElem
from glim.limits import (
    absorbs,
    in_k_group,
    in_positive_cone,
    iso_elementary,
    iso_general,
    k0_realization,
    verify_absorbs_certificate,
    verify_absorbs_k0_certificate,
    verify_cone_certificate,
    verify_general_iso_certificate,
    verify_iso_certificate,
    verify_member_certificate,
    verify_scaling_certificate,
)

from test_golden import golden_queries

REPLAY = {
    iso_elementary: verify_iso_certificate,
    absorbs: verify_absorbs_certificate,
    iso_general: verify_general_iso_certificate,
    in_k_group: verify_member_certificate,
    in_positive_cone: verify_cone_certificate,
}
# the certificate kinds each verify_* replays
KINDS = {
    verify_member_certificate: {"member-witness", "norm-obstruction", "budget-exhausted"},
    verify_cone_certificate: {
        "member-witness",
        "negative-trivial-coordinate",
        "zero-trivial-coordinate",
        "irrational-trivial-coordinate",
        "norm-obstruction",
        "budget-exhausted",
    },
    verify_scaling_certificate: {"support-deficit", "scaling"},
    verify_absorbs_certificate: {"support-obstruction", "absorption"},
    verify_absorbs_k0_certificate: {"support-obstruction", "absorption"},
    verify_iso_certificate: {
        "invariant-mismatch",
        "dimension-type-mismatch",
        "finite-type-no-shift",
        "prime-separation",
        "iso-witness",
        "budget-exhausted",
    },
    verify_general_iso_certificate: {
        "absorption-fails",
        "elementary-part",
        "general-iso",
        "budget-exhausted",
    },
}
# fields that replay does not read (README, "Certificate replay")
UNREAD = {
    "size",
    "value",
    "value_valuation",
    "prefix_valuation_cap",
    "left_cycle_size",
    "right_cycle_size",
    "support_product_class",
}


@functools.cache
def corpus() -> list[tuple]:
    """(verify, x, y, verdict, certificate) for every decision query of the
    golden corpus, plus the membership queries asked of the positive cone,
    the absorption queries replayed on their realized datum and, for an
    ``absorption`` certificate, its inner scaling one."""
    cases = []
    for procedure, args in golden_queries().values():
        if procedure not in REPLAY:
            continue
        r = procedure(*args)
        cases.append((REPLAY[procedure], args[0], args[1], r.verdict, r.certificate))
        if procedure is in_k_group:
            r = in_positive_cone(*args)
            cases.append((REPLAY[in_positive_cone], args[0], args[1], r.verdict, r.certificate))
        if procedure is absorbs:
            k0 = k0_realization(args[0])
            cases.append((verify_absorbs_k0_certificate, k0, args[1], r.verdict, r.certificate))
            if r.certificate["kind"] == "absorption":
                scaler = GroupRingElem.constant(k0.group, args[1].support.order)
                inner = r.certificate["inner"]
                cases.append((verify_scaling_certificate, k0, scaler, r.verdict, inner))
    return cases


def _sub_certificates(cert):
    """Every dict with a ``kind`` inside a certificate, the certificate first."""
    if isinstance(cert, dict):
        if "kind" in cert:
            yield cert
        for value in cert.values():
            yield from _sub_certificates(value)
    elif isinstance(cert, list):
        for value in cert:
            yield from _sub_certificates(value)


def _paths(node, path=()):
    """(path, value) for every dict value and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _is_read(cert: dict, path: tuple) -> bool:
    """Does replay read the field at ``path``?"""
    node = cert
    for key in path:
        if isinstance(node, dict):
            kind = node.get("kind")
            if key in UNREAD or (kind == "budget-exhausted" and key != "kind"):
                return False
            if kind == "invariant-mismatch" and key in ("left", "right"):
                return False
        node = node[key]
    return True


def _mutated(cert: dict, path: tuple, *value) -> dict:
    """A copy of ``cert`` with the field at ``path`` set to ``value``, or
    dropped when no value is given."""
    out = copy.deepcopy(cert)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value:
        node[path[-1]] = value[0]
    else:
        del node[path[-1]]
    return out


def _swaps(value) -> list:
    """The same value under every other JSON scalar type."""
    if type(value) is bool:
        return [int(value), str(value).lower(), float(value)]
    if type(value) is int:
        return [str(value), float(value), bool(value)]
    return [0, 0.5, True]  # a string


def _check(case, cert, verdict=None):
    """Replay ``cert`` on the case's inputs, under its verdict by default."""
    verify, x, y, case_verdict, _cert = case
    result = verify(x, y, verdict or case_verdict, cert)
    assert type(result) is bool, (verify.__name__, cert)
    return result


def test_corpus_replays():
    cases = corpus()
    assert len(cases) > 250
    for case in cases:
        assert _check(case, case[4]), case[0].__name__


@seed(1)
@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_mutated_certificates_replay_to_a_bool(data):
    case = data.draw(st.sampled_from(corpus()))
    cert = case[4]
    paths = list(_paths(cert))
    scalars = [(p, v) for p, v in paths if isinstance(v, (bool, int, str, float))]
    keyed = [p for p, _v in paths if isinstance(p[-1], str)]
    reps = [p for p, v in paths if p[-1] == "rep"]
    mutation = data.draw(st.sampled_from(["drop", "step", "swap", "rep"]))
    if mutation == "drop" and keyed:
        path = data.draw(st.sampled_from(keyed))
        result = _check(case, _mutated(cert, path))
        assert not (result and _is_read(cert, path)), path
    elif mutation == "step":
        ints = [(p, v) for p, v in scalars if type(v) is int]
        if ints:
            path, value = data.draw(st.sampled_from(ints))
            _check(case, _mutated(cert, path, value + data.draw(st.sampled_from([-1, 1]))))
    elif mutation == "swap" and scalars:
        path, value = data.draw(st.sampled_from(scalars))
        swapped = data.draw(st.sampled_from(_swaps(value)))
        result = _check(case, _mutated(cert, path, swapped))
        assert not (result and _is_read(cert, path)), (path, swapped)
    elif mutation == "rep" and reps:
        path = data.draw(st.sampled_from(reps))
        rep = data.draw(st.lists(st.integers(-1, 9), min_size=1, max_size=3))
        _check(case, _mutated(cert, path, rep))


def test_malformed_or_foreign_certificates_replay_false():
    cases = corpus()
    pool = {}
    for case in cases:
        for sub in _sub_certificates(case[4]):
            pool.setdefault(sub["kind"], sub)
    seen = set()
    for case in cases:
        verify = case[0]
        if verify in seen:
            continue
        seen.add(verify)
        foreign = [c for kind, c in pool.items() if kind not in KINDS[verify]]
        for cert in [None, {}, [], "", 0, *foreign]:
            for verdict in ("yes", "no", "unknown"):
                assert _check(case, cert, verdict) is False, (verify.__name__, cert)


def test_certificates_do_not_transplant():
    """A no never replays on a pair that has a certified yes, nor a yes on
    a pair that has a certified no, under the same verify_*."""
    by_verify = {}
    for case in corpus():
        by_verify.setdefault(case[0], []).append(case)
    transplanted = 0
    for verify, cases in by_verify.items():
        yes = [c for c in cases if c[3] == "yes"]
        no = [c for c in cases if c[3] == "no"]
        for donors, hosts in ((no, yes), (yes, no)):
            for donor in donors:
                for host in hosts:
                    transplanted += 1
                    assert verify(host[1], host[2], donor[3], donor[4]) is False, (
                        verify.__name__,
                        donor[4],
                    )
    assert transplanted > 1000
