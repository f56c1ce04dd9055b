"""Command-line front end: descriptor files in, verdicts with certificates out.

Exit codes: 0 = yes/success, 1 = no, 2 = usage/validation error, 3 = unknown
(budget exhausted).  JSON output is canonical: UTF-8, sorted keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .abelian import FinAbGroup
from .codec import (
    DescriptorError,
    elem_payload,
    load_division,
    load_json,
    orbit_payload,
    parse_division,
    parse_group,
    parse_label,
    parse_labels,
    parse_object,
    serialize_division,
)
from .divalg import brauer_mul, op_class
from .limits import (
    DEFAULT_BUDGET,
    DEFAULT_PRIME_BUDGET,
    LimitDescriptor,
    TriBool,
    absorbs,
    brauer_equivalent,
    iso_elementary,
    iso_general,
    k0_realization,
    standard_form,
    support_invariants,
    verify_absorbs_certificate,
    verify_absorbs_k0_certificate,
    verify_general_iso_certificate,
    verify_iso_certificate,
)
from . import oracle as _oracle


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``, else a usage error."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type when the text is not an int
    return parse


def parse_descriptor(payload: dict, path: str = "descriptor") -> LimitDescriptor:
    parse_object(payload, ("group", "x0", "cycle_labels"), path)
    group = parse_group(payload["group"], f"{path}.group")
    x0 = parse_label(group, payload["x0"], f"{path}.x0")
    prefix = parse_labels(group, payload.get("prefix_labels", []), f"{path}.prefix_labels")
    cycle = parse_labels(group, payload["cycle_labels"], f"{path}.cycle_labels")
    if not cycle:
        raise DescriptorError(f"{path}.cycle_labels", "at least one cycle label required")
    division = None
    if payload.get("division") is not None:
        division = parse_division(group, payload["division"], f"{path}.division")
    return LimitDescriptor(group, x0, prefix, cycle, division)


def load_descriptor(path: str) -> LimitDescriptor:
    return parse_descriptor(load_json(path), path)


def _load_elementary(path: str, use: str) -> LimitDescriptor:
    """A descriptor with no division part beyond the trivial one."""
    d = load_descriptor(path)
    if not d.is_elementary:
        raise DescriptorError(f"{path}.division", f"{use} needs an elementary descriptor")
    return d


def _same_group(group: FinAbGroup, *inputs) -> None:
    """Refuse the first (path, input) pair graded by another group."""
    for path, x in inputs:
        if x.group != group:
            raise DescriptorError(f"{path}.group", "graded by another group than the first input")


def serialize_descriptor(d: LimitDescriptor) -> dict:
    out = {
        "group": list(d.group.factors),
        "x0": elem_payload(d.x0),
        "prefix_labels": [elem_payload(a) for a in d.prefix],
        "cycle_labels": [elem_payload(a) for a in d.cycle],
    }
    if d.division is not None:
        out["division"] = serialize_division(d.division)
    return out


def _emit(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    else:
        for key in sorted(payload):
            print(f"{key}: {json.dumps(payload[key], sort_keys=True)}")


_EXIT = {"yes": 0, "no": 1, "unknown": 3}


def cmd_standard_form(args) -> int:
    d = load_descriptor(args.file)
    sf = standard_form(d)
    # the form is already standard, so this pass takes S and S0 as they stand
    s, s0 = support_invariants(sf)
    out = serialize_descriptor(sf)
    # x0 and the cycle label are products of stated labels, so they can pass
    # the input bounds: what does not read back is refused, not printed
    parse_label(sf.group, out["x0"], "output.descriptor.x0")
    parse_labels(sf.group, out["cycle_labels"], "output.descriptor.cycle_labels")
    payload = {
        "descriptor": out,
        "S": [orbit_payload(o) for o in sorted(s, key=lambda o: o.sort_key())],
        "S0": [orbit_payload(o) for o in sorted(s0, key=lambda o: o.sort_key())],
    }
    _emit(payload, args.json)
    return 0


def _verdict_exit(result: TriBool, args, checker) -> int:
    payload = {"verdict": result.verdict, "certificate": result.certificate}
    if args.check_certificate and result.is_certified:
        ok = checker(result)
        payload["certificate_ok"] = ok
        if not ok:
            _emit(payload, args.json)
            print("error: certificate failed to replay", file=sys.stderr)
            return 2
    _emit(payload, args.json)
    return _EXIT[result.verdict]


def cmd_iso(args) -> int:
    a = load_descriptor(args.file_a)
    b = load_descriptor(args.file_b)
    _same_group(a.group, (args.file_b, b))
    if a.division is None and b.division is None:
        result = iso_elementary(a, b, args.budget, args.budget_primes)
        checker = lambda r: verify_iso_certificate(a, b, r.verdict, r.certificate)
    else:
        result = iso_general(a, b, args.budget, args.budget_primes)
        checker = lambda r: verify_general_iso_certificate(
            a, b, r.verdict, r.certificate
        )
    return _verdict_exit(result, args, checker)


def cmd_absorbs(args) -> int:
    d = _load_elementary(args.file, "absorption")
    cls = load_division(args.division)
    _same_group(d.group, (args.division, cls))
    result = absorbs(d, cls, args.budget)
    checker = lambda r: verify_absorbs_certificate(d, cls, r.verdict, r.certificate)
    return _verdict_exit(result, args, checker)


def cmd_brauer(args) -> int:
    want = {"mul": 2, "inv": 1, "equiv": 3}[args.op]
    if len(args.files) != want:
        raise DescriptorError(
            "files", f"brauer {args.op} takes {want} files, got {len(args.files)}"
        )
    if args.op == "mul":
        d1 = load_division(args.files[0])
        d2 = load_division(args.files[1])
        _same_group(d1.group, (args.files[1], d2))
        e_class, y, h = brauer_mul(d1, d2)
        payload = {
            "E": serialize_division(e_class),
            "y": elem_payload(y),
            "H": [list(g.coords) for g in h.sorted_elements()],
        }
        _emit(payload, args.json)
        return 0
    if args.op == "inv":
        d1 = load_division(args.files[0])
        _emit({"E": serialize_division(op_class(d1))}, args.json)
        return 0
    # equiv: two classes relative to a limit descriptor
    d1 = load_division(args.files[0])
    d2 = load_division(args.files[1])
    desc = _load_elementary(args.files[2], "brauer equivalence")
    _same_group(d1.group, (args.files[1], d2), (args.files[2], desc))
    k0 = k0_realization(desc)
    result = brauer_equivalent(d1, d2, k0, args.budget)

    def checker(r):
        e_class, _y, _h = brauer_mul(d1, d2)
        return verify_absorbs_k0_certificate(k0, e_class, r.verdict, r.certificate)

    return _verdict_exit(result, args, checker)


# every abelian group of order <= 16 except (Z2)^4, whose several thousand
# class pairs put it outside the interactive time budget of this command
_ORACLE_CATALOG = [
    (1,),
    (2,),
    (3,),
    (4,),
    (2, 2),
    (5,),
    (6,),
    (7,),
    (8,),
    (4, 2),
    (2, 2, 2),
    (9,),
    (3, 3),
    (10,),
    (11,),
    (12,),
    (6, 2),
    (13,),
    (14,),
    (15,),
    (16,),
    (8, 2),
    (4, 4),
    (4, 2, 2),
]


def cmd_oracle_check(args) -> int:
    failures: list[str] = []
    checked = []
    for factors in _ORACLE_CATALOG:
        group = FinAbGroup(factors)
        if group.order > args.max_group_order:
            continue
        checked.append(group)
        failures += _oracle.round_trip_failures(group)
        failures += _oracle.cross_validate_group(group)
    payload = {
        "groups_checked": [list(g.factors) for g in checked],
        "failures": failures,
        "ok": not failures,
    }
    _emit(payload, args.json)
    return 0 if not failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``glim`` argument parser, built on the first call and shared by every
    later one in the process: parsing keeps no state in the parser, so
    ``main`` may be called any number of times in-process."""
    parser = argparse.ArgumentParser(
        prog="glim",
        description=(
            "Exact classification of direct limits of graded matrix algebras: "
            "standard forms, K-theory realizations, absorption and isomorphism "
            "verdicts with replayable certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--text", dest="json", action="store_false",
                       help="human-readable output (default)")

    def common(p):
        p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET,
                       help="unrolled cycle periods to search (default 32)")
        p.add_argument("--budget-primes", type=_int_at_least(0), default=DEFAULT_PRIME_BUDGET,
                       help="largest prime scaling invariant to test (default 13)")
        p.add_argument("--check-certificate", action="store_true",
                       help="replay the certificate before reporting")
        output(p)

    p = sub.add_parser("standard-form", help="canonicalize a descriptor, report S and S0")
    p.add_argument("file")
    output(p)
    p.set_defaults(func=cmd_standard_form)

    p = sub.add_parser("iso", help="decide isomorphism of two limits")
    p.add_argument("file_a")
    p.add_argument("file_b")
    common(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("absorbs", help="decide absorption of a division algebra")
    p.add_argument("file")
    p.add_argument("--division", required=True, help="division class file")
    common(p)
    p.set_defaults(func=cmd_absorbs)

    p = sub.add_parser("brauer", help="graded Brauer arithmetic")
    p.add_argument("op", choices=["mul", "inv", "equiv"])
    p.add_argument("files", nargs="+")
    common(p)
    p.set_defaults(func=cmd_brauer)

    p = sub.add_parser("oracle-check", help="run the structure-constants cross-validation")
    p.add_argument("--max-group-order", type=_int_at_least(1), default=4)
    output(p)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
