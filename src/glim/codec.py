"""The one JSON codec: groups, coordinates, group-ring labels, division classes,
orbits and certificate fields are read and written here, under one rule.  A
JSON int must be an ``int`` (never a bool, float or string), positive where
the format requires it; a list holds at most ``MAX_LENGTH`` items; and every
error is a ``DescriptorError`` naming its key path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .abelian import CharOrbit, FinAbGroup, GroupElem, _element_index, subgroup_basis
from .divalg import DivisionClass, bicharacter_from_generator_data
from .groupring import GroupRingElem

MAX_GROUP_ORDER = 64  # the documented scale: subgroups are enumerated in full
MAX_MULT = 2**32  # a descriptor multiplicity is below this
MAX_LENGTH = 64  # items in a list: factors, generators, label terms, labels


class DescriptorError(ValueError):
    """A parse or validation error, annotated with the offending key path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def exact(x, typ: type, path: str):
    """``x`` itself when its type is exactly ``typ`` (so a bool is no int)."""
    if type(x) is not typ:
        raise DescriptorError(path, f"expected {typ.__name__}, got {x!r}")
    return x


def parse_object(payload, keys: tuple[str, ...], path: str) -> dict:
    """A JSON object holding each of ``keys``."""
    if not isinstance(payload, dict):
        raise DescriptorError(path, "expected a JSON object")
    for key in keys:
        if key not in payload:
            raise DescriptorError(path, f"missing key '{key}'")
    return payload


def _parse_list(payload, what: str, path: str) -> list:
    """A JSON list of at most ``MAX_LENGTH`` items."""
    if not isinstance(payload, list):
        raise DescriptorError(path, f"expected a list of {what}")
    if len(payload) > MAX_LENGTH:
        raise DescriptorError(path, f"{len(payload)} {what}, more than {MAX_LENGTH}")
    return payload


def parse_ints(payload, n: int, path: str) -> tuple[int, ...]:
    """A list of exactly n integers; a float, string or bool is an error, never
    converted."""
    if not isinstance(payload, list) or len(payload) != n:
        raise DescriptorError(path, f"expected a list of {n} integers")
    for i, x in enumerate(payload):
        if type(x) is not int:
            raise DescriptorError(f"{path}[{i}]", "expected an integer")
    return tuple(payload)


def parse_element(group: FinAbGroup, payload, path: str) -> GroupElem:
    """The element with these coordinates, each reduced modulo its factor."""
    return group.element(parse_ints(payload, len(group.factors), path))


def parse_group(payload, path: str) -> FinAbGroup:
    factors = parse_ints(_parse_list(payload, "cyclic factors", path), len(payload), path)
    if not factors or min(factors) < 1:
        raise DescriptorError(path, "group must be a nonempty list of positive factors")
    group = FinAbGroup(factors)
    if group.order > MAX_GROUP_ORDER:
        raise DescriptorError(
            path, f"group order {group.order} exceeds the supported {MAX_GROUP_ORDER}"
        )
    return group


def _descriptor_mult(m, path: str) -> int:
    if type(m) is not int or not 0 < m < MAX_MULT:
        raise DescriptorError(path, "multiplicity must be a positive integer below 2^32")
    return m


def _certificate_mult(m, path: str) -> int | Fraction:
    """What ``elem_payload`` writes: an int, or a ``"p/q"`` string in lowest
    terms with q > 1."""
    if type(m) is int:
        return m
    try:
        if type(m) is str and _mult_payload(q := Fraction(m)) == m:
            return q
    except (ValueError, ZeroDivisionError):
        pass
    raise DescriptorError(path, f"multiplicity {m!r} is not an int or a 'p/q' string")


def parse_label(group: FinAbGroup, payload, path: str, certificate: bool = False) -> GroupRingElem:
    """The sum of a list of ``{"elem", "mult"}`` terms.  A descriptor label is
    nonempty, each mult and each coefficient of the sum a positive int below
    ``MAX_MULT``; a certificate label may be empty, and its mults are anything
    ``elem_payload`` writes."""
    if not (_parse_list(payload, "terms", path) or certificate):
        raise DescriptorError(path, "label must be a nonempty list of terms")
    index = _element_index(group)
    mult = _certificate_mult if certificate else _descriptor_mult
    terms = []
    for i, term in enumerate(payload):
        tpath = f"{path}[{i}]"
        parse_object(term, ("elem", "mult"), tpath)
        g = parse_element(group, term["elem"], f"{tpath}.elem")
        terms.append((index[g.coords], mult(term["mult"], f"{tpath}.mult")))
    den = lcm(*(m.denominator for _, m in terms))
    x = GroupRingElem.from_terms(
        group, [(i, m.numerator * (den // m.denominator)) for i, m in terms], den
    )
    if not certificate and max(x.num) >= MAX_MULT:
        raise DescriptorError(path, "a coefficient must be below 2^32")
    return x


def parse_labels(group: FinAbGroup, payload, path: str) -> tuple[GroupRingElem, ...]:
    labels = _parse_list(payload, "labels", path)
    return tuple(parse_label(group, lbl, f"{path}[{i}]") for i, lbl in enumerate(labels))


def parse_division(group: FinAbGroup, payload, path: str) -> DivisionClass:
    parse_object(payload, ("support_gens", "beta", "zeta_order"), path)
    gpath = f"{path}.support_gens"
    gens_raw = _parse_list(payload["support_gens"], "elements", gpath)
    gens = [parse_element(group, c, f"{gpath}[{i}]") for i, c in enumerate(gens_raw)]
    zo = payload["zeta_order"]
    if type(zo) is not int or zo < 1:
        raise DescriptorError(f"{path}.zeta_order", "must be a positive integer")
    beta = payload["beta"]
    if not isinstance(beta, list) or len(beta) != len(gens):
        raise DescriptorError(f"{path}.beta", f"expected a list of {len(gens)} rows")
    rows = [parse_ints(row, len(gens), f"{path}.beta[{i}]") for i, row in enumerate(beta)]
    try:
        return DivisionClass(bicharacter_from_generator_data(group, gens, rows, zo))
    except (ValueError, AssertionError) as exc:
        raise DescriptorError(f"{path}.beta", str(exc)) from exc


def orbit_index(orbits: tuple[CharOrbit, ...], payload, path: str) -> int:
    """The index in ``orbits`` of the orbit whose representative's coordinates
    are the payload's ``rep``."""
    reps = [o.representative.coords for o in orbits]
    rep = parse_ints(parse_object(payload, ("rep",), path)["rep"], len(reps[0]), f"{path}.rep")
    if rep not in reps:
        raise DescriptorError(f"{path}.rep", "no orbit of S has this representative")
    return reps.index(rep)


def load_json(path: str):
    """The file's JSON; a file that is not UTF-8 JSON within Python's limits
    (nesting depth, digits of an integer) is a ``DescriptorError`` naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DescriptorError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
        except RecursionError as exc:
            raise DescriptorError(path, "JSON nested too deeply") from exc
        except ValueError as exc:  # not UTF-8, or an integer too long to convert
            raise DescriptorError(path, str(exc)) from exc


def load_division(path: str) -> DivisionClass:
    """A division-class file: a descriptor's ``division`` plus its ``group``."""
    payload = parse_object(load_json(path), ("group",), path)
    return parse_division(parse_group(payload["group"], f"{path}.group"), payload, path)


def _mult_payload(c: Fraction) -> int | str:
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def elem_payload(z: GroupRingElem) -> list[dict]:
    return [{"elem": list(g.coords), "mult": _mult_payload(c)} for g, c in z.coeffs]


def orbit_payload(o: CharOrbit) -> dict:
    return {"rep": list(o.representative.coords), "size": o.field_degree}


def serialize_division(d: DivisionClass) -> dict:
    gens, _orders, _ = subgroup_basis(d.support)
    return {
        "support_gens": [list(g.coords) for g in gens],
        "beta": [list(row) for row in d.bichar.matrix],
        "zeta_order": d.group.exponent,
    }
