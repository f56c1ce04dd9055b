"""Which program functions the traced run wraps, and the per-layer metrics
derived from the spans and counters they record.

Nothing under ``src/glim`` is edited: ``install`` swaps each listed function
for a tracer wrapper in every ``glim`` module namespace and class that holds
the original object.
"""

from __future__ import annotations

import sys

# (metric prefix, module, attribute or "Class.method", how):
#   "span"  - a span per call; gives .calls and .self_s
#   "count" - only calls are counted (too many calls for a span each)
#   "steps" - a generator; every value it yields is counted
WRAPPED = [
    ("groupring.char_eval", "groupring", "char_eval", "count"),
    ("groupring.project", "groupring", "project", "span"),
    ("groupring.supp_orbits", "groupring", "supp_orbits", "span"),
    ("groupring.cone_preimage", "groupring", "cone_preimage", "span"),
    ("groupring.lattice_preimage", "groupring", "lattice_preimage", "span"),
    ("cyclotomic.mul", "cyclotomic", "CycNum.__mul__", "count"),
    ("cyclotomic.add", "cyclotomic", "CycNum.__add__", "count"),
    ("cyclotomic.inverse", "cyclotomic", "CycNum.inverse", "span"),
    ("cyclotomic.norm_to_q", "cyclotomic", "CycNum.norm_to_q", "span"),
    ("exactsolve.nonneg_integer_solve", "exactsolve", "nonneg_integer_solve", "span"),
    ("exactsolve.lp_feasible", "exactsolve", "lp_feasible", "span"),
    ("exactsolve.integer_solve", "exactsolve", "integer_solve", "span"),
    ("exactsolve.rational_solve", "exactsolve", "rational_solve", "span"),
    ("limits.iso_elementary", "limits", "iso_elementary", "span"),
    ("limits.iso_general", "limits", "iso_general", "span"),
    ("limits.absorbs", "limits", "absorbs", "span"),
    ("limits.k0_realization", "limits", "k0_realization", "span"),
    ("limits.in_positive_cone", "limits", "in_positive_cone", "span"),
    ("limits.denominators", "limits", "K0Descriptor.denominators", "steps"),
    ("limits.verify", "limits", "verify_member_certificate", "span"),
    ("limits.verify", "limits", "verify_scaling_certificate", "span"),
    ("limits.verify", "limits", "verify_absorbs_certificate", "span"),
    ("limits.verify", "limits", "verify_absorbs_k0_certificate", "span"),
    ("limits.verify", "limits", "verify_iso_certificate", "span"),
    ("limits.verify", "limits", "verify_general_iso_certificate", "span"),
    ("oracle.build_twisted", "oracle", "build_twisted", "span"),
    ("oracle.tensor", "oracle", "tensor", "span"),
    ("oracle.opposite", "oracle", "opposite", "span"),
    ("oracle.graded_simple_decompose", "oracle", "graded_simple_decompose", "span"),
    ("oracle.minimal_graded_left_ideal", "oracle", "minimal_graded_left_ideal", "span"),
    ("oracle.is_central_simple", "oracle", "is_central_simple", "span"),
    ("oracle.expected_tensor_invariant", "oracle", "expected_tensor_invariant", "span"),
    ("oracle.algebra_init", "oracle", "FiniteGradedAlgebra.__init__", "span"),
    ("cli.main", "cli", "main", "span"),
    ("cli.parse_descriptor", "cli", "parse_descriptor", "span"),
    ("divalg.brauer_mul", "divalg", "brauer_mul", "span"),
    ("divalg.enumerate_division_classes", "divalg", "enumerate_division_classes", "span"),
    ("abelian.dual_and_orbits", "abelian", "dual_and_orbits", "count"),
    ("abelian.quotient", "abelian", "quotient", "span"),
]


def _found(result) -> bool:
    return result is not None


# spans whose calls also count as hits when the result was useful
HITS = {
    "groupring.cone_preimage": _found,
    "groupring.lattice_preimage": _found,
    "exactsolve.nonneg_integer_solve": _found,
    "limits.in_positive_cone": lambda result: result.verdict == "yes",
}
# spans that add a measured size to a counter: the constructed algebra's dimension
EXTRA = {"oracle.algebra_init": lambda args, _result: {"dim_sum": args[0].dim}}


def _resolve(module, attr: str):
    owner = module
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(module, cls_name)
    return owner, attr


def install(tracer) -> None:
    """Wrap every function in ``WRAPPED`` wherever the ``glim`` modules hold it."""
    modules = [m for name, m in sys.modules.items() if name == "glim" or name.startswith("glim.")]
    for metric, module_name, attr, how in WRAPPED:
        module = sys.modules["glim." + module_name]
        owner, name = _resolve(module, attr)
        original = owner.__dict__[name]
        if how == "span":
            wrapped = tracer.span(metric, original, HITS.get(metric), EXTRA.get(metric))
        elif how == "count":
            wrapped = tracer.count(metric, original)
        else:
            wrapped = tracer.count_yields(metric, original)
        # a method is replaced on its class under every alias (__rmul__ too)
        for holder in ([owner] if owner is not module else modules):
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)


def per_layer_metrics(tracer, overhead_qps: float, wanted) -> dict[str, tuple[float, str]]:
    """The metrics ``wanted`` (pairs of name and unit) from one traced pass,
    as (value, unit).

    A name is ``<prefix>.calls``, ``.self_s``, ``.<counter>`` or
    ``.<outcome>_ratio`` of a prefix in ``WRAPPED``, or
    ``trace.overhead_qps``.  A ratio over zero calls reads 0.
    """
    prefixes = {metric for metric, *_ in WRAPPED}
    counters = tracer.counters
    self_s = tracer.self_seconds()
    out = {}
    for name, unit in wanted:
        prefix, _, field = name.rpartition(".")
        if name == "trace.overhead_qps":
            value = overhead_qps
        elif prefix not in prefixes:
            raise ValueError(f"per-layer metric {name} names no wrapped function")
        elif field == "self_s":
            value = self_s.get(prefix, 0.0)
        elif field.endswith("_ratio"):
            calls = counters[prefix + ".calls"]
            value = counters[prefix + ".hits"] / calls if calls else 0.0
        else:
            value = counters[name]
        out[name] = (value, unit)
    return out
