"""Every function the benchmark's traced run wraps still exists in ``glim``.

``perfbench/instrument.py`` swaps each ``(module, attribute)`` of its
``WRAPPED`` list for a tracer wrapper; a refactor that renames or deletes one
would break the traced run, so this test names the ones that no longer
resolve.  Likewise every name the benchmark imports from ``glim``, including
imports inside functions, must still be there.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INSTRUMENT = PERFBENCH / "instrument.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_wrapped_function_resolves():
    wrapped = _wrapped()
    assert wrapped
    missing = []
    for _metric, module_name, attr, _how in wrapped:
        owner = importlib.import_module("glim." + module_name)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = vars(owner).get(cls)
        # install() reads the attribute from the owner's own namespace
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"glim.{module_name}.{attr}")
    assert not missing


def _resolves(module_name: str, name: str) -> bool:
    """Does ``from module_name import name`` succeed?  A package's name may
    be a submodule not yet imported (``from glim import cli``)."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    return hasattr(module, "__path__") and importlib.util.find_spec(
        f"{module_name}.{name}"
    ) is not None


def test_every_name_the_benchmark_imports_from_glim_resolves():
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module == "glim" or node.module.startswith("glim."):
                missing += [
                    f"{path.name}:{node.lineno}: from {node.module} import {alias.name}"
                    for alias in node.names
                    if not _resolves(node.module, alias.name)
                ]
    assert not missing


_INSTALL_CHECK = """
import importlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
for name in ("glim", "glim.cli", "glim.limits", "glim.oracle"):
    importlib.import_module(name)
import instrument, spans
from glim import abelian, divalg, limits, oracle
from glim.groupring import GroupRingElem

original = abelian.quotient
tracer = spans.Tracer()
instrument.install(tracer)
held = {name: vars(module)["quotient"] for name, module in
        (("abelian", abelian), ("limits", limits), ("oracle", oracle))}
# one traced call through each importer
klein = abelian.group_new([2, 2])
pauli = [c for c in divalg.enumerate_division_classes(klein) if c.support.order == 4][0]
oracle.expected_tensor_invariant(pauli, pauli)
label = GroupRingElem.one(klein)
limits.quotient_pushforward(limits.LimitDescriptor(klein, label, (), (label,)), pauli.support)
print(json.dumps({
    "wrapped": {name: f is not original and f.__wrapped__ is original for name, f in held.items()},
    "one_wrapper": len({id(f) for f in held.values()}) == 1,
    "calls": tracer.counters["abelian.quotient.calls"],
}))
"""


def test_install_swaps_the_cached_quotient_in_every_namespace():
    """``quotient`` is an ``lru_cache`` object imported by name into
    ``glim.limits`` and ``glim.oracle``; a namespace that kept the original
    would leave the traced ``abelian.quotient.*`` metrics at 0 without an
    error.  Installed in a fresh process, so this session's modules stay
    unwrapped."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _INSTALL_CHECK, str(src), str(PERFBENCH)],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(result.stdout)
    assert report["wrapped"] == {"abelian": True, "limits": True, "oracle": True}
    assert report["one_wrapper"]
    assert report["calls"] == 2
