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
