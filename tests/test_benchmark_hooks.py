"""Every function the benchmark's traced run wraps still exists in ``glim``.

``perfbench/instrument.py`` swaps each ``(module, attribute)`` of its
``WRAPPED`` list for a tracer wrapper; a refactor that renames or deletes one
would break the traced run, so this test names the ones that no longer
resolve.
"""

import importlib
import importlib.util
from pathlib import Path

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


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
