"""The package stays stdlib-only: every absolute import under src/glim names
glim itself or a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "glim"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "glim" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_package_reads_no_environment_variables():
    """No hidden knobs: behaviour is set by arguments, never by os.environ."""
    knobs = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in knobs
            ):
                found.append(f"{path.name}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [
                    f"{path.name}:{node.lineno}: from os import {alias.name}"
                    for alias in node.names
                    if alias.name in knobs
                ]
    assert found == []


def test_package_uses_no_floating_point():
    """Exact arithmetic only: no float literal, no float() or round() call, and
    from math only the integer functions gcd, lcm, prod and isqrt.

    Int/int true division (``a / b`` on two ints) yields a float too, but the
    operand types are not visible to an AST walk, so this check cannot see it.
    """
    integer_math = {"gcd", "lcm", "prod", "isqrt"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{where}: literal {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("float", "round")
            ):
                found.append(f"{where}: {node.func.id}()")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr not in integer_math
            ):
                found.append(f"{where}: math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [
                    f"{where}: from math import {alias.name}"
                    for alias in node.names
                    if alias.name not in integer_math
                ]
    assert found == []
