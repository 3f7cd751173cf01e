"""Static checks on the library sources, standing in for a lint step."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "qsot").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no Name or Attribute node references."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == ["os (line 1)"]
    assert unused_imports("from a import b, c\nc.d\nprint(b)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_modules_have_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Tolerances are named once, in qsot.config; these are the only parameters
# that still take one (is_hermitian's callers test at different scales, and
# group_tol travels on the wire as an Ohya family parameter).
TOLERANCE_PARAMETERS = {("is_hermitian", "tol"), ("spectral_decompose", "group_tol")}
SCALED_TOLERANCES = {"HERM_TOL", "ATOL", "atol"}


def tolerance_parameters(source: str) -> list[str]:
    """Function parameters named atol, tol, gap or *_tol, less the allowed ones."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                name = arg.arg
                if ((name in ("atol", "tol", "gap") or name.endswith("_tol"))
                        and (getattr(node, "name", None), name) not in TOLERANCE_PARAMETERS):
                    found.append(f"{getattr(node, 'name', 'lambda')}({name}) line {node.lineno}")
    return found


def scaled_tolerances(source: str) -> list[str]:
    """Products with HERM_TOL, ATOL or atol as an operand."""
    def named(operand):
        return (isinstance(operand, ast.Name) and operand.id in SCALED_TOLERANCES
                or isinstance(operand, ast.Attribute) and operand.attr in SCALED_TOLERANCES)
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (named(node.left) or named(node.right))]


def test_the_scans_find_tolerance_parameters_and_products():
    source = ("def f(x, atol=1e-9, *, prob_tol=0.0, gap=1.0, tol=2.0): pass\n"
              "def is_hermitian(self, tol): pass\n"
              "y = 1e3 * HERM_TOL + config.ATOL * 2 + 3 * x\n")
    assert [p.split(" ")[0] for p in tolerance_parameters(source)] == [
        "f(atol)", "f(prob_tol)", "f(gap)", "f(tol)"]
    assert scaled_tolerances(source) == ["line 3", "line 3"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_functions_take_no_tolerance_arguments(path):
    assert tolerance_parameters(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "config.py"],
                         ids=lambda p: p.name)
def test_tolerances_are_scaled_only_in_config(path):
    assert scaled_tolerances(path.read_text(encoding="utf-8")) == []
