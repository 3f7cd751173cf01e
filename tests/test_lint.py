"""Static checks on the library sources, standing in for a lint step."""
import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "qsot").glob("*.py")
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


# The benchmark reaches into the library by name; a name it uses must not
# disappear from the library unnoticed until the benchmark runs.
def bench_names(workloads: str, tracer: str) -> list[tuple[str, str]]:
    """(module, dotted path) pairs the benchmark uses: the workloads' imports
    from ``qsot.<module>`` and ``<module alias>.<name>`` attributes, and the
    tracer's ``TARGETS``."""
    names, aliases = set(), {}
    tree = ast.parse(workloads)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qsot":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qsot."):
            names.update((node.module[len("qsot."):], a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add((aliases[node.value.id], node.attr))
    for node in ast.walk(ast.parse(tracer)):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            names.update((row.elts[0].value, row.elts[1].value) for row in node.value.elts)
    return sorted(names)


def unresolved(names: list[tuple[str, str]]) -> list[str]:
    """The ``module.path`` of each pair that does not resolve in qsot."""
    missing = []
    for module, path in names:
        obj = importlib.import_module(f"qsot.{module}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{path}")
    return missing


def test_the_bench_scan_finds_attributes_imports_and_targets():
    workloads = ("from qsot import bayes as b, sot\nfrom qsot.maps import LinearMap\n"
                 "b.petz(sot.RightBloom(), x.petz)\n")
    tracer = 'TARGETS = (("sot", "ThetaDerived.rendering", None, None),)\n'
    assert bench_names(workloads, tracer) == [
        ("bayes", "petz"), ("maps", "LinearMap"), ("sot", "RightBloom"),
        ("sot", "ThetaDerived.rendering")]
    assert unresolved([("bayes", "petz"), ("bayes", "theta_ls"),
                       ("sot", "ThetaDerived.recipe")]) == [
        "bayes.theta_ls", "sot.ThetaDerived.recipe"]


def test_every_library_name_the_benchmark_uses_resolves():
    names = bench_names((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"),
                        (ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    assert ("bayes", "theta_jordan") in names and ("bayes", "gce_solve") in names
    assert unresolved(names) == []


# A family says what it computes through its attributes (a sandwich family's
# sides, any family's value); no library code dispatches on a family's class.
@pytest.mark.parametrize("path", sorted((ROOT / "src" / "qsot").glob("*.py")),
                         ids=lambda p: p.name)
def test_library_modules_do_not_dispatch_on_family_classes(path):
    assert "isinstance(family" not in path.read_text(encoding="utf-8")


def class_members(source: str, names: set[str]) -> dict[str, set[str]]:
    """For each class of ``source`` that defines some of ``names`` in its
    body (a method, property or class attribute), those it defines."""
    found = {}
    for cls in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)):
        defined = set()
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
        if defined & names:
            found[cls.name] = defined & names
    return found


def test_the_member_scan_reads_methods_properties_and_class_attributes():
    source = ("class A:\n    x: int = 1\n    def y(self): pass\n"
              "class B(A):\n    @property\n    def x(self): return 2\n    z = 3\n"
              "class C:\n    w = 0\n")
    assert class_members(source, {"x", "y", "z"}) == {"A": {"x", "y"}, "B": {"x", "z"}}


# A sandwich family is its sides: only _Sandwich turns them into terms, the
# spectral denominator and state-linearity (SotFamily holds the default
# state_linear = False of the other families).
def test_only_the_sandwich_base_derives_terms_denominator_and_state_linearity():
    source = (ROOT / "src" / "qsot" / "sot.py").read_text(encoding="utf-8")
    assert class_members(source, {"terms", "denominator", "state_linear"}) == {
        "SotFamily": {"state_linear"},
        "_Sandwich": {"terms", "denominator", "state_linear"}}


# A module-level function or class that nothing refers to is dead code.  The
# benchmark's tracer binds library names by string, so its strings count.
def references(source: str, strings: bool = False) -> set[str]:
    """Names that Name and Attribute nodes (and with ``strings`` the dotted
    parts of string constants) refer to, less a top-level definition's
    references to itself."""
    found = set()
    for top in ast.parse(source).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and strings and isinstance(node.value, str):
                found.update(node.value.split("."))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name != own:
                    found.add(name)
    return found


def dead_names(modules: dict[str, str], referenced: set[str]) -> list[str]:
    """``module.name`` of each module-level function or class of ``modules``
    (name → source) that ``referenced`` lacks."""
    return [f"{module}.{node.name}" for module, source in sorted(modules.items())
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced]


def test_the_dead_name_scan_skips_self_references_and_reads_bench_strings():
    source = "def f(n):\n    return f(n - 1) + g(n)\ndef g(n):\n    return n\nclass C: pass\n"
    assert dead_names({"m": source}, references(source)) == ["m.f", "m.C"]
    assert dead_names({"m": source}, references(source) | references(
        'TARGETS = (("m", "C.method"),)\nf.x\n', strings=True)) == []
    assert "C" not in references('"C"\n')


def test_every_library_function_and_class_has_a_reference():
    files = [*(ROOT / "src" / "qsot").glob("*.py"), *(ROOT / "tests").rglob("*.py")]
    referenced = set().union(*(references(p.read_text(encoding="utf-8")) for p in files),
                             *(references(p.read_text(encoding="utf-8"), strings=True)
                               for p in (ROOT / "bench").rglob("*.py")))
    modules = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert dead_names(modules, referenced) == []


# A constant of qsot.config that no library module reads is a knob that
# turns nothing.
def constants(source: str) -> list[str]:
    """The upper-case names a module assigns at its top level."""
    return [target.id for node in ast.parse(source).body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name) and target.id.isupper()]


def unread_constants(config: str, modules: list[str]) -> list[str]:
    """The constants of ``config`` that no source of ``modules`` refers to by
    a name or an attribute."""
    read = set().union(*(references(source) for source in modules))
    return [name for name in constants(config) if name not in read]


def test_the_constant_scan_counts_reads_in_other_modules_only():
    config = "A = 1\nB = 2 * A\nc = 3\n"
    assert constants(config) == ["A", "B"]
    assert unread_constants(config, ["from .config import A\nprint(A)\n"]) == ["B"]
    assert unread_constants(config, ["from .config import A\n", "config.B + A\n"]) == []


def test_every_config_constant_is_read_by_a_library_module():
    config = ROOT / "src" / "qsot" / "config.py"
    modules = [p.read_text(encoding="utf-8") for p in SOURCES if p != config]
    assert unread_constants(config.read_text(encoding="utf-8"), modules) == []
