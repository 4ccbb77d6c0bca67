"""Every name a module in src/reachgen imports is used in that module, every
import sits at module level, and every function, method and nested function
of the package is referred to from src/ or demos/ outside its own body,
apart from a short allow-list with a reason for each."""
import ast
import functools
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "reachgen"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name} imports unused names {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text())
    local = sorted(
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not local, f"{path.name} imports inside functions at {local}"


# Functions nothing in src/ or demos/ calls, each kept for a named reader.
UNCALLED = {
    "autodiff.finite_difference_gradient": "the tests' gradient checker",
    "rollout.replay": "perfbench grid-eval's correctness check",
    "evaluation.foot_skate": "a per-sequence reference of acceptance criterion 6 "
                             "and a perfbench trace target",
    "evaluation.is_success": "a per-sequence reference of acceptance criterion 6",
    "rollout._HashedSeed.generate_state": "called by NumPy's PCG64",
}
# names the guard must see: a private helper, a method, a nested function
KNOWN = {"dataset._align_rows", "dataset._WalkRig.swing", "rollout.rollout_poses.freeze"}
DEMOS = SRC.parents[1] / "demos"


def _references(tree):
    """Every name and attribute name read anywhere in an AST."""
    return Counter([n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
                   + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)])


def _functions(node, prefix=""):
    """(qualified name, def) of every function, method and nested function
    below `node`, dunder methods excepted."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}{child.name}."
            if (isinstance(child, ast.FunctionDef)
                    and not (child.name.startswith("__") and child.name.endswith("__"))):
                yield name[:-1], child
        yield from _functions(child, name)


@functools.cache
def _package_references():
    return sum((_references(ast.parse(p.read_text()))
                for p in [*SRC.glob("*.py"), *DEMOS.glob("*.py")]), Counter())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_function_is_used(path):
    # a function counts as used when src/ or demos/ refers to its name
    # outside its own body, so no replaced path can stay beside its successor
    everywhere = _package_references()
    functions = {f"{path.stem}.{name}": fn
                 for name, fn in _functions(ast.parse(path.read_text()))}
    assert {name for name in KNOWN if name.startswith(f"{path.stem}.")} <= set(functions)
    unused = {name for name, fn in functions.items()
              if everywhere[fn.name] == _references(fn)[fn.name]}
    allowed = {name for name in UNCALLED if name.startswith(f"{path.stem}.")}
    assert unused - allowed == set(), f"{path.name} defines functions nothing uses"
    assert allowed - unused == set(), "allow-listed functions now have callers"


@pytest.mark.parametrize("module", ["autodiff", "geometry", "dataset"],
                         ids=lambda m: f"{m}.py")
def test_every_autodiff_function_is_used(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    public = {s.name for s in tree.body
              if isinstance(s, ast.FunctionDef) and not s.name.startswith("_")}
    # the finite-difference checker serves the test suite's gradient checks
    public.discard("finite_difference_gradient")
    # inside the module, a name used by any top-level statement but its own
    # def (Tensor's dunder bodies count); elsewhere, `alias.name` or an import
    used = set()
    for stmt in tree.body:
        used |= ({n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                 - {getattr(stmt, "name", None)})
    for path in SRC.glob("*.py"):
        if path.stem == module:
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imports = [a for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names]
        aliases = {a.asname or a.name for a in imports if a.name == module}
        used |= {a.name for n in nodes if isinstance(n, ast.ImportFrom)
                 and n.module == module for a in n.names}
        used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id in aliases}
    unused = sorted(public - used)
    assert not unused, f"{module}.py defines functions nothing uses: {unused}"


def test_every_dataset_helper_is_used():
    # a private function or a rig method counts as used when the package
    # refers to it outside its own body, so no per-frame leg path can stay
    # beside the stacked one
    tree = ast.parse((SRC / "dataset.py").read_text())
    rig = next(s for s in tree.body if isinstance(s, ast.ClassDef) and s.name == "_WalkRig")
    helpers = [s for s in tree.body
               if isinstance(s, ast.FunctionDef) and s.name.startswith("_")]
    helpers += [s for s in rig.body
                if isinstance(s, ast.FunctionDef) and not s.name.startswith("__")]
    assert {"_align_rows", "to_point", "swing"} <= {f.name for f in helpers}
    package = sum((_references(ast.parse(p.read_text())) for p in SRC.glob("*.py")),
                  Counter())
    unused = sorted(f.name for f in helpers
                    if package[f.name] == _references(f)[f.name])
    assert not unused, f"dataset.py defines helpers nothing uses: {unused}"
