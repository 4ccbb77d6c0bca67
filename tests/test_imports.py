"""Every name a module in src/reachgen imports is used in that module, every
import sits at module level, every public function of autodiff.py,
geometry.py and dataset.py is used by the package, and so is every private
function and _WalkRig method of dataset.py."""
import ast
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


def _references(tree):
    """Every name and attribute name read anywhere in an AST."""
    return Counter([n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
                   + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)])


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
