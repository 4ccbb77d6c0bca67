"""Every name a module in src/reachgen imports is used in that module, every
import sits at module level, every function, method and nested function
of the package is referred to from src/ or demos/ outside its own body,
only public module-level functions record tape nodes outside autodiff.py,
every parameter with a default is set by some call in src/, demos/ or
perfbench/, apart from short allow-lists with a reason for each, and left
to its default by another, and every dataclass field with a default is set
by such a call or is a preset key; and only body.py computes where a
joint's rotation sits in a pose."""
import ast
import functools
import pathlib
import re
import tokenize
from collections import Counter

import pytest

from reachgen.cli import PRESETS

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
    # a private function, a rig method or a gestures method counts as used
    # when the package refers to it outside its own body, so no per-frame
    # leg path or per-keyframe gesture path can stay beside the stacked one
    tree = ast.parse((SRC / "dataset.py").read_text())
    helpers = [s for s in tree.body
               if isinstance(s, ast.FunctionDef) and s.name.startswith("_")]
    for cls in (s for s in tree.body
                if isinstance(s, ast.ClassDef) and s.name in ("_WalkRig", "_ArmGestures")):
        helpers += [s for s in cls.body
                    if isinstance(s, ast.FunctionDef) and not s.name.startswith("__")]
    assert {"_align_rows", "to_point", "swing", "apply"} <= {f.name for f in helpers}
    package = sum((_references(ast.parse(p.read_text())) for p in SRC.glob("*.py")),
                  Counter())
    unused = sorted(f.name for f in helpers
                    if package[f.name] == _references(f)[f.name])
    assert not unused, f"dataset.py defines helpers nothing uses: {unused}"


# The functions outside autodiff.py that record tape nodes: each public pose
# op, the condition, the MLP and the rollout, whose frames are one node each.
RECORDERS = {"body.forward_kinematics", "body.joint_position", "body.pose_delta",
             "body.integrate_delta", "intention.assemble_condition", "nn.mlp_forward",
             "rollout.rollout_poses"}


def _record_callers(node, stack=()):
    """The stack of enclosing function, lambda and class names (outermost
    first) of every call of autodiff's `record` or `_record` below `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("record", "_record"):
                yield stack
        inner = stack
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = stack + (child.name,)
        elif isinstance(child, ast.Lambda):
            inner = stack + ("<lambda>",)
        yield from _record_callers(child, inner)


def test_only_public_functions_record():
    # a fused op records its one node in the body of the public function
    # that is the op, never in a private helper or a closure, so each
    # recorded op is one call a caller can see
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "autodiff":
            callers |= {(path.stem,) + stack
                        for stack in _record_callers(ast.parse(path.read_text()))}
    stray = sorted(".".join(c) for c in callers
                   if len(c) != 2 or c[1].startswith("_"))
    assert not stray, f"record is called outside a public module-level function: {stray}"
    assert {".".join(c) for c in callers} == RECORDERS


# Defaulted parameters no call in src/, demos/ or perfbench/ sets, each kept
# for a named reader.
UNSET_DEFAULTS = {
    "rollout._HashedSeed.generate_state.dtype": "NumPy's protocol",
}
PERFBENCH = SRC.parents[1] / "perfbench"


def _defaulted(fn, method: bool):
    """(name, positional index or None) of every parameter of `fn` with a
    default; the index counts from the caller's first argument."""
    args = fn.args
    positional = args.posonlyargs + args.args
    shift = int(method and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in fn.decorator_list))
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _module_names(tree, module: str):
    """What each name bound at the top of a module refers to: a package
    module ("mod"), or a function or class ("mod.name"), through `import ...
    as` aliases."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = f"{module}.{node.name}"
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = (node.module or "").removeprefix("reachgen").lstrip(".")
            for a in node.names:
                names[a.asname or a.name] = f"{source}.{a.name}" if source else a.name
    return names


def _calls():
    """(target, call) of every call in src/, demos/ and perfbench/; the
    target is "mod.name" for a package function or class, else the bare
    attribute name of a method call."""
    for path in [*SRC.glob("*.py"), *DEMOS.glob("*.py"), *PERFBENCH.glob("*.py")]:
        module = path.stem if path.parent == SRC else ""
        tree = ast.parse(path.read_text())
        names = _module_names(tree, module)
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func = call.func
            if isinstance(func, ast.Name):
                yield names.get(func.id, f"{module}.{func.id}"), call
            elif isinstance(func, ast.Attribute):
                owner = isinstance(func.value, ast.Name) and names.get(func.value.id)
                yield (f"{owner}.{func.attr}" if owner else func.attr), call


@functools.cache
def _calls_by_target() -> dict:
    """The calls of _calls() grouped by target."""
    calls = {}
    for target, call in _calls():
        calls.setdefault(target, []).append(call)
    return calls


def _by_position(call, index) -> bool:
    """True when `call` passes argument `index` (None: keyword-only) by
    position, or may through a * splat."""
    return index is not None and any(isinstance(arg, ast.Starred) or i == index
                                     for i, arg in enumerate(call.args))


def _sets(call, name: str, index) -> bool:
    """True when `call` passes the parameter by keyword or position, or may
    through a * or ** splat."""
    return any(k.arg in (name, None) for k in call.keywords) or _by_position(call, index)


def _defaulted_parameters():
    """(qualified name, positional index or None, calls) of every defaulted
    parameter of a function, method or __init__ in src/; `calls` are the
    calls of src/, demos/ and perfbench/ that may reach it."""
    calls = _calls_by_target()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        entries = []
        for name, fn in _functions(tree):
            # a method is matched by name on any object; a nested function
            # by its bare name in its module
            qualified = f"{path.stem}.{name}"
            owner, _, short = qualified.rpartition(".")
            method = owner.rpartition(".")[2] in {c.name for c in classes}
            entries.append((qualified, fn, method,
                            [qualified, short if method else f"{path.stem}.{short}"]))
        for cls in classes:    # an __init__ is matched against calls of its class
            for init in (f for f in cls.body if isinstance(f, ast.FunctionDef)
                         and f.name == "__init__"):
                qualified = f"{path.stem}.{cls.name}"
                entries.append((f"{qualified}.__init__", init, True, [qualified]))
        for qualified, fn, method, targets in entries:
            found = [c for t in targets for c in calls.get(t, [])]
            for p, i in _defaulted(fn, method):
                yield f"{qualified}.{p}", i, found


def test_every_defaulted_parameter_is_set():
    # a default no caller overrides is a constant in disguise: each one is
    # a setting the package cannot be shown to use
    unset = {p for p, i, found in _defaulted_parameters()
             if not any(_sets(c, p.rpartition(".")[2], i) for c in found)}
    uncalled = {p for p in unset if p.rpartition(".")[0] in UNCALLED}
    stray = sorted(unset - uncalled - set(UNSET_DEFAULTS))
    assert not stray, f"defaulted parameters no call sets: {stray}"
    assert set(UNSET_DEFAULTS) - unset == set(), "allow-listed parameters are now set"


def _overrides(call, name: str, index) -> bool:
    """True when `call` surely passes the parameter: by keyword, or by a
    positional argument before any * splat."""
    if any(k.arg == name for k in call.keywords):
        return True
    if index is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return False
        if i == index:
            return True
    return False


def test_every_default_is_relied_on():
    # a default every caller overrides is a required parameter in disguise,
    # and a second home for a value the callers hold; a call that may leave
    # the parameter to a * or ** splat relies on the default
    overridden = sorted(p for p, i, found in _defaulted_parameters()
                        if found and all(_overrides(c, p.rpartition(".")[2], i)
                                         for c in found))
    assert not overridden, f"defaulted parameters every call sets: {overridden}"


def _dataclass_fields(cls: ast.ClassDef):
    """(name, position, has default) of each field a dataclass's __init__
    takes, in order; a field(..., init=False) is state, not a parameter."""
    out = []
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            has_default = "default" in keywords or "default_factory" in keywords
        else:
            has_default = value is not None
        out.append((stmt.target.id, len(out), has_default))
    return out


def test_every_dataclass_field_is_set():
    # a field no call sets and no preset carries is a constant in disguise;
    # a ** splat counts only for the preset keys it can carry
    preset_keys = {k for sections in PRESETS.values() for section in sections.values()
                   for k in section}
    calls = _calls_by_target()
    unset = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                continue
            found = calls.get(f"{path.stem}.{cls.name}", [])
            for name, i, has_default in _dataclass_fields(cls):
                if has_default and name not in preset_keys and not any(
                        any(k.arg == name for k in c.keywords) or _by_position(c, i)
                        for c in found):
                    unset.add(f"{path.stem}.{cls.name}.{name}")
    assert not unset, f"dataclass fields no call sets: {sorted(unset)}"


# Pose-column slot arithmetic, matched on a module's code tokens joined by
# single spaces; body.joint_sixd is the one reader of the slots elsewhere.
JOINT_SLOTS = {
    "a 3 + 6 * j or 9 + 6 * j slot bound": r"\b[39] \+ 6 \*",
    "the root slot 3:9": r"\b3 : 9 \]",
    "the rotation columns 3:": r"(?<!- )\b3 : \]",
    "a reshape into 6D rows": r"reshape \([^\n]*, 6 \)",
}


def _code(path):
    """A module's source with its comments and string literals left out."""
    with open(path, "rb") as f:
        return " ".join(t.string for t in tokenize.tokenize(f.readline)
                        if t.type not in (tokenize.COMMENT, tokenize.STRING,
                                          tokenize.ENCODING))


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "body"),
                         ids=lambda p: p.name)
def test_only_body_computes_joint_slots(path):
    # the pose layout has one home, so a layout change edits body.py alone
    code = _code(path)
    found = sorted(what for what, pattern in JOINT_SLOTS.items()
                   if re.search(pattern, code))
    assert not found, f"{path.name} computes joint slots itself: {found}"


def _workers_default(tree):
    """The default node of run_benchmark's `workers` parameter, or None."""
    for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef)):
        if fn.name == "run_benchmark":
            kw = dict(zip((a.arg for a in fn.args.kwonlyargs), fn.args.kw_defaults))
            return kw.get("workers")
    return None


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "worker"),
                         ids=lambda p: p.name)
def test_only_worker_cuts_work_between_processes(path):
    # the split rule has one home, so a change to it edits worker.py alone:
    # no other module reads the process count, and MAX_PROCESSES is only
    # the default of run_benchmark's `workers` cap
    tree = ast.parse(path.read_text())
    assert _references(tree)["_process_count"] == 0, \
        f"{path.name} reads the process count"
    default = _workers_default(tree)
    stray = [n.lineno for n in ast.walk(tree) if n is not default
             and "MAX_PROCESSES" in (getattr(n, "id", None), getattr(n, "attr", None))]
    assert not stray, f"{path.name} reads MAX_PROCESSES at lines {stray}"
