"""Every function, class, method and defaulted parameter of the package is used
outside the tests.

A definition counts as called when its name is loaded, or read as an
attribute, anywhere in `src/polarce` or `perfbench/` outside its own body.
Dotted string constants such as the tracer targets of `perfbench/layers.py`
("omp.VectorizedProblem.correlate") count too, one reference per component.
The check is by name, so a method that shares its name with any attribute
read elsewhere passes; it catches what nothing names at all.

A parameter with a default counts as set when some call in the same sources
to a function of that name passes it, by keyword or by position (a `*` or
`**` argument passes everything it could reach). A default that no call
overrides is a knob with one value in use.

Every field of a dataclass of the package is read in the same sources, as
an attribute (`lp.lam`) or as a string key (`w["kappa"]`). The check is by
name too: a field passes when any attribute or key of its name is read.

Every name a module of the package, of `perfbench/` or of the tests imports
is read in that module or listed in its `__all__`.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "polarce").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
DOTTED = re.compile(r"\w+(\.\w+)+")

# reached only from tests, and kept for what the tests compare against
ALLOWED: dict[str, str] = {}


# dataclass fields that only tests read, and what the tests read them for
ALLOWED_FIELDS = {
    "omp.OmpResult.residual_norm": "the pursuit's residual, which the stopping tests check",
    "polar.CascadedDictionary.delta_sin": "each column's sin class, by which the tests "
                                          "map a grid pair to its column",
    "polar.CascadedDictionary.delta_curv": "each column's curvature class, as delta_sin",
    "channel.SceneRealization.users": "the drawn user paths, which the prior tests check; "
                                      "to be reshaped together with G",
}


# defaulted parameters that only tests set
ALLOWED_DEFAULTS = {
    "cli.main(argv)": "the command line when None; tests pass their argv",
}


def _definitions(tree):
    """(qualified name, node) of module-level functions and classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """(name, line) of every loaded name, read attribute and dotted-string part."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def _unreferenced() -> set[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    dead = set()
    for path in SOURCES:
        for qualname, node in _definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == node.name and (other != path or line not in own)
                       for other, found in refs.items() for ref, line in found):
                dead.add(f"{path.stem}.{qualname}")
    return dead


def test_every_definition_has_a_caller():
    dead = _unreferenced()
    assert sorted(dead - set(ALLOWED)) == []
    # an oracle that gains a caller leaves the list
    assert sorted(set(ALLOWED) - dead) == []


def _is_dataclass(decorator) -> bool:
    d = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(d, "id", getattr(d, "attr", None)) == "dataclass"


def _fields(tree):
    """(qualified name, field) of every field of the module's dataclasses."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _field_reads(tree):
    """Every attribute read and every string key of a read subscript."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
              and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str)):
            yield node.slice.value


def _unread_fields() -> set[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    reads = {name for tree in trees.values() for name in _field_reads(tree)}
    return {f"{path.stem}.{qualname}" for path in SOURCES
            for qualname, field in _fields(trees[path]) if field not in reads}


def test_every_dataclass_field_is_read():
    unread = _unread_fields()
    assert sorted(unread - set(ALLOWED_FIELDS)) == []
    # a field that gains a reader leaves the list
    assert sorted(set(ALLOWED_FIELDS) - unread) == []


def _defaulted(tree):
    """(function name, parameter, position or None) of every defaulted parameter.

    The position counts the arguments a caller writes, so a method's self
    or cls is not counted; keyword-only parameters have none.
    """
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if id(node) in methods and not static else 0
        for i, arg in enumerate(positional[len(positional) - len(node.args.defaults):],
                                len(positional) - len(node.args.defaults)):
            yield node.name, arg.arg, i - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _passes(call: ast.Call, param: str, position) -> bool:
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _unset_defaults() -> set[str]:
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unset = set()
    for path in SOURCES:
        for fname, param, position in _defaulted(ast.parse(path.read_text(), str(path))):
            if not any(_passes(c, param, position) for c in calls.get(fname, [])):
                unset.add(f"{path.stem}.{fname}({param})")
    return unset


def test_every_default_is_overridden_somewhere():
    unset = _unset_defaults()
    assert sorted(unset - set(ALLOWED_DEFAULTS)) == []
    assert sorted(set(ALLOWED_DEFAULTS) - unset) == []


def _unused_imports(tree) -> set[str]:
    """Names bound by the module's imports that it neither reads nor exports."""
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return bound - read - exported


def test_every_import_is_used():
    unused = {f"{path.parent.name}/{path.stem}.{name}"
              for path in CALLERS + sorted((ROOT / "tests").glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))}
    assert sorted(unused) == []
