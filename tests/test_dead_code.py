"""Every function, class and method of the package has a caller outside the tests.

A definition counts as called when its name is loaded, or read as an
attribute, anywhere in `src/polarce` or `perfbench/` outside its own body.
Dotted string constants such as the tracer targets of `perfbench/layers.py`
("omp.VectorizedProblem.correlate") count too, one reference per component.
The check is by name, so a method that shares its name with any attribute
read elsewhere passes; it catches what nothing names at all.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "polarce").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
DOTTED = re.compile(r"\w+(\.\w+)+")

# reached only from tests, and kept for what the tests compare against
ALLOWED = {
    "unrolled.ista_core": "plain proximal gradient; the oracle that "
                          "test_orthonormal_synthesis_reduces_to_ista holds "
                          "the unrolled solver to",
    "polar.encode_sparse_truth": "grid coding of a scene's true channel and "
                                 "its projection floor; the oracle for the "
                                 "polar dictionaries and for error-attribution "
                                 "diagnostics",
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
