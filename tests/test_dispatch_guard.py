"""No library code decides by the class of a gapsub object.

A family answers through its own methods and its hidden-chain record (a
product, a symbol chain, the draw of its paths), and a path converts
through np.asarray.  So no isinstance or issubclass in src/gapsub/*.py may
test against a class that src/gapsub defines: a measure family, Trajectory
or any other.  And one class, ShiftMeasure, defines _sample_rows, which
draws every family's paths from its record, so no family has a sampler of
its own.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gapsub"


def _trees() -> dict[str, ast.AST]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names(node: ast.AST) -> list[str]:
    """The class names that the second argument of an isinstance names."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [node.id] if isinstance(node, ast.Name) else []


def _class_tests(tree: ast.AST, ours: set[str]) -> list[tuple[int, str]]:
    """(line, class) of every isinstance or issubclass against a class in ours."""
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "issubclass")
        and len(node.args) == 2
        for name in _names(node.args[1])
        if name in ours
    ]


def test_the_guard_sees_a_family_dispatch():
    ours = {"IIDMeasure", "Trajectory"}
    src = "if isinstance(Q, (dict, measures.IIDMeasure)):\n    x = issubclass(t, Trajectory)\n"
    assert _class_tests(ast.parse(src), ours) == [(1, "IIDMeasure"), (2, "Trajectory")]
    assert _class_tests(ast.parse("isinstance(x, (list, tuple, np.ndarray))"), ours) == []


def test_no_isinstance_tests_against_a_gapsub_class():
    trees = _trees()
    ours = {node.name for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)}
    assert {"IIDMeasure", "MarkovMeasure", "HiddenMarkovMeasure", "MixtureMeasure",
            "ShiftMeasure", "Trajectory"} <= ours
    found = [f"{name}:{line}: {cls}" for name, tree in trees.items()
             for line, cls in _class_tests(tree, ours)]
    assert found == []


def _owners(tree: ast.AST, name: str) -> list[str]:
    """The class that holds each def of name in tree, "" for one outside a class."""
    held = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body}
    return [held.get(id(node), "") for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name]


def test_the_guard_sees_a_family_sampler():
    src = ("class ShiftMeasure:\n    def _sample_rows(self, n, rngs): ...\n"
           "class IIDMeasure(ShiftMeasure):\n    def _sample_rows(self, n, rngs): ...\n"
           "def _sample_rows(n, rngs): ...\n")
    assert sorted(_owners(ast.parse(src), "_sample_rows")) == ["", "IIDMeasure", "ShiftMeasure"]


def test_one_class_samples_every_family():
    found = [f"{name}: {owner or 'module'}" for name, tree in _trees().items()
             for owner in _owners(tree, "_sample_rows")]
    assert found == ["measures.py: ShiftMeasure"]
