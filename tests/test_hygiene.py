"""Source hygiene of the package: no unused module-level imports, and an
explicit export list.

The import scan reads each module of src/uryson with `ast`: a name bound by a
module-level import must be read somewhere in the module, in code, in a
string annotation, or (for the package) in the literal `__all__`.
"""

import ast
import types
from pathlib import Path

import pytest

import uryson

SRC = Path(__file__).resolve().parents[1] / "src" / "uryson"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by module-level imports, with their line numbers."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used |= _names(ast.parse(const.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(
        ((name, line) for name, line in _imported(tree).items() if name not in used),
        key=lambda item: item[1],
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from typing import Callable, Sequence\n"
        "from .lattice import Vector, vec\n"
        "def f(x: 'Sequence[int]') -> Vector:\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == [("Callable", 3), ("vec", 4)]


def test_all_is_explicit_and_matches_public_names():
    exported = uryson.__all__
    assert isinstance(exported, list)
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(uryson, name)
    # the rule the list replaced: every public name bound in the package
    # namespace that is not a submodule
    public = {
        name
        for name, obj in vars(uryson).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(exported) == public
    assert len(exported) == 67
