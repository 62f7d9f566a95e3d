"""Source hygiene of the package: no unused module-level imports, no
unreferenced private helpers, and an explicit export list.

The import scan reads each module of src/uryson with `ast`: a name bound by a
module-level import must be read somewhere in the module, in code, in a
string annotation, or (for the package) in the literal `__all__`.  The
private-name scan requires every private module-level function, class or
constant to be referenced by some other top-level statement of the package,
so a helper left behind by a refactor cannot linger.
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
    assert len(exported) == 68


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Private module-level functions, classes and constants, with the
    statement that defines each."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node
    return out


def _references(node: ast.AST) -> set[str]:
    """Names a statement reads: bare names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each private module-level definition that no other
    top-level statement of any module refers to (its own body does not
    count, so a helper that only calls itself is reported)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    found = []
    for mod, tree in trees.items():
        for name, node in _private_definitions(tree).items():
            if not any(
                name in _references(stmt)
                for other in trees.values()
                for stmt in other.body
                if stmt is not node
            ):
                found.append((mod, name))
    return sorted(found)


def test_no_unreferenced_private_names():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreferenced_private_names(sources) == []


def test_scan_finds_unreferenced_private_names():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_dead = 0\n"
            "def _helper(n):\n"
            "    return _helper(n - 1) if n else _LIMIT\n"
            "class _Used:\n"
            "    pass\n"
            "def public():\n"
            "    return _Used()\n"
        ),
        "b.py": "from .a import _shared\n",
        "c.py": "def _shared():\n    return 1\n",
    }
    assert unreferenced_private_names(sources) == [("a.py", "_dead"), ("a.py", "_helper")]
