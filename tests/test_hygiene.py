"""Source hygiene of the package: no unused module-level imports, no
unreferenced private helpers, an explicit export list (and in each
submodule an `__all__` of bound names, which `import *` takes), and one
home for the settings (`Settings`: its fields are the ``set`` keys, the CLI
flags and the README's flag list, and it rejects what a ``set`` line
rejects).  The README's library example runs and gives the values its
comments state.  Each op form of the model language is one record that
reads, builds and writes its line, and the model fuzz draws every form.

The import scan reads each module of src/uryson and each file of tests with
`ast`: a name bound by a module-level import must be read somewhere in the
module, in code, in a string annotation, or (for the package) in the literal
`__all__`; a name bound by an import inside a function must be read in that
function.  The private-name scan requires every private module-level
function, class or constant to be referenced by some other top-level
statement of the package, so a helper left behind by a refactor cannot
linger.  The default scan requires every defaulted parameter of a private
function, or of a method of a private class, to be passed by some call in
the package or its tests, so a knob that no caller sets cannot linger
either.
"""

import argparse
import ast
import importlib
import re
import types
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings

import uryson
from test_model_fuzz import model_texts
from uryson import cli, dsl
from uryson.dsl import Settings, parse_model
from uryson.errors import ModelSemanticError
from uryson.operators import KernelOperator

SRC = Path(__file__).resolve().parents[1] / "src" / "uryson"
MODULES = sorted(SRC.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imports(scope: ast.AST):
    """The import statements of a module or function, nested functions aside."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports(node)


def _imported(scope: ast.AST) -> dict[str, int]:
    """Names bound by the imports of a scope, with their line numbers."""
    out = {}
    for node in _imports(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.AST):
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


def _used(tree: ast.AST) -> set[str]:
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
    scopes = [tree] + [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    found = []
    for scope in scopes:
        used = _used(scope)
        found += [(name, line) for name, line in _imported(scope).items() if name not in used]
    return sorted(found, key=lambda item: item[1])


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    # value types are records on lattice._Record: dataclasses generates and
    # compiles their methods at every import, and loads inspect
    tree = ast.parse(path.read_text())
    modules = {alias.name for n in ast.walk(tree) if isinstance(n, ast.Import) for alias in n.names}
    modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "dataclasses" not in modules


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from typing import Callable, Sequence\n"
        "from .lattice import Vector, vec\n"
        "def f(x: 'Sequence[int]') -> Vector:\n"
        "    return math.pi\n"
        "def g():\n"
        "    import math\n"
        "    from .calculus import RK_KINDS, rk_eval\n"
        "    def h():\n"
        "        from .suite import run_suite\n"
        "        return run_suite\n"
        "    return RK_KINDS\n"
    )
    # an import inside g is read in g or reported, even where the module
    # reads the same name elsewhere
    assert unused_imports(source) == [("Callable", 3), ("vec", 4), ("math", 8), ("rk_eval", 9)]


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


def stale_exports(module: types.ModuleType) -> list[str]:
    """The names of module.__all__ that module does not bind."""
    return [name for name in getattr(module, "__all__", ()) if name not in vars(module)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.name)
def test_submodule_exports_are_bound(path):
    module = importlib.import_module(f"uryson.{path.stem}")
    assert stale_exports(module) == []
    exec(f"from uryson.{path.stem} import *", {})


def test_scan_finds_stale_exports():
    module = types.ModuleType("m")
    exec("__all__ = ['kept', 'gone']\nkept = 1\n", vars(module))
    assert stale_exports(module) == ["gone"]


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


def snapshot_oracles(source: str) -> list[tuple[str, int]]:
    """(name, line) of each top-level ``ref_*`` function and ``Ref*`` class:
    an engine body kept as an oracle, whose one home is tests/reference.py."""
    return [
        (node.name, node.lineno)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and re.match(r"Ref[A-Z]" if isinstance(node, ast.ClassDef) else r"ref_", node.name)
    ]


def test_no_snapshot_oracles_outside_the_reference():
    found = {
        path.name: snapshot_oracles(path.read_text())
        for path in sorted(Path(__file__).parent.glob("*.py"))
        if path.name != "reference.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_scan_finds_snapshot_oracles():
    source = (
        "import reference as ref\n"
        "def ref_rk_eval(kind, T, x):\n"
        "    return ref.rk_eval(kind, T, x)\n"
        "class RefProgram:\n"
        "    def ref_run(self):\n"
        "        pass\n"
        "class Reference:\n"
        "    pass\n"
        "def reference_pairs():\n"
        "    def ref_inner():\n"
        "        pass\n"
        "async def ref_async():\n"
        "    pass\n"
        "ref_value = 1\n"
    )
    # only top-level definitions count: methods, nested functions and names
    # that merely start with "ref" or "Reference" do not
    assert snapshot_oracles(source) == [("ref_rk_eval", 2), ("RefProgram", 4), ("ref_async", 12)]


def _private_callables(tree: ast.Module):
    """(call name, function, count of leading parameters a call does not
    pass) for each private module-level function and each method of a
    private class; a class's __init__ is called by the class name, and other
    dunders are skipped."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    yield node.name, fn, 1
                elif isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                    yield fn.name, fn, 1


def _defaulted(fn: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """(name, index among the call's positional arguments, or None for a
    keyword-only one) of each parameter with a default."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether a call may pass a parameter: by keyword, by position, or
    through a starred argument."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def unpassed_defaults(
    sources: dict[str, str], callers: dict[str, str]
) -> list[tuple[str, str, str]]:
    """(module, function, parameter) for each defaulted parameter of a
    private function of sources, or of a method of a private class, that no
    call in sources or callers passes."""
    calls: dict[str, list[ast.Call]] = {}
    for src in (*sources.values(), *callers.values()):
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for mod, src in sources.items():
        for name, fn, skip in _private_callables(ast.parse(src)):
            for param, index in _defaulted(fn, skip):
                if not any(_passes(call, param, index) for call in calls.get(name, ())):
                    found.append((mod, fn.name, param))
    return sorted(found)


def test_private_defaults_are_passed():
    sources = {path.name: path.read_text() for path in MODULES}
    tests = {path.name: path.read_text() for path in Path(__file__).parent.glob("*.py")}
    assert unpassed_defaults(sources, tests) == []


def test_scan_finds_unpassed_private_defaults():
    sources = {
        "a.py": (
            "def _f(a, b=1, c=2, *, d=3, e=4):\n"
            "    return _f(a, 5, e=6)\n"
            "def _g(a, b=1):\n"
            "    return a + b\n"
            "def public(x=0):\n"
            "    return _g(*x)\n"
            "class _C:\n"
            "    def __init__(self, a, b=1):\n"
            "        self.a = a\n"
            "    def m(self, k=0, j=1):\n"
            "        return _C(self.a).m(j=2)\n"
            "class Public:\n"
            "    def m(self, k=0):\n"
            "        return k\n"
        ),
    }
    callers = {"test_a.py": "from a import _C\n_C(1, 2).m\n"}
    assert unpassed_defaults(sources, callers) == [
        ("a.py", "_f", "c"), ("a.py", "_f", "d"), ("a.py", "m", "k"),
    ]


def test_operator_caches_stay_out_of_compare_and_repr():
    # what KernelOperator caches must not reach ==, hash, repr or report bytes
    shown = list(KernelOperator._fields)
    assert shown == ["kernels"]


# -- settings: one home ---------------------------------------------------------

SETTING_FIELDS = set(Settings._fields)
README = Path(__file__).resolve().parents[1] / "README.md"


def _set_line_problem(key: str, value: str) -> str | None:
    """The message a ``set KEY VALUE`` line is rejected with, or None."""
    try:
        parse_model(f"space E 1\nset {key} {value}\n")
    except ModelSemanticError as exc:
        return exc.reason
    return None


def test_set_lines_accept_exactly_the_settings_fields():
    candidates = SETTING_FIELDS | {"beta", "cap_masks", "maxsteps", "settings"}
    accepted = {k for k in candidates if _set_line_problem(k, "1") != f"unknown setting {k!r}"}
    assert accepted == SETTING_FIELDS


def test_cli_setting_flags_are_the_settings_fields():
    parser = cli._build_parser()
    modes = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for mode in modes.choices.values():
        # the flags that take a number; --json, --csv and --all do not
        numeric = {
            a.option_strings[0] for a in mode._actions if a.option_strings and a.type in (int, float)
        }
        assert numeric == {"--" + name.replace("_", "-") for name in SETTING_FIELDS}


def test_readme_flags_sentence_lists_the_settings_fields():
    sentence = re.search(r"Flags: `([^`]*)`", README.read_text(encoding="utf-8"))
    assert set(sentence.group(1).split()) == {
        "--" + name.replace("_", "-") for name in SETTING_FIELDS
    }


def test_readme_library_example_runs_as_commented():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    ns: dict = {}
    exec(block, ns)
    assert ns["T"](ns["x"]).coords == (2.0, 3.0)
    pr = ns["pr"]
    assert pr.band.value.coords == (1.0, 2.0)
    assert pr.complement.value.coords == (1.0, 1.0)
    assert pr.band.stabilized_at == 0.5


# per field, values the rules reject: non-finite (1e999 reads as inf), and
# ones that break the field's own rule
INVALID_SETTINGS = {
    "tol": ("1e999", "-1", "0"),
    "eps0": ("-1e999", "0", "-0.5"),
    "factor": ("1e999", "1", "1.5", "0"),
    "max_steps": ("1e999", "0", "2.5"),
    "cap_support": ("-1e999", "0", "0.5"),
    "seed": ("1e999", "1.5"),
}


def test_settings_reject_what_set_lines_reject_with_the_same_message():
    assert set(INVALID_SETTINGS) == SETTING_FIELDS
    for key, values in INVALID_SETTINGS.items():
        for value in values:
            problem = _set_line_problem(key, value)
            assert problem is not None and problem.startswith(f"setting {key} ")
            with pytest.raises(ValueError) as info:
                Settings(**{key: float(value)})
            assert str(info.value) == problem


# -- op forms: one record each ---------------------------------------------------

OP_RECORDS = {dsl.MatrixOpDef, *dsl._OP_FORMS.values()}


def test_each_op_form_is_one_record():
    # the record of a form defines its own parse (read and build) and text
    for record in OP_RECORDS:
        assert {"parse", "text"} <= set(vars(record)), record
    assert set(typing.get_args(dsl.OpDef)) == OP_RECORDS


def test_model_fuzz_draws_every_op_form():
    """`test_model_fuzz.model_texts` draws every op form, so a form added to
    `dsl._OP_FORMS` fails here until the fuzz draws it."""
    drawn = set()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(model_texts())
    def collect(model):
        for lineno, line in enumerate(model[0].splitlines(), 1):
            toks = dsl._tokenize_line(line, lineno)
            if len(toks) > 2 and toks[0].text == "op":
                form = toks[2]
                drawn.add(dsl.MatrixOpDef if form.kind == "DIM" else dsl._OP_FORMS.get(form.text))

    collect()
    assert drawn >= OP_RECORDS
