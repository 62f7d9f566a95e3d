"""What each command loads: the package root resolves its names on first use
(PEP 562), and each CLI verb imports only the modules it needs.

The module checks run in fresh interpreters, since this process has loaded
every module already.  They read `sys.modules`, not a clock: no verb loads
`dataclasses` (which brings `inspect`), `json` or `csv`, except that
``--csv`` loads `csv` to write its table.
"""

import ast
import importlib.resources
import os
import pathlib
import subprocess
import sys

import pytest

import uryson

DEMO = str(importlib.resources.files("uryson") / "demo.ury")
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _modules(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running code (printed
    with repr, which loads nothing)."""
    code += "\nprint(repr(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", "import contextlib, io, sys\n" + code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert proc.stderr == ""
    return set(ast.literal_eval(proc.stdout))


def _package(modules: set[str]) -> set[str]:
    """The uryson modules among modules, without the package prefix."""
    return {name.removeprefix("uryson.") for name in modules if name.startswith("uryson")}


def _loaded(code: str) -> set[str]:
    """The uryson modules a fresh interpreter has loaded after running code."""
    return _package(_modules(code))


# what every CLI command loads
CLI_BASE = {"uryson", "cli", "dsl", "errors", "kernels", "lattice", "operators", "report"}
# standard modules that no command needs: each costs a CLI child its import
UNNEEDED = {"dataclasses", "inspect", "json", "csv"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (("eval", "T", "x1"), set()),
        (("eval", "T", "--all"), set()),
        (("join", "T", "S", "x1"), {"calculus"}),
        (("abs", "W", "x1"), {"calculus"}),
        (("disjoint", "S", "D"), {"calculus"}),
        (("witness", "S", "D", "x1"), {"calculus"}),
        (("project", "S", "T", "x1"), {"projections"}),
        (("project-rank1", "R", "T", "x1"), {"projections"}),
        (("oracle", "S", "T", "x1"), {"projections"}),
        (("suite",), {"calculus", "projections", "suite", "instances"}),
    ],
)
def test_each_verb_loads_only_its_modules(argv, extra):
    code = (
        "from uryson import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({['run', DEMO, *argv]!r}) == 0\n"
    )
    modules = _modules(code)
    assert _package(modules) == CLI_BASE | extra
    assert modules.isdisjoint(UNNEEDED)


def test_csv_table_loads_csv_and_writes_the_table(tmp_path):
    out = tmp_path / "table.csv"
    code = (
        "from uryson import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({['run', DEMO, 'eval', 'T', '--all', '--csv', str(out)]!r}) == 0\n"
    )
    modules = _modules(code)
    assert _package(modules) == CLI_BASE
    assert modules & UNNEEDED == {"csv"}
    assert out.read_text() == "probe,y1,y2\nx1,2,3\nx2,0.875,1.25\nx3,1.5,1.5\n"


def test_bare_import_loads_no_submodule():
    assert _loaded("import uryson") == {"uryson"}


def test_submodules_resolve_after_a_bare_import():
    code = (
        "import uryson\n"
        "assert uryson.calculus.rk_eval is uryson.rk_eval\n"
        "assert uryson.suite.run_suite is uryson.run_suite\n"
    )
    assert {"calculus", "suite"} <= _loaded(code)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from uryson import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(uryson.__all__)


def test_dir_lists_every_exported_name():
    assert set(uryson.__all__) <= set(dir(uryson))


def test_home_table_covers_exactly_all():
    homes = [name for names in uryson._HOMES.values() for name in names]
    assert sorted(homes) == sorted(uryson.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'uryson' has no attribute 'no_such_name'$"):
        uryson.no_such_name
    assert not hasattr(uryson, "no_such_name")
