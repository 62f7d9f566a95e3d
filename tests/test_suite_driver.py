"""The suite driver: golden bytes of passing and failing suite runs, and the
case-counting adapter that turns each check body into a registry entry.

The failure goldens come from running the suite on demo.ury with seed 7
while library predicates are patched to fail deterministically, so every
check reaches one of its failure returns (or an error row).  They pin each
check's case count and message text, independent of how the check is
written.  Rewrite the failure goldens only from a commit whose suite is
trusted:

    PYTHONPATH=src python tests/test_suite_driver.py

The seed goldens are `uryson run demo.ury suite --seed N` output.  The call
counts pin the suite's work without a clock.
"""

import contextlib
import importlib.resources
import inspect
import json
import pathlib
from unittest import mock

import pytest

import uryson.projections as projections_mod
import uryson.suite as suite_mod
from uryson.cli import main
from uryson.lattice import Mask, Vector
from uryson.suite import CHECK_IDS, run_suite

DEMO = str(importlib.resources.files("uryson") / "demo.ury")
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FAILURE_SEED = 7
# isclose failure period -> golden of the failing rows
FAILURE_GOLDENS = {5: "suite_failures_seed7.json", 9: "suite_failures_seed7_isclose9.json"}


def _every(n: int, fn, failed):
    """Wrap fn so that every n-th call (counting from 1) returns failed(...)."""
    calls = 0

    def wrapped(*args, **kwargs):
        nonlocal calls
        calls += 1
        out = fn(*args, **kwargs)
        return failed(out) if calls % n == 0 else out

    return wrapped


@contextlib.contextmanager
def failing_predicates(isclose_every: int):
    """Patch the predicates the checks test so that each check fails.

    `Vector.isclose` fails on every `isclose_every`-th call and `Vector.leq`
    on every call with a nonzero tolerance (the library's own lo <= hi checks
    use 0.0).  The
    names the suite imports for partition, fragment, positivity, validation
    and round-trip tests fail on a fixed call pattern, and `Mask.__eq__`
    always says "different"."""
    with contextlib.ExitStack() as stack:
        patch = stack.enter_context
        patch(mock.patch.object(
            Vector, "isclose", _every(isclose_every, Vector.isclose, lambda _: False)
        ))
        leq = Vector.leq
        patch(mock.patch.object(
            Vector, "leq", lambda self, other, tol=1e-9: tol == 0.0 and leq(self, other, tol)
        ))
        patch(mock.patch.object(Mask, "__eq__", lambda self, other: False))
        patch(mock.patch.object(
            suite_mod, "is_partition_of_unity",
            _every(3, suite_mod.is_partition_of_unity, lambda _: False),
        ))
        patch(mock.patch.object(
            suite_mod, "is_fragment", _every(7, suite_mod.is_fragment, lambda _: False)
        ))
        patch(mock.patch.object(
            suite_mod, "operator_is_positive",
            _every(4, suite_mod.operator_is_positive, lambda out: not out),
        ))
        patch(mock.patch.object(
            suite_mod, "validate",
            _every(2, suite_mod.validate,
                   lambda rep: rep._replace(orthogonally_additive_ok=False)),
        ))
        patch(mock.patch.object(suite_mod, "parse_model", lambda text: None))
        yield


def failure_rows(model, isclose_every: int) -> str:
    with failing_predicates(isclose_every):
        report = run_suite(model, FAILURE_SEED)
    rows = [{"id": r["id"], "cases": r["cases"], "detail": r["detail"]} for r in report["checks"]]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 77, 12345])
def test_suite_seed_reports_match_golden_bytes(capsys, seed):
    code = main(["run", DEMO, "suite", "--seed", str(seed)])
    assert code == 0
    golden = GOLDEN / f"suite_seed{seed}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


# calls one run_suite(demo, 7) makes through these names: each check computes
# a repeated (operator, probe) value once, so repeats would raise the counts
SUITE_CALLS = {"rk_eval": 515, "check_modulus_bound": 34, "project_band_set": 313, "operator_add": 28}


def test_suite_computes_each_repeated_model_case_once(demo_model, monkeypatch):
    calls = dict.fromkeys(SUITE_CALLS, 0)

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in SUITE_CALLS:
        monkeypatch.setattr(suite_mod, name, counted(name, getattr(suite_mod, name)))
    assert run_suite(demo_model, FAILURE_SEED)["ok"]
    assert calls == SUITE_CALLS


# upper bounds on what one run_suite(demo, 7) builds and decides: results
# built inside the library skip Vector's public constructor, and a set with
# a top member reads no pairwise search (1966 and 942 when pinned)
SUITE_BOUNDS = {"Vector.__init__": 2000, "operator_leq": 960}


def test_suite_builds_few_public_vectors_and_decides_few_orders(demo_model, monkeypatch):
    counts = dict.fromkeys(SUITE_BOUNDS, 0)

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(Vector, "__init__", counted("Vector.__init__", Vector.__init__))
    monkeypatch.setattr(
        projections_mod, "operator_leq", counted("operator_leq", projections_mod.operator_leq)
    )
    assert run_suite(demo_model, FAILURE_SEED)["ok"]
    assert all(counts[name] <= bound for name, bound in SUITE_BOUNDS.items()), counts


@pytest.mark.parametrize("every", sorted(FAILURE_GOLDENS))
def test_failure_rows_match_golden_bytes(demo_model, every):
    golden = (GOLDEN / FAILURE_GOLDENS[every]).read_text(encoding="utf-8")
    assert failure_rows(demo_model, every) == golden


@pytest.mark.parametrize("every", sorted(FAILURE_GOLDENS))
def test_failure_golden_fails_every_check(every):
    rows = json.loads((GOLDEN / FAILURE_GOLDENS[every]).read_text(encoding="utf-8"))
    assert sorted(r["id"] for r in rows) == sorted(CHECK_IDS)
    assert all(r["detail"] is not None for r in rows)


def test_rows_do_not_depend_on_registry_order(demo_model, monkeypatch):
    # each check's rng is keyed by its own id, not by its place in the run
    forward = run_suite(demo_model, seed=3)
    monkeypatch.setattr(suite_mod, "CHECKS", tuple(reversed(suite_mod.CHECKS)))
    assert run_suite(demo_model, seed=3) == forward


def _fails_at(k: int):
    def check(model, seed, rng):
        for case in range(1, 10):
            yield
            if case == k:
                return f"broke with draw {rng.random()!r}"

    return check


@pytest.mark.parametrize("k", [1, 2, 9])
def test_counted_reports_the_failing_case(k):
    cases, detail = suite_mod._counted("some-id", _fails_at(k))(None, 5)
    draw = suite_mod.inst.rng_for(5, "some-id").random()
    assert (cases, detail) == (k, f"case {k}: broke with draw {draw!r}")


def test_counted_passing_and_early_failing_checks():
    assert suite_mod._counted("x", _fails_at(0))(None, 0) == (9, None)

    def before_first_case(model, seed, rng):
        return "no case started"
        yield

    assert suite_mod._counted("x", before_first_case)(None, 0) == (0, "case 0: no case started")


def test_every_registered_check_body_is_a_generator_function():
    for cid, entry in suite_mod.CHECKS:
        body = inspect.unwrap(entry)
        assert body is not entry, cid
        assert inspect.isgeneratorfunction(body), cid


if __name__ == "__main__":
    from uryson.dsl import parse_model

    model = parse_model(pathlib.Path(DEMO).read_text(encoding="utf-8"))
    for every, name in FAILURE_GOLDENS.items():
        (GOLDEN / name).write_text(failure_rows(model, every), encoding="utf-8")
