"""Operators are built once, at parse: `build_operator` is a lookup.

`reference_operator` is the per-use build that `build_operator` ran before:
a matrix line maps to its named kernels, an integral line's expression,
evaluated by `reference.Expression`, goes to `discretize_integral` at the
default tol, and a chain of rank-one lines is
resolved in a loop, innermost factor first.  Every built operator must have
the reference's descriptor and, by repr, its values (or its error) at every
probe of the model and at a few seeded off-grid probes.

The build counts are clock-free: calls of `uryson.dsl.discretize_integral`,
counted with monkeypatch.
"""

import contextlib
import io
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings

import reference as ref
import uryson.dsl as dsl
from test_cli import DEMO
from test_dsl import MINI
from test_model_fuzz import model_texts
from uryson.cli import main
from uryson.dsl import MatrixOpDef, RankOneOpDef, build_operator, parse_model
from uryson.errors import ModelSemanticError, ModelSyntaxError, UrysonError
from uryson.lattice import Vector
from uryson.operators import IntegralKernelSpec, KernelOperator, discretize_integral, rank_one
from uryson.suite import run_suite

DEMO_TEXT = pathlib.Path(DEMO).read_text(encoding="utf-8")

# a chain of 1500 rank-one lines, as in test_dsl, and the same over an
# integral operator
MATRIX_CHAIN = "kernel k abs scale=2\nop R0 1x1 [k]\n" + "".join(
    f"op R{i} rank1 R{i - 1} u=(0.5)\n" for i in range(1, 1500)
)
INTEGRAL_CHAIN = "op R0 integral (s*r) s=(2) t=(1) w=(0.5)\n" + "".join(
    f"op R{i} rank1 R{i - 1} u=(1.25)\n" for i in range(1, 1500)
)


def reference_operator(model, name):
    d = model.operator_def(name)
    directions = []
    while isinstance(d, RankOneOpDef):
        directions.append(d.u)
        d = model.operator_def(d.phi)
    if isinstance(d, MatrixOpDef):
        T = KernelOperator(tuple(tuple(model.kernel(k) for k in row) for row in d.rows))
    else:
        spec = IntegralKernelSpec(ref.Expression(d.expr).kernel, d.s_grid, d.t_grid, d.weights)
        T = discretize_integral(spec)
    for u in reversed(directions):
        T = rank_one(T, Vector(u))
    return T


def outcome(T, x):
    """repr of T(x), or the exception's type and message."""
    try:
        return "ok", repr(T(x))
    except (UrysonError, ArithmeticError, ValueError) as exc:
        return "error", type(exc).__name__, str(exc)


def assert_built_like_reference(model, names=None, seed=0):
    rng = random.Random(seed)
    for name in names or model.operator_names():
        T, ref = build_operator(model, name), reference_operator(model, name)
        assert T.descriptor() == ref.descriptor()
        probes = [x for _, x in model.probes]
        probes += [
            Vector(tuple(rng.uniform(-3.0, 3.0) for _ in range(T.n))) for _ in range(3)
        ]
        for x in probes:
            assert outcome(T, x) == outcome(ref, x)


@pytest.mark.parametrize(
    "text",
    [
        DEMO_TEXT,
        MINI,
        "op U integral ((s*t)*r) s=(1,2) t=(0.5,1) w=(1,1)\n",
        "op U integral (abs(r)^2 + min(s,t)*max(r,0) - 2^-2*r) s=(1) t=(1) w=(1)\n",
        "op V integral (-r^2) s=(1) t=(1) w=(1)\nop R rank1 V u=(2,0,0.5)\nprobe x = (-3)\n",
    ],
    ids=["demo", "mini", "integral", "grammar", "integral-rank1"],
)
def test_models_build_like_the_reference(text):
    assert_built_like_reference(parse_model(text))


@pytest.mark.parametrize("text", [MATRIX_CHAIN, INTEGRAL_CHAIN], ids=["matrix", "integral"])
def test_long_chains_build_like_the_reference(text):
    m = parse_model(text + "probe x = (-3)\n")
    assert_built_like_reference(m, [f"R{i}" for i in (0, 1, 2, 700, 1498, 1499)])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model_texts())
def test_generated_models_build_like_the_reference(drawn):
    try:
        m = parse_model(drawn[0])
    except (ModelSyntaxError, ModelSemanticError):
        return
    assert_built_like_reference(m)


# -- build counts ---------------------------------------------------------------


@pytest.fixture
def discretizations(monkeypatch):
    """Counts the calls of uryson.dsl.discretize_integral."""
    count = [0]
    real = dsl.discretize_integral

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(dsl, "discretize_integral", counted)
    return count


def test_parse_discretizes_each_integral_line_once(discretizations):
    parse_model(DEMO_TEXT)
    assert discretizations[0] == 1


def test_suite_discretizes_only_in_its_round_trip_parse(discretizations, demo_model):
    # the model-roundtrip check parses render(model), which builds U once;
    # no check builds an operator again
    run_suite(demo_model, 7)
    assert discretizations[0] == 1


def test_suite_through_the_cli_discretizes_only_in_parses(discretizations):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["suite", DEMO]) == 0
    assert discretizations[0] == 2  # the model file's parse and the round trip's


def test_build_operator_returns_what_parse_built(demo_model):
    assert build_operator(demo_model, "U") is build_operator(demo_model, "U")
    assert build_operator(demo_model, "R") is demo_model.built["R"]


def test_a_member_named_twice_is_ordered_with_itself(tmp_path):
    # U is +inf where |r| > 5, inside the grid its order is sampled on: two
    # builds of U compared inf - inf there and refused U <= U (not_increasing);
    # the one built U is ordered with itself
    model = tmp_path / "inf.ury"
    model.write_text(
        "op U integral (abs(r) + max(abs(r)-5,0)*1e308*1e308) s=(1) t=(1) w=(1)\n"
        "probe x = (1)\n"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(model), "project", "U,U", "U", "x"]) == 0
