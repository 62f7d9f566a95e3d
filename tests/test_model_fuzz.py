"""Generative model fuzz: whole model texts drawn from the grammar.

Each draw ends in a `Model` or a model error (syntax or semantic), never in
another exception.  An accepted model renders to a text that parses back to
an equal model, and every operator it built vanishes at 0 within the default
tol.  It then runs one verb through `cli.main` in process, which must exit
0-3 with one JSON document on stdout and nothing on stderr.  Dimensions stay at most 3 and schedules at most 8 steps, so one
example takes milliseconds.

Each drawn expression, and a few planted ones, is read by the library's parse
pass and by `reference.Expression`: both refuse it (the library with one of
the reference's reasons), or both give the same canonical text, height, and
value or error by repr at every point of POINTS.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference as ref
import uryson.dsl as dsl
from uryson.cli import main
from uryson.dsl import Model, Settings, parse_model, render
from uryson.errors import KernelEvalError, ModelSemanticError, ModelSyntaxError
from uryson.lattice import DEFAULT_TOL

# numbers at the edges of the float range, and signed zeros
UNSIGNED = ("0", "1", "0.5", "2", "1e308", "1e-300")
NONPOSITIVE = ("0", "-0", "-1", "-2.5", "-1e308", "-1e-300")
LITERALS = UNSIGNED + NONPOSITIVE
POSITIVE = UNSIGNED[1:]
SETTING_KEYS = Settings._fields + ("beta",)
FUNCTIONS = (("abs", 1), ("exp", 1), ("sin", 1), ("cos", 1), ("min", 2), ("max", 2))
# wrappers that nest or chain an expression, drawn up to and past the depth bound (64)
DEEP = (
    lambda e, k: "(" * k + e + ")" * k,
    lambda e, k: "-" * k + e,
    lambda e, k: "+".join([e] * k),
    lambda e, k: "/".join([e] * k),
    lambda e, k: e + "*" + "^".join(["1"] * k),
    lambda e, k: "max(r," * k + e + ")" * k,
)


def rarely(draw) -> bool:
    return draw(st.integers(0, 19)) == 0


@st.composite
def expressions(draw, budget=3):
    """An expression over s, t, r with every operator and function; rarely
    an unknown name, an overflowing literal or a wrong arity, and at times
    nested deep."""
    kind = draw(st.integers(0, 7)) if budget else 0
    sub = expressions(budget - 1)
    if kind == 0:
        if rarely(draw):
            return draw(st.sampled_from(("q", "1e999")))
        return draw(st.sampled_from(("s", "t", "r", "r", *UNSIGNED)))
    if kind in (1, 2):
        return f"{draw(sub)}{draw(st.sampled_from('+-*/^'))}{draw(sub)}"
    if kind == 3:
        return "-" + draw(sub)
    if kind == 4:
        fn, arity = ("sinh", 1) if rarely(draw) else draw(st.sampled_from(FUNCTIONS))
        args = [draw(sub) for _ in range(arity + rarely(draw))]
        return f"{fn}({','.join(args)})"
    if kind in (5, 6):
        return f"({draw(sub)})"
    return draw(st.sampled_from(DEEP))(draw(sub), draw(st.integers(55, 70)))


def vector(draw, size, values=LITERALS):
    return "(" + ",".join(draw(st.sampled_from(values)) for _ in range(size)) + ")"


@st.composite
def model_texts(draw):
    """A model of every directive: spaces, kernels of every form, matrix,
    rank-one (chains included) and integral operators, probes and settings.
    Sizes mostly agree with one (n, m), so that most models are accepted."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def size(want):
        return draw(st.integers(1, 3)) if rarely(draw) else want

    def scale():
        return f" scale={draw(st.sampled_from(LITERALS))}" if draw(st.booleans()) else ""

    lines = []
    if draw(st.booleans()):
        lines.append(f"space E {size(n)}")
    if draw(st.booleans()):
        lines.append(f"space F {size(m)}")

    kernels = []
    for i in range(draw(st.integers(1, 3))):
        form = draw(st.sampled_from(("pwl", "abs", "id", "relu", "clamp")))
        if form == "pwl":
            # one value per abscissa; rarely none at 0
            pts = {float(draw(st.sampled_from(LITERALS))): draw(st.sampled_from(LITERALS))
                   for _ in range(draw(st.integers(0, 3)))}
            pts[0.0] = "1" if rarely(draw) else "0"
            body = "pwl " + " ".join(f"({x!r},{y})" for x, y in sorted(pts.items()))
        elif form == "clamp":
            lo, hi = (LITERALS, LITERALS) if rarely(draw) else (NONPOSITIVE, UNSIGNED)
            body = f"clamp({draw(st.sampled_from(lo))},{draw(st.sampled_from(hi))})"
        else:
            body = form
        kernels.append(f"k{i}")
        lines.append(f"kernel k{i} {body}{scale()}")

    ops, functionals = [], []
    for i in range(draw(st.integers(1, 4))):
        name = f"T{i}"
        kind = draw(st.sampled_from(("matrix", "matrix", "functional", "rank1", "integral")))
        if kind == "rank1" and functionals:
            phi = draw(st.sampled_from(functionals))
            u_size = draw(st.sampled_from((1, size(m))))  # u=(.) continues a chain
            u = vector(draw, u_size, LITERALS if rarely(draw) else UNSIGNED)
            lines.append(f"op {name} rank1 {phi} u={u}")
            if u_size == 1:
                functionals.append(name)
        elif kind == "integral":
            rows, cols = size(m), size(n)
            lines.append(
                f"op {name} integral ({draw(expressions())}) s={vector(draw, rows)} "
                f"t={vector(draw, cols)} w={vector(draw, size(cols), UNSIGNED if rarely(draw) else POSITIVE)}"
            )
            if rows == 1:
                functionals.append(name)
        else:
            rows = 1 if kind != "matrix" else size(m)
            cols = size(n)
            body = "; ".join(
                " ".join(draw(st.sampled_from(kernels)) for _ in range(cols)) for _ in range(rows)
            )
            lines.append(f"op {name} {rows}x{cols} [{body}]")
            if rows == 1:
                functionals.append(name)
        ops.append(name)

    probes = [f"x{i}" for i in range(0 if rarely(draw) else draw(st.integers(1, 2)))]
    lines += [f"probe {p} = {vector(draw, size(n))}" for p in probes]
    for key in draw(st.lists(st.sampled_from(SETTING_KEYS), max_size=2, unique=not rarely(draw))):
        value = draw(st.sampled_from(("1e-9", "0.5", "0.25", "1", "3", "0", "-1", "1e999")))
        lines.append(f"set {key} {value}")
    if rarely(draw):  # names used before they are declared
        lines = draw(st.permutations(lines))
    return "\n".join(lines) + "\n", ops, probes


# verbs and how many operators each takes before its probe
VERBS = (
    ("eval", 1), ("join", 2), ("meet", 2), ("pos", 1), ("neg", 1), ("abs", 1),
    ("disjoint", 2), ("witness", 2), ("project", 2), ("project-complement", 2),
    ("project-functional", 2), ("oracle", 2), ("project-rank1", 2),
)


def test_generated_models_parse_or_fail_and_run_cleanly(tmp_path):
    path = tmp_path / "m.ury"

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(model_texts(), st.data())
    def check(drawn, data):
        text, ops, probes = drawn
        try:
            model = parse_model(text)
        except (ModelSyntaxError, ModelSemanticError):
            return
        assert isinstance(model, Model)
        assert parse_model(render(model)) == model
        for op in model.built.values():
            assert all(abs(k(0.0)) <= DEFAULT_TOL for row in op.kernels for k in row)
        verb, arity = data.draw(st.sampled_from(VERBS))
        names = [data.draw(st.sampled_from(ops)) for _ in range(arity)]
        probe = [data.draw(st.sampled_from(probes))] if probes else []
        steps = str(data.draw(st.integers(1, 8)))
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path), verb, *names, *probe, "--max-steps", steps])
        assert code in (0, 1, 2, 3)
        json.loads(out.getvalue())
        assert err.getvalue() == ""

    check()


# -- expressions against the reference ------------------------------------------

POINTS = [
    (s, t, r)
    for s, t in ((1.0, 1.0), (0.5, 2.0), (-1.5, 0.0), (3.0, -0.25))
    for r in (-3.0, -1e-300, 0.0, 0.7, 1e308)
]


def outcome(kernel, s, t, r):
    try:
        return "ok", repr(kernel(s, t, r))
    except KernelEvalError as exc:
        return "error", str(exc)


def library_expression(src):
    """(text, height, kernel) of src read as an integral line reads it, or
    the ModelSemanticError it raises."""
    cur = dsl._Cursor(dsl._tokenize_line(src, 1), 1, len(src))
    text, evaluate, height = dsl._parse_expr(cur)
    if height > dsl._MAX_DEPTH:
        raise dsl._too_deep(1)
    cur.require_end()
    return text, height, dsl._expr_fn(evaluate)


def compare_with_reference(src):
    """The outcome at (1, 1, 3) after asserting that the library and the
    reference agree on src, or the library's reason for refusing it."""
    e = ref.Expression(src)
    try:
        text, height, kernel = library_expression(src)
    except ModelSemanticError as exc:
        assert exc.reason in e.faults or e.tree is None, (src[:200], exc.reason)
        return "refused", exc.reason
    assert not e.faults, (src[:200], e.faults)
    assert (text, height) == (e.text, e.height)
    for p in POINTS:
        assert outcome(kernel, *p) == outcome(e.kernel, *p), (src[:200], p)
    return outcome(kernel, 1.0, 1.0, 3.0)


@settings(max_examples=400, deadline=None)
@given(expressions())
def test_expressions_match_the_reference(src):
    compare_with_reference(src)


TOO_DEEP = ("refused", "expression nested or chained deeper than 64")


@pytest.mark.parametrize("src,expected", [
    ("(" * 63 + "r" + ")" * 63, ("ok", "3.0")),
    ("(" * 64 + "r" + ")" * 64, TOO_DEEP),
    ("abs(" * 63 + "r" + ")" * 63, ("ok", "3.0")),
    ("abs(" * 64 + "r" + ")" * 64, TOO_DEEP),
    ("-" * 63 + "r", ("ok", "-3.0")),
    ("-" * 64 + "r", TOO_DEEP),
    ("+".join(["r"] * 64), ("ok", "192.0")),
    ("+".join(["r"] * 65), TOO_DEEP),
    ("r*" + "^".join(["1"] * 63), ("ok", "3.0")),
    ("r*" + "^".join(["1"] * 64), TOO_DEEP),
    ("2^-2", ("ok", "0.25")),
    ("-r^2", ("ok", "-9.0")),
    ("r/0", ("error", "kernel expression failed to evaluate at (s=1, t=1, r=3): float division by zero")),
    ("exp(1000)", ("error", "kernel expression failed to evaluate at (s=1, t=1, r=3): math range error")),
    ("(-8)^(1/3)", ("error", "kernel expression failed to evaluate at (s=1, t=1, r=3): math domain error")),
    ("min(r)", ("refused", "min takes 2 argument(s)")),
    ("abs(r,s)", ("refused", "abs takes 1 argument(s)")),
], ids=[
    "nest-64", "nest-65", "calls-64", "calls-65", "minus-64", "minus-65", "sum-64", "sum-65",
    "power-64", "power-65", "power-of-minus", "minus-of-power", "div-zero", "exp-overflow",
    "pow-domain", "min-arity", "abs-arity",
])
def test_planted_expressions_match_the_reference(src, expected):
    assert compare_with_reference(src) == expected
