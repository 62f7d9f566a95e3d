"""Model language: parsing, validation diagnostics, and printing.

Every rejection path carries a stable machine-readable code plus a line
(and, for tokenizer-level failures, a column), and each one is pinned here
by message so the diagnostics stay part of the contract.
"""

import importlib.resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uryson.dsl import (
    IntegralOpDef,
    Model,
    Settings,
    build_operator,
    parse_model,
    render,
)
from uryson.errors import (
    BadCommand,
    ModelSemanticError,
    ModelSyntaxError,
)
from uryson.lattice import vec

MINI = """\
kernel k1 pwl (-1,1) (0,0) (1,1)
kernel k2 abs
op T 2x2 [k2 k2; k1 k2]
op phi 1x2 [k2 k2]
op R rank1 phi u=(1,1)
probe x1 = (1,-2)
set eps0 1.0
"""


def test_parse_counts():
    m = parse_model(MINI)
    assert m.dims == (2, 2)
    assert len(m.kernels) == 2
    assert m.operator_names() == ("T", "phi", "R")
    assert m.probe_names() == ("x1",)
    assert m.settings.eps0 == 1.0
    assert m.settings.seed == 0  # untouched default


def test_parse_is_deterministic():
    assert parse_model(MINI) == parse_model(MINI)


def test_build_operator_and_shapes():
    m = parse_model(MINI)
    T = build_operator(m, "T")
    assert T(vec(1.0, -2.0)).coords == (3.0, 3.0)
    assert (T.m, T.n) == (2, 2)
    phi = build_operator(m, "phi")
    assert (phi.m, phi.n) == (1, 2)
    R = build_operator(m, "R")
    assert (R.m, R.n) == (2, 2)
    assert R(vec(1.0, -2.0)).coords == (3.0, 3.0)
    with pytest.raises(BadCommand, match="unknown operator"):
        build_operator(m, "nope")
    with pytest.raises(BadCommand, match="unknown probe"):
        m.probe("nope")
    with pytest.raises(BadCommand, match="unknown kernel"):
        m.kernel("nope")


def test_comments_and_blank_lines_ignored():
    m = parse_model("# header\n\nkernel k abs  # trailing\nop T 1x1 [k]\n")
    assert m.operator_names() == ("T",)


def test_functional_exempt_from_output_dim():
    m = parse_model(MINI)
    assert m.m == 2  # phi's single row does not drag m down to 1


def test_only_functionals_infer_one_dim():
    m = parse_model("kernel k abs\nop phi 1x2 [k k]\n")
    assert m.dims == (2, 1)


def test_spaces_pin_dims():
    m = parse_model("space E 3\nspace F 2\n")
    assert m.dims == (3, 2)


def test_integral_operator_definition():
    m = parse_model("op U integral ((s*t)*r) s=(1,2) t=(0.5,1) w=(1,1)\n")
    d = m.operator_def("U")
    assert isinstance(d, IntegralOpDef)
    U = build_operator(m, "U")
    assert U(vec(1.0, -2.0)).coords == (-1.5, -3.0)


def test_expression_grammar():
    # '^' binds right and tighter than unary minus; functions nest
    m = parse_model(
        "op U integral (abs(r)^2 + min(s,t)*max(r,0) - 2^-2*r) s=(1) t=(1) w=(1)\n"
    )
    U = build_operator(m, "U")
    assert U(vec(3.0)).coords == (9.0 + 3.0 - 0.75,)
    m2 = parse_model("op V integral (-r^2) s=(1) t=(1) w=(1)\n")
    V = build_operator(m2, "V")
    assert V(vec(2.0)).coords == (-4.0,)


SEMANTIC_CASES = [
    ("# nothing\n", "semantic_error", 1, "declares no dimensions"),
    ("kernel k abs\nkernel k relu\n", "semantic_error", 2,
     "duplicate name 'k' \\(first declared on line 1\\)"),
    ("kernel k abs\nop T 1x1 [q]\n", "unknown_name", 2, "unknown kernel 'q'"),
    ("kernel k abs\nop T 2x2 [k k; k]\n", "dimension_mismatch", 2,
     "matrix for 'T' must have 2 row\\(s\\) of 2 kernel\\(s\\)"),
    ("kernel bad pwl (1,2)\n", "semantic_error", 1,
     "kernel must vanish at 0: include breakpoint \\(0, 0\\)"),
    ("kernel k clamp(1,2)\n", "semantic_error", 1, "clamp needs lo <= 0 <= hi"),
    ("kernel k abs\nop phi 1x1 [k]\nop R rank1 phi u=(-1)\n", "negative_u", 3,
     "rank-one direction u must be nonnegative"),
    ("op R rank1 f u=(1)\n", "unknown_name", 1, "unknown operator 'f'"),
    ("kernel k abs\nop T 2x2 [k k; k k]\nop R rank1 T u=(1,1)\n",
     "semantic_error", 3, "rank-one factor 'T' must be a functional"),
    ("op U integral (s*t+1) s=(1) t=(1) w=(1)\n", "c0_violation", 1,
     "kernel does not vanish at 0 at node \\(s=1, t=1\\)"),
    ("op U integral (s*q*r) s=(1) t=(1) w=(1)\n", "unknown_name", 1,
     "unknown variable 'q' \\(expected s, t, or r\\)"),
    ("op U integral (sinh(r)) s=(1) t=(1) w=(1)\n", "unknown_name", 1,
     "unknown function 'sinh'"),
    ("op U integral (s*t*r) s=(1) t=(1,2) w=(1)\n", "dimension_mismatch", 1,
     "one weight per input node required"),
    ("op U integral (s*t*r) s=(1) t=(1) w=(-1)\n", "semantic_error", 1,
     "quadrature weights must be strictly positive"),
    ("kernel k abs\nop T 1x1 [k]\nset beta 1\n", "semantic_error", 3,
     "unknown setting 'beta'"),
    ("kernel k abs\nop T 1x1 [k]\nset seed 1\nset seed 2\n", "semantic_error",
     4, "duplicate setting 'seed'"),
    ("kernel k abs\nop T 1x1 [k]\nset factor 1.5\n", "semantic_error", 3,
     "setting factor must lie strictly in \\(0,1\\)"),
    ("kernel k abs\nop T 1x1 [k]\nset seed 1.5\n", "semantic_error", 3,
     "setting seed must be an integer"),
    ("kernel k abs\nop T 1x1 [k]\nset tol -1\n", "semantic_error", 3,
     "setting tol must be positive"),
    ("kernel k abs\nop T 1x1 [k]\nset max_steps 1e999\n", "semantic_error", 3,
     "setting max_steps must be finite"),
    ("kernel k abs\nop T 1x1 [k]\nset cap_masks 12\n", "semantic_error", 3,
     "unknown setting 'cap_masks'"),
    ("kernel k abs\nop T 1x2 [k k]\nprobe x = (1e999, 1)\n", "semantic_error", 3,
     "vector coordinates must be finite"),
    ("space E 1e999\n", "semantic_error", 1, "space dimension must be finite"),
    ("kernel k abs scale=1e999\n", "semantic_error", 1,
     "kernel scale and parameters must be finite"),
    ("kernel k clamp(-1e999,1)\n", "semantic_error", 1,
     "kernel scale and parameters must be finite"),
    ("space Q 2\n", "semantic_error", 1, "space must be E \\(input\\) or F \\(output\\)"),
    ("space E 2\nspace E 3\n", "semantic_error", 2, "duplicate space E"),
    ("kernel k abs\nop T 2x2 [k k; k k]\nprobe p = (1,2,3)\n",
     "dimension_mismatch", 3, "probe 'p' has dimension 3, expected 2"),
    ("kernel k abs\nop T 1x1 [k]\nop S 2x2 [k k; k k]\n", "dimension_mismatch",
     3, "operator 'S' has input dimension 2, expected 1"),
    ("kernel k abs\nop T 2x2 [k k; k k]\nop phi 1x2 [k k]\n"
     "op R rank1 phi u=(1,1,1)\n", "dimension_mismatch", 4,
     "operator 'R' has output dimension 3, expected 2"),
    ("op U integral (" + "-" * 64 + "r) s=(1) t=(1) w=(1)\n", "semantic_error", 1,
     "expression nested or chained deeper than 64"),
    ("op U integral ((1/(s-1))*r) s=(1) t=(1) w=(1)\n", "eval_error", 1,
     "kernel expression failed to evaluate at \\(s=1, t=1, r=0\\): float division by zero"),
    ("op U integral (r+5e-10) s=(1) t=(1) w=(4)\n", "c0_violation", 1,
     "weighted kernel does not vanish at 0 at node \\(s=1, t=1, w=4\\): 2e-09"),
    ("op U integral (s*t+1) s=(1) t=(2) w=(1)\n", "c0_violation", 1,
     "kernel does not vanish at 0 at node \\(s=1, t=2\\): 3.0"),
    ("space E 2.5\n", "semantic_error", 1, "space dimension must be an integer"),
    ("space E 0\n", "semantic_error", 1, "space dimension must be >= 1"),
    ("op T 0x1 []\n", "semantic_error", 1, "operator dimensions must be >= 1"),
    ("op U integral (min(r)) s=(1) t=(1) w=(1)\n", "semantic_error", 1,
     "min takes 2 argument\\(s\\)"),
    ("op T 0x1 [k]\n", "semantic_error", 1, "operator dimensions must be >= 1"),
]


@pytest.mark.parametrize("text,code,line,pattern", SEMANTIC_CASES)
def test_semantic_rejections(text, code, line, pattern):
    with pytest.raises(ModelSemanticError, match=pattern) as info:
        parse_model(text)
    assert info.value.code == code
    assert info.value.line == line


SYNTAX_CASES = [
    ("kernel k abs\nop T 2x2 [k k; k\n", 2, 17, "expected '\\]'"),
    ("kernel k abs\nop phi 1x1 [k]\nop R rank1\n", 3, 11, "expected a functional name"),
    ("op U integral (s*t*r) t=(1) s=(1) w=(1)\n", 1, 23, "expected s=\\(...\\)"),
    ("kernel k abs scale=xyz\n", 1, 20, "expected a number"),
    ("kernel k pwl\n", 1, 13, "expected at least one \\(x,y\\) breakpoint"),
    ("op U integral (\n", 1, 16, "expected an expression"),
    ("op U integral (*r) s=(1) t=(1) w=(1)\n", 1, 16, "unexpected token '\\*' in expression"),
    # the op form is chosen by the token after the name: a DIM token, or one
    # of the keywords rank1 and integral as a name
    ("op T DIM [k]\n", 1, 6, "expected MxN, rank1, or integral"),
    ("op T dim [k]\n", 1, 6, "expected MxN, rank1, or integral"),
    ("op T\n", 1, 5, "expected MxN, rank1, or integral"),
    ("op T (1)\n", 1, 6, "expected MxN, rank1, or integral"),
    ("op T 2x2\n", 1, 9, "expected '\\['"),
    ("op T rank1\n", 1, 11, "expected a functional name"),
    ("op T integral\n", 1, 14, "expected '\\('"),
]


@pytest.mark.parametrize("text,line,column,pattern", SYNTAX_CASES)
def test_syntax_rejections(text, line, column, pattern):
    with pytest.raises(ModelSyntaxError, match=pattern) as info:
        parse_model(text)
    assert info.value.code == "syntax_error"
    assert info.value.line == line
    assert info.value.column == column


def test_error_codes_are_distinct_classes():
    with pytest.raises(ModelSyntaxError) as syn:
        parse_model("kernel k pwl (0 0)\n")
    with pytest.raises(ModelSemanticError) as sem:
        parse_model("kernel k pwl (1,1)\n")
    assert syn.value.code != sem.value.code


def test_render_round_trip():
    m = parse_model(MINI)
    assert parse_model(render(m)) == m


def test_render_round_trip_preserves_precision():
    text = "kernel k abs scale=0.123456789012345\nop T 1x1 [k]\nprobe p = (0.1)\n"
    m = parse_model(text)
    again = parse_model(render(m))
    assert again == m
    assert again.kernel("k").scale == 0.123456789012345


def test_render_layout():
    m = parse_model(
        "kernel k abs\nkernel h pwl (-1,0.1) (0,0) (2,1)\n"
        "op T 1x2 [k h]\nprobe p = (0.1, -2)\nset seed 3\n"
    )
    assert render(m) == (
        "space E 2\n"
        "space F 1\n"
        "kernel k abs\n"
        "kernel h pwl (-1.0,0.1) (0.0,0.0) (2.0,1.0)\n"
        "op T 1x2 [k h]\n"
        "probe p = (0.1,-2.0)\n"
        "set seed 3\n"
    )


def test_render_omits_default_settings():
    m = parse_model("kernel k abs\nop T 1x1 [k]\n")
    assert "set " not in render(m)


def test_demo_model_parses(demo_model):
    assert demo_model.dims == (2, 2)
    assert "T" in demo_model.operator_names()
    assert demo_model.settings.seed == 7
    assert parse_model(render(demo_model)) == demo_model


@pytest.mark.parametrize(
    "body",
    [
        "(" * 63 + "r" + ")" * 63,  # with the expression itself, 64 levels
        "-" * 63 + "r",
        "+".join(["r"] * 64),
        "r*" + "^".join(["1"] * 63),
        "abs(" * 63 + "r" + ")" * 63,
    ],
    ids=["parens", "minus", "sum", "power", "calls"],
)
def test_expressions_at_the_depth_bound_parse_and_round_trip(body):
    m = parse_model(f"op U integral ({body}) s=(1) t=(1) w=(1)\n")
    assert parse_model(render(m)) == m
    with pytest.raises(ModelSemanticError, match="deeper than 64"):
        parse_model(f"op U integral (-({body})) s=(1) t=(1) w=(1)\n")


def test_long_rank_one_chain_builds_in_a_loop():
    text = "kernel k abs scale=2\nop R0 1x1 [k]\n" + "".join(
        f"op R{i} rank1 R{i - 1} u=(0.5)\n" for i in range(1, 1500)
    )
    m = parse_model(text)
    assert m.dims == (1, 1)
    R = build_operator(m, "R1499")
    assert R(vec(-3.0)).coords == (6.0 * 0.5**1499,)


def test_settings_check_themselves():
    with pytest.raises(ValueError, match="^setting tol must be positive$"):
        Settings(tol=-1, factor=7, max_steps=0)
    with pytest.raises(ValueError, match="^setting factor must lie strictly in \\(0,1\\)$"):
        Settings(factor=7)
    got = Settings(max_steps=3.0, seed=-2.0)
    assert (got.max_steps, got.seed) == (3, -2)
    assert type(got.max_steps) is int and type(got.seed) is int


def test_settings_schedule():
    s = Settings(eps0=0.5, factor=0.25, max_steps=3)
    assert list(s.schedule().values()) == [0.5, 0.125, 0.03125]


# -- fuzzing ------------------------------------------------------------------

DEMO_LINES = (
    (importlib.resources.files("uryson") / "demo.ury").read_text(encoding="utf-8").splitlines()
)
# characters of the language, some of its words, and numbers at its edges
PIECES = (
    *"()[];,=+-*/^.x_# \t\n0123456789eE",
    "1e999", "nan", "-0", "kernel", "op", "probe", "set", "space", "pwl", "abs",
    "clamp", "rank1", "integral", "scale=", "u=", "s=", "t=", "w=", "2x2", "k_abs", "T", "x1",
)


@st.composite
def mutated_demo(draw):
    """demo.ury with up to four spans of at most three characters replaced
    by a piece of the language, or deleted."""
    lines = list(DEMO_LINES)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        a = draw(st.integers(0, len(lines[i])))
        b = draw(st.integers(a, min(a + 3, len(lines[i]))))
        piece = draw(st.one_of(st.just(""), st.sampled_from(PIECES)))
        lines[i] = lines[i][:a] + piece + lines[i][b:]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(mutated_demo())
def test_mutated_models_parse_or_raise_model_errors(text):
    try:
        assert isinstance(parse_model(text), Model)
    except (ModelSyntaxError, ModelSemanticError):
        pass
