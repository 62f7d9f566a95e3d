"""Fragment rows as correctly rounded sums.

`KernelOperator.on_fragments` sums a row of at most
`operators.FSUM_MAX_ENTRIES` entries (2^|supp x| * n) with one fsum per
fragment, and a larger row from integer subset sums rounded once.  On
either side of the constant each row must be the correctly rounded exact
sum of its addends (a Fraction sum, `reference.exact`) and the reference's
row, the fsum of an application to the fragment, compared by repr so the
sign of a zero counts.  Tables with a non-finite entry or near the float
range apply the operator to each fragment, and must fail like the
reference, with the same exception type and message.

Two clock-free guards follow: a count of the fsum calls made from
`uryson.operators` (one per row and fragment at the constant, none one
support column past it, some for the fallback), and the converse probe of
`check_disjoint_iff` against the reference's scan of every fragment.
"""

import math
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from strategies import PlantedKernel, outcome, planted_operators, planted_values
from test_cli import OVERFLOW_MODEL
from uryson import operators
from uryson.calculus import check_disjoint_iff, rk_eval, rk_eval_separable
from uryson.dsl import build_operator, parse_model
from uryson.instances import disjoint_positive_pair, grid_vector, perturbed_pair, rng_for
from uryson.kernels import BuiltinKernel
from uryson.lattice import Vector, fragments
from uryson.operators import KernelOperator


def exact_table(T, x, rest=False):
    """The exact rows of every fragment, each rounded once, laid out as
    on_fragments returns them."""
    frags = ref.fragments(x)
    return ref.by_row([tuple(map(float, ref.exact(T, x - y if rest else y))) for y in frags])


def assert_rows_exact(T, x, rest):
    got = outcome(T.on_fragments, x, fragments(x), rest)
    assert got == outcome(ref.table, T, x, rest)
    assert got == ("ok", repr(exact_table(T, x, rest)))


@settings(max_examples=300, deadline=None)
@given(planted_operators(), st.booleans())
def test_rows_are_rounded_exact_sums(case, rest):
    assert_rows_exact(*case, rest)


@st.composite
def widened(draw):
    """A planted case with full-support columns of planted values appended
    until its rows pass FSUM_MAX_ENTRIES and so take the integer sums."""
    T, x = draw(planted_operators(max_m=2))
    n, supp = x.dim, len(fragments(x).supp)
    extra = 0
    while (n + extra) << (supp + extra) <= operators.FSUM_MAX_ENTRIES:
        extra += 1
    ats = draw(planted_values(T.m * extra))
    kernels = tuple(
        row + tuple(PlantedKernel(a) for a in ats[i * extra:(i + 1) * extra])
        for i, row in enumerate(T.kernels)
    )
    return KernelOperator(kernels), Vector(x.coords + (1.0,) * extra)


@settings(max_examples=60, deadline=None)
@given(widened(), st.booleans())
def test_wide_rows_are_rounded_exact_sums(case, rest):
    assert_rows_exact(*case, rest)


@pytest.mark.parametrize("seed", range(20))
def test_library_kernels_rows_are_rounded_exact_sums(seed):
    rng = rng_for(seed, "exact-sums")
    S, T = perturbed_pair(rng, 3, 5)
    x = grid_vector(rng, 5)
    for op in (S, T):
        for rest in (False, True):
            assert_rows_exact(op, x, rest)


@pytest.mark.parametrize("seed", range(3))
def test_large_library_tables_are_rounded_exact_sums(seed):
    rng = rng_for(seed, "exact-sums-large")
    S, T = perturbed_pair(rng, 3, 10)
    x = grid_vector(rng, 10)
    assert 10 << len(fragments(x).supp) > operators.FSUM_MAX_ENTRIES
    for op in (S, T):
        for rest in (False, True):
            assert_rows_exact(op, x, rest)


def row_operator(values):
    return KernelOperator((tuple(PlantedKernel(v) for v in values),))


def padded(values):
    """values and zero columns of both signs, until a full-support row has
    more than FSUM_MAX_ENTRIES entries and so takes the integer sums."""
    values = list(values)
    while len(values) << len(values) <= operators.FSUM_MAX_ENTRIES:
        values.append(-0.0 if len(values) % 2 else 0.0)
    return tuple(values)


@pytest.mark.parametrize(
    "values",
    [
        # entries below 2^-1022 round each sum by integer division once padded
        (5e-324, -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308),
        (3e-320, 1e-300, -1e-300),
        # so does a spread of magnitudes whose integer sums exceed a float
        (1e300, 1e-10, -1e300, 3.0),
        (2.0**1000, -(2.0**1000), 2.0**-60),
        # the common case: round to a float, then scale exactly
        (0.1, 0.2, -0.3, 1e16),
    ],
)
def test_rows_are_exact_on_both_roundings(values):
    # as given, the rows take fsum; padded, the integer sums
    for vals in (values, padded(values)):
        for rest in (False, True):
            assert_rows_exact(row_operator(vals), Vector.ones(len(vals)), rest)


@pytest.mark.parametrize(
    "values,error",
    [
        # the exact sum 1e308 fits, but fsum's partial sums overflow
        ((1e308, 1e308, -1e308), ("OverflowError", "intermediate overflow in fsum")),
        ((math.inf, 1.0), ("ValueError", "vector coordinates must be finite")),
        ((math.nan, 1.0), ("ValueError", "vector coordinates must be finite")),
        ((math.inf, -math.inf), ("ValueError", "-inf + inf in fsum")),
    ],
)
def test_fallback_fails_like_fsum(values, error):
    T = row_operator(values)
    x = Vector.ones(len(values))
    frags = fragments(x)
    for rest in (False, True):
        got = outcome(T.on_fragments, x, frags, rest)
        assert got == outcome(ref.table, T, x, rest)
        if rest:  # fragment 0 then sums the whole row
            assert got == ("error", *error)


def test_fallback_keeps_finite_rows_near_the_float_range():
    # sum |v| overflows, so the fsum loop runs, but every row fits
    T = row_operator((1e308, -1e308, 1e308))
    x = Vector((1.0, 1.0, 0.0))
    frags = fragments(x)
    rows = T.on_fragments(x, frags)
    assert rows == ref.table(T, x) == [[0.0, 1e308, -1e308, 0.0]]
    assert rows == exact_table(T, x)


# -- fsum calls ------------------------------------------------------------------


@pytest.fixture
def fsum_calls(monkeypatch):
    """Counts the math.fsum calls made from uryson.operators."""
    count = [0]

    def counted(values):
        count[0] += 1
        return math.fsum(values)

    proxy = types.SimpleNamespace(**{**vars(math), "fsum": counted})
    monkeypatch.setattr(operators, "math", proxy)

    def run(fn, *args):
        count[0] = 0
        try:
            fn(*args)
        except OverflowError:
            pass
        return count[0]

    return run


def test_fsum_calls_on_both_sides_of_the_constant(fsum_calls):
    # 10 columns, 6 in the support: exactly FSUM_MAX_ENTRIES entries per row,
    # one fsum per row and fragment; one support column more: none
    assert 10 << 6 == operators.FSUM_MAX_ENTRIES
    S, T = disjoint_positive_pair(rng_for(3, "fsum-calls"), 3, 10)
    for supp, want in ((6, 3 * 2**6), (7, 0)):
        x = Vector(tuple(0.5 + j if j < supp else 0.0 for j in range(10)))
        frags = fragments(x)
        assert len(frags) == 2**supp
        for op in (S, T):
            for rest in (False, True):
                assert fsum_calls(op.on_fragments, x, frags, rest) == want


def test_overflow_model_takes_the_fallback(fsum_calls):
    model = parse_model(OVERFLOW_MODEL)
    T = build_operator(model, "T")
    x = Vector((1.0, 1.0))
    assert fsum_calls(T.on_fragments, x, fragments(x)) > 0
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        T.on_fragments(x, fragments(x))


# -- converse probe --------------------------------------------------------------


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25])
@pytest.mark.parametrize("steps", [1, 5, 20])
def test_converse_front_matches_a_scan(tol, steps):
    rng = rng_for(steps, "converse-front")
    for k in range(12):
        pair = disjoint_positive_pair if k % 2 else perturbed_pair
        S, T = pair(rng, 3, 4)
        x = grid_vector(rng, 4)
        if k % 3 == 0:
            x = Vector((0.0, -0.0, tol / 2 or 1e-10, *x.coords[3:]))
        args = (S, T, [x], 0.5, steps)
        assert outcome(check_disjoint_iff, *args, tol=tol) == outcome(
            ref.check_disjoint_iff, *args, tol=tol
        )


# -- signed zero ----------------------------------------------------------------


def test_neg_of_a_positive_operator_is_plus_zero():
    T = KernelOperator(((BuiltinKernel("abs"), BuiltinKernel("relu")),))
    x = Vector((1.0, 2.0))
    assert repr(rk_eval("neg", T, x).value) == repr(rk_eval_separable("neg", T, x))
    assert repr(rk_eval("neg", T, x).value) == "Vector(coords=(0.0,))"
