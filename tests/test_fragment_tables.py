"""Differential check of the addend tables and the kernel order check.

`KernelOperator.on_fragments` gives T(y), or T(x - y) with rest, for every
fragment y (one list per output row, in fragment order) from each kernel
evaluated once at x_j and once at 0;
`kernel_diff_nonneg` decides high - low >= -tol on the breakpoint union
without building kernels.  The references below are the direct forms they
replace: one operator application per fragment, `rk_eval` enumerating
T(y) + S(x - y) fragment by fragment, and the difference kernel
`hp.sub(lp)`.  Results must agree exactly (compared by repr, so even the
sign of a zero counts), errors included.

A last test counts kernel evaluations, which needs no clock: on fresh
operators they do not depend on the number of fragments.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracle import by_row
from uryson.calculus import RK_KINDS, RKResult, check_disjoint_iff, rk_eval
from uryson.instances import disjoint_positive_pair, random_pwl, rng_for
from uryson.kernels import (
    _SAMPLE_GRID,
    DEFAULT_TOL,
    BuiltinKernel,
    FuncKernel,
    PwlKernel,
    ZERO_KERNEL,
    kernel_diff_nonneg,
)
from uryson.lattice import Vector, fragments
from uryson.operators import KernelOperator
from uryson.projections import project_band_set, project_principal

TOL = DEFAULT_TOL
# grid points, exact zeros of both signs, and coordinates in (0, tol] that
# fall outside the support but still reach x - y
PROBE_GRID = (0.0, -0.0, 5e-10, -1e-9, 2e-9, -2.0, -0.5, 0.5, 1.0, 2.5)


def outcome(fn, *args, **kwargs):
    try:
        return "ok", repr(fn(*args, **kwargs))
    except (ValueError, OverflowError) as exc:
        return "error", type(exc).__name__, str(exc)


def mixed_kernel(rng):
    """A pwl, builtin or callable kernel; callables may have f(0) up to tol."""
    kind = rng.randrange(5)
    if kind == 0:
        return random_pwl(rng)
    if kind == 1:
        return BuiltinKernel(rng.choice(("abs", "id", "relu")), rng.choice((0.5, -1.0, 2.0)))
    if kind == 2:
        lo, hi = rng.choice((-1.0, -0.25, 0.0)), rng.choice((0.0, 0.75, 2.0))
        return BuiltinKernel("clamp", rng.choice((1.0, -3.0)), (lo, hi))
    if kind == 3:
        return ZERO_KERNEL
    off, a = rng.choice((0.0, 1e-9, -7e-10)), rng.choice((0.3, -1.25))
    return FuncKernel(lambda r, off=off, a=a: off + a * r * r + r / 3.0, label="quad")


def mixed_operator(rng, m, n):
    return KernelOperator(tuple(tuple(mixed_kernel(rng) for _ in range(n)) for _ in range(m)))


def seeded_case(seed, m, n):
    rng = rng_for(seed, "fragment-tables")
    T, S = mixed_operator(rng, m, n), mixed_operator(rng, m, n)
    x = Vector(tuple(rng.choice(PROBE_GRID) for _ in range(n)))
    return T, S, x


# -- references -----------------------------------------------------------------


def ref_on_fragments(T, x, frags, rest=False):
    return by_row([T(x - y).coords if rest else T(y).coords for y in frags])


def ref_rk_eval(kind, T, x, S=None):
    maximize = kind in ("join", "pos", "abs")
    best, pairs = [], []
    for y in fragments(x, tol=TOL):
        z = x - y
        if kind in ("join", "meet"):
            cand = T(y) + S(z)
        elif kind == "abs":
            cand = T(y) - T(z)
        else:
            cand = T(y)
        if not best:
            best = list(cand.coords)
            pairs = [(y, z)] * T.m
            continue
        for i, v in enumerate(cand.coords):
            if (v > best[i]) if maximize else (v < best[i]):
                best[i] = v
                pairs[i] = (y, z)
    if kind == "neg":
        best = [0.0 - v for v in best]
    return RKResult(value=Vector(tuple(best)), argwitness=tuple(pairs))


def ref_diff_nonneg(low, high, tol=TOL):
    lp, hp = low.to_pwl(), high.to_pwl()
    if lp is not None and hp is not None:
        d = hp.sub(lp)
        return all(y >= -tol for _, y in d.points) and d.first_slope <= tol and d.last_slope >= -tol
    return all(high(r) - low(r) >= -tol for r in _SAMPLE_GRID)


def assert_same_as_references(T, S, x, tol=TOL):
    frags = fragments(x, tol=TOL)
    for op in (T, S):
        for rest in (False, True):
            assert outcome(op.on_fragments, x, frags, rest) == outcome(
                ref_on_fragments, op, x, frags, rest
            )
    for kind in RK_KINDS:
        other = S if kind in ("join", "meet") else None
        assert outcome(rk_eval, kind, T, x, other) == outcome(ref_rk_eval, kind, T, x, other)
    for lo_row, hi_row in ((T.kernels[0], S.kernels[0]), (T.kernels[0], T.kernels[0])):
        for low, high in zip(lo_row, hi_row):
            assert outcome(kernel_diff_nonneg, low, high, tol) == outcome(
                ref_diff_nonneg, low, high, tol
            )


CASES = [(seed, 1 + seed % 3, 1 + seed // 3 % 5) for seed in range(60)]


@pytest.mark.parametrize("seed,m,n", CASES)
def test_tables_match_references(seed, m, n):
    T, S, x = seeded_case(seed, m, n)
    assert_same_as_references(T, S, x)


@st.composite
def table_cases(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    T, S, _ = seeded_case(draw(st.integers(0, 2**20)), m, n)
    x = Vector(tuple(draw(st.sampled_from(PROBE_GRID)) for _ in range(n)))
    return T, S, x, draw(st.sampled_from((TOL, 0.0, 0.25)))


@settings(max_examples=60, deadline=None)
@given(table_cases())
def test_tables_match_references_hypothesis(case):
    assert_same_as_references(*case)


def test_non_finite_addend_raises_like_an_application():
    wild = FuncKernel(lambda r: math.inf if r > 2.0 else r, label="wild")
    T = KernelOperator(((wild, BuiltinKernel("abs")),))
    x = Vector((2.5, 1.0))
    frags = fragments(x)
    for rest in (False, True):
        got = outcome(T.on_fragments, x, frags, rest)
        assert got == outcome(ref_on_fragments, T, x, frags, rest)
        assert got == ("error", "ValueError", "vector coordinates must be finite")
    for kind in ("join", "meet"):
        assert outcome(rk_eval, kind, T, x, T) == outcome(ref_rk_eval, kind, T, x, T)


def test_overflowing_candidate_raises_like_vector_arithmetic():
    # finite addends whose T(y) + S(x - y) or T(y) - T(x - y) overflows on
    # fragment (1, 0) only, so the meet itself stays finite
    huge = PwlKernel(((0.0, 0.0), (1.0, 1e308)))
    T = KernelOperator(((huge, huge.scaled(-1.0)),))
    S = KernelOperator(((ZERO_KERNEL, huge),))
    x = Vector((1.0, 1.0))
    for kind, other in (("join", S), ("meet", S), ("abs", None)):
        got = outcome(rk_eval, kind, T, x, other)
        assert got == outcome(ref_rk_eval, kind, T, x, other)
        assert got == ("error", "ValueError", "vector coordinates must be finite")


@pytest.mark.parametrize(
    "low,high",
    [
        # the difference overflows at a shared breakpoint
        (PwlKernel(((0.0, 0.0), (1.0, -1.5e308))), PwlKernel(((0.0, 0.0), (1.0, 1.5e308)))),
        # low's extrapolation overflows at high's far breakpoint
        (PwlKernel(((0.0, 0.0), (1.0, 1e300))), PwlKernel(((0.0, 0.0), (1e10, 0.0)))),
    ],
)
def test_overflowing_difference_raises_like_sub(low, high):
    got = outcome(kernel_diff_nonneg, low, high)
    assert got == outcome(ref_diff_nonneg, low, high)
    assert got == ("error", "ValueError", "breakpoints must be finite")


def test_self_pairs_are_ordered():
    rng = rng_for(7, "self-pairs")
    for _ in range(20):
        k = mixed_kernel(rng)
        assert kernel_diff_nonneg(k, k)
        assert ref_diff_nonneg(k, k)


# -- kernel evaluations ---------------------------------------------------------


@pytest.fixture
def count_evaluations(monkeypatch):
    counter = {"calls": 0}
    original = PwlKernel.__call__

    def counted(self, r):
        counter["calls"] += 1
        return original(self, r)

    monkeypatch.setattr(PwlKernel, "__call__", counted)

    def run(fn, *args):
        counter["calls"] = 0
        fn(*args)
        return counter["calls"]

    return run


def test_kernel_evaluations_do_not_depend_on_fragment_count(count_evaluations):
    x4 = Vector((1.0, 0.0, 1.5, 0.0, -1.0, 0.5))
    x6 = Vector((1.0, -0.5, 1.5, 2.5, -1.0, 0.5))
    assert (len(fragments(x4)), len(fragments(x6))) == (16, 64)
    for program in (
        lambda S, T, x: project_band_set((S,), T, x),
        lambda S, T, x: project_principal(S, T, x),
        lambda S, T, x: check_disjoint_iff(S, T, [x], 1.0),
    ):
        # fresh operators for each count: an operator keeps its zero table
        n4, n6 = (
            count_evaluations(program, *disjoint_positive_pair(rng_for(4, "applications"), 4, 6), x)
            for x in (x4, x6)
        )
        assert n4 == n6 > 0
