"""The addend tables and the kernel order check against the reference.

`KernelOperator.on_fragments` gives T(y), or T(x - y) with rest, for every
fragment y (one list per output row, in fragment order) from each kernel
evaluated once at x_j and once at 0; `kernel_diff_nonneg` decides
high - low >= -tol on the breakpoint union without building kernels.
`reference` applies T to every fragment, enumerates the RK candidates
fragment by fragment, and checks the order at the breakpoint union.  Results
must agree exactly (compared by repr, so even the sign of a zero counts),
errors included.

A last test counts kernel evaluations, which needs no clock: on fresh
operators they do not depend on the number of fragments.
"""

import math

import pytest
from hypothesis import given, settings

import reference as ref
from strategies import assert_matches_reference, cases, mixed_kernel, outcome, seeded_case
from uryson.calculus import check_disjoint_iff, rk_eval
from uryson.instances import disjoint_positive_pair, rng_for
from uryson.kernels import BuiltinKernel, FuncKernel, PwlKernel, ZERO_KERNEL, kernel_diff_nonneg
from uryson.lattice import Vector, fragments
from uryson.operators import KernelOperator
from uryson.projections import project_band_set, project_principal

CASES = [(seed, 1 + seed % 3, 1 + seed // 3 % 5) for seed in range(60)]


@pytest.mark.parametrize("seed,m,n", CASES)
def test_tables_match_references(seed, m, n):
    assert_matches_reference(seeded_case(seed, m, n, "fragment-tables"))


@settings(max_examples=35, deadline=None)
@given(cases(max_m=3, max_n=5))
def test_tables_match_references_hypothesis(case):
    assert_matches_reference(case)


def test_non_finite_addend_raises_like_an_application():
    wild = FuncKernel(lambda r: math.inf if r > 2.0 else r, label="wild")
    T = KernelOperator(((wild, BuiltinKernel("abs")),))
    x = Vector((2.5, 1.0))
    frags = fragments(x)
    for rest in (False, True):
        got = outcome(T.on_fragments, frags, rest)
        assert got == outcome(ref.table, T, x, rest)
        assert got == ("error", "ValueError", "vector coordinates must be finite")
    for kind in ("join", "meet"):
        assert outcome(rk_eval, kind, T, x, T) == outcome(ref.rk_eval, kind, T, x, T)


def test_overflowing_candidate_raises_like_vector_arithmetic():
    # finite addends whose T(y) + S(x - y) or T(y) - T(x - y) overflows on
    # fragment (1, 0) only, so the meet itself stays finite
    huge = PwlKernel(((0.0, 0.0), (1.0, 1e308)))
    T = KernelOperator(((huge, huge.scaled(-1.0)),))
    S = KernelOperator(((ZERO_KERNEL, huge),))
    x = Vector((1.0, 1.0))
    for kind, other in (("join", S), ("meet", S), ("abs", None)):
        got = outcome(rk_eval, kind, T, x, other)
        assert got == outcome(ref.rk_eval, kind, T, x, other)
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
    assert got == outcome(ref.kernel_diff_nonneg, low, high)
    assert got == ("error", "ValueError", "breakpoints must be finite")


def test_self_pairs_are_ordered():
    rng = rng_for(7, "self-pairs")
    for _ in range(20):
        k = mixed_kernel(rng)
        # the same kernel, and an equal copy, which the check must not skip
        for twin in (k, type(k)(*k._asdict().values())):
            assert kernel_diff_nonneg(k, twin)
            assert ref.kernel_diff_nonneg(k, twin)


# -- kernel evaluations ---------------------------------------------------------


def test_kernel_evaluations_do_not_depend_on_fragment_count(calls):
    count_evaluations = calls(PwlKernel, "__call__")
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
