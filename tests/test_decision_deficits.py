"""Positivity and the operator order, decided once per operator, pair and tol.

`operator_is_positive` and `operator_leq` decide kernel by kernel (exact at
the breakpoints and end slopes of the pwl form, sampled on a fixed grid
otherwise) and an operator keeps each decision per tol.  Every case must give
the reference's bool, or its exception type and message, cold and cached, at
two tols in both orders; `reference` holds the plain checks with nothing
kept, short-circuiting at the first failing kernel or sample.  The one
intended difference: equal kernels that are infinite at the same grid samples
are ordered (the reference reads inf - inf = nan there).

The cache tests need no clock: they count kernel evaluations, and check that
a cache keeps no operator alive and stays out of ==, hash and repr.
"""

import gc
import math
import weakref

import pytest

import reference as ref
from strategies import fresh, outcome
from uryson.instances import rng_for
from uryson.kernels import (
    _SAMPLE_GRID,
    DEFAULT_TOL,
    BuiltinKernel,
    FuncKernel,
    PwlKernel,
    ZERO_KERNEL,
    kernel_diff_nonneg,
)
from uryson.operators import KernelOperator, operator_is_positive, operator_leq

TOLS = (0.0, 1e-12, DEFAULT_TOL, 1e-3, 1.0)
TOL_PAIRS = [pair for a, b in zip(TOLS, TOLS[1:]) for pair in ((a, b), (b, a))]


# -- inputs -------------------------------------------------------------------------

# values near every tol of TOLS, of both signs
LEVELS = (-0.5, -5e-4, -5e-10, -1e-13, 0.0, 1e-13, 5e-10, 0.25, 1.0)
XS = (-3.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def seeded_pwl(rng):
    xs = sorted({0.0, *rng.sample(XS, rng.randint(0, 3))})
    return PwlKernel(tuple((x, 0.0 if x == 0.0 else rng.choice(LEVELS)) for x in xs))


def seeded_kernel(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return seeded_pwl(rng)
    if kind == 1:
        name = rng.choice(("abs", "id", "relu", "clamp"))
        params = (rng.choice((-1.0, 0.0)), rng.choice((0.0, 2.0))) if name == "clamp" else ()
        return BuiltinKernel(name, rng.choice((1.0, -1e-10, -2.0, 0.5)), params)
    if kind == 2:
        return ZERO_KERNEL
    a, b = rng.choice(LEVELS), rng.choice(LEVELS)
    return FuncKernel(lambda r, a=a, b=b: a * r * r + b * abs(r), label="quad")


def at(value, where, base=abs):
    """A callable kernel equal to base except value at the samples in where."""
    return FuncKernel(lambda r: value if r in where else base(r), label=f"at({value})")


def raising(where, message="kernel blew up", base=abs):
    def fn(r):
        if r in where:
            raise ValueError(message)
        return base(r)

    return FuncKernel(fn, label="raising")


FIRST, MIDDLE, LAST = _SAMPLE_GRID[0], _SAMPLE_GRID[100], _SAMPLE_GRID[-1]
assert (FIRST, MIDDLE, LAST) == (-8.0, -3.0, 8.0)


def inf_beyond_7(r):
    return max(abs(r) - 7.0, 0.0) * 1e308 * 1e308


def planted_kernels():
    fails = {FIRST + 1.0}  # a sample of -5e-4, failing below tol 1e-3
    at_middle, at_last = raising({MIDDLE}).fn, raising({LAST}).fn
    return {
        "nan-first": at(math.nan, {FIRST}),
        "nan-middle": at(math.nan, {MIDDLE}),
        "nan-last": at(math.nan, {LAST}),
        "nan-after-failing": FuncKernel(
            lambda r: -5e-4 if r in fails else (math.nan if r == LAST else abs(r))
        ),
        "plus-inf": at(math.inf, {MIDDLE}),
        "minus-inf": at(-math.inf, {MIDDLE}),
        "raises-first": raising({FIRST}),
        "raises-before-failing": FuncKernel(lambda r: -5e-4 if r == LAST else at_middle(r)),
        "raises-after-failing": FuncKernel(lambda r: -5e-4 if r in fails else at_middle(r)),
        "raises-after-nan": FuncKernel(lambda r: math.nan if r == FIRST else at_last(r)),
        "infinite-far": FuncKernel(inf_beyond_7),
        "one-point": ZERO_KERNEL,
        "one-point-copy": PwlKernel(((0.0, 0.0),)),
        "slope-overflows-up": PwlKernel(((-1.0, 1.5e308), (-0.5, -1.5e308), (0.0, 0.0))),
        "slope-overflows-down": PwlKernel(((0.0, 0.0), (1e-10, 1e300))),
        "last-slope-overflows": PwlKernel(((0.0, 0.0), (0.5, 1.5e308), (1.0, -1.5e308))),
        "huge": PwlKernel(((0.0, 0.0), (1.0, 1.5e308))),
        "huge-negative": PwlKernel(((0.0, 0.0), (1.0, -1.5e308))),
        "to-pwl-overflows": BuiltinKernel("clamp", 1e200, (-1e200, 1e200)),
        "tiny-negative": PwlKernel(((-1.0, -5e-10), (0.0, 0.0), (1.0, 0.0))),
        "abs": BuiltinKernel("abs"),
        "abs-callable": FuncKernel(abs, label="abs"),
    }


PLANTED = planted_kernels()
# equal but distinct objects: the same data, built again
TWINS = planted_kernels()
# kernels whose verdict depends on tol, or that end a check early: placed
# before another kernel, they decide whether it is reached
LEADING = (
    "nan-middle", "minus-inf", "raises-first", "raises-after-failing",
    "tiny-negative", "to-pwl-overflows", "slope-overflows-down", "abs",
)
# equal kernels infinite at the same samples: the one intended difference
INFINITE_TWINS = ("plus-inf", "minus-inf", "infinite-far")


def infinite_twins(low, high):
    return any(low is PLANTED[n] and high is TWINS[n] for n in INFINITE_TWINS)


def planted_operators():
    """One-kernel operators, then each leading kernel followed by any kernel."""
    ops = [KernelOperator(((k,),)) for k in PLANTED.values()]
    for a in LEADING:
        ops += [KernelOperator(((PLANTED[a], k),)) for k in PLANTED.values()]
        ops += [KernelOperator(((PLANTED[a],), (k,))) for k in TWINS.values()]
    return ops


def planted_pairs():
    """Ordered pairs of one-kernel operators, then of two-kernel operators
    whose first pair is a leading kernel below itself, its twin or abs."""
    pairs = []
    for low in PLANTED.values():
        for high in [*PLANTED.values(), *TWINS.values()]:
            if not infinite_twins(low, high):
                pairs.append((KernelOperator(((low,),)), KernelOperator(((high,),))))
    for a in LEADING:
        # the same kernel, its twin, or abs above the leading kernel
        for lead in (PLANTED[a], TWINS[a], PLANTED["abs"]):
            for name, low in PLANTED.items():
                if not (infinite_twins(PLANTED[a], lead) or infinite_twins(low, TWINS[name])):
                    S = KernelOperator(((PLANTED[a], low),))
                    T = KernelOperator(((lead, TWINS[name]),))
                    pairs.append((S, T))
    return pairs


def seeded_operators(count=120):
    rng = rng_for(13, "decision-deficits")
    out = []
    for _ in range(count):
        m, n = rng.randint(1, 2), rng.randint(1, 3)
        out.append(
            KernelOperator(tuple(tuple(seeded_kernel(rng) for _ in range(n)) for _ in range(m)))
        )
    return out


def assert_cold_and_cached(decide, reference, *ops):
    """decide(*ops, tol) agrees with the reference on fresh operators at
    each neighbouring pair of TOLS, in both orders: cold at both tols, then
    cached at both."""
    want = {tol: outcome(reference, *ops, tol) for tol in TOLS}
    for t1, t2 in TOL_PAIRS:
        fresh_ops = [fresh(op) for op in ops]
        for tol in (t1, t2, t1, t2):
            assert outcome(decide, *fresh_ops, tol) == want[tol], (ops, tol)


# -- differential tests -------------------------------------------------------------


def test_points_deficit_matches_reference():
    rng = rng_for(13, "points")
    cases = [
        [(0.0, 0.0)],
        [(-1.0, 1.5e308), (-0.5, -1.5e308), (0.0, 0.0)],
        [(0.0, 0.0), (1e-10, 1e300)],
        [(-2.0, -5e-10), (0.0, 0.0)],
    ]
    cases += [list(seeded_pwl(rng).points) for _ in range(200)]
    for pts in cases:
        for tol in TOLS:
            assert PwlKernel(pts).nonneg_everywhere(tol) == ref.points_nonneg(pts, tol)


@pytest.mark.parametrize("name", list(PLANTED))
def test_planted_kernel_positivity_matches_reference(name):
    k = PLANTED[name]
    for tol in TOLS:
        assert outcome(k.nonneg_everywhere, tol) == outcome(ref.nonneg_everywhere, k, tol)


def test_planted_kernel_order_matches_reference():
    differing = []
    for a, low in PLANTED.items():
        for b, high in [*PLANTED.items(), *(("twin " + n, k) for n, k in TWINS.items())]:
            for tol in TOLS:
                got = outcome(kernel_diff_nonneg, low, high, tol)
                want = outcome(ref.kernel_diff_nonneg, low, high, tol)
                if got != want:
                    differing.append((a, b, tol, got, want))
    # the fix: equal infinite samples are a zero difference, not nan
    assert differing == [
        (a, "twin " + a, tol, ("ok", "True"), ("ok", "False"))
        for a in INFINITE_TWINS
        for tol in TOLS
    ]


def test_seeded_kernels_match_reference():
    rng = rng_for(13, "kernels")
    kernels = [seeded_kernel(rng) for _ in range(150)]
    for low, high in zip(kernels, kernels[1:] + kernels[:1]):
        for tol in TOLS:
            assert outcome(low.nonneg_everywhere, tol) == outcome(ref.nonneg_everywhere, low, tol)
            assert outcome(kernel_diff_nonneg, low, high, tol) == outcome(
                ref.kernel_diff_nonneg, low, high, tol
            )


def test_operator_positivity_matches_reference_cold_and_cached():
    for T in planted_operators() + seeded_operators():
        assert_cold_and_cached(operator_is_positive, ref.operator_is_positive, T)


def test_operator_order_matches_reference_cold_and_cached():
    seeded = seeded_operators()
    for S, T in planted_pairs() + list(zip(seeded, seeded[1:])):
        assert_cold_and_cached(operator_leq, ref.operator_leq, S, T)


def test_operator_order_of_an_operator_with_itself():
    for T in planted_operators()[:40] + seeded_operators(30):
        for t1, t2 in TOL_PAIRS:
            T2 = fresh(T)
            assert [operator_leq(T2, T2, t1), operator_leq(T2, T2, t2)] == [True, True]


def test_equal_infinite_operators_are_ordered():
    for name in INFINITE_TWINS:
        S = KernelOperator(((PLANTED[name], PLANTED["abs"]),))
        T = KernelOperator(((TWINS[name], PLANTED["abs"]),))
        for t1, t2 in TOL_PAIRS:
            T2 = fresh(T)
            assert [operator_leq(S, T2, t1), operator_leq(S, T2, t2)] == [True, True]
            assert not ref.operator_leq(S, T, t1)


def test_mismatched_shapes_raise_before_any_cache():
    S = KernelOperator(((ZERO_KERNEL, ZERO_KERNEL),))
    T = KernelOperator(((ZERO_KERNEL,),))
    for _ in range(2):
        assert outcome(operator_leq, S, T, DEFAULT_TOL) == (
            "error", "DimensionMismatch", "operators must share shape"
        )
    assert T._leq == {}


# -- the caches -----------------------------------------------------------------------


@pytest.fixture
def evaluations(calls):
    """run(fn, *args) -> the PwlKernel and FuncKernel calls fn made."""
    calls(FuncKernel, "__call__")
    return calls(PwlKernel, "__call__")


def cache_operands():
    rng = rng_for(13, "cache")
    pwl = [[seeded_pwl(rng) for _ in range(3)] for _ in range(2)]
    S = KernelOperator(pwl)
    T = KernelOperator([[k.scaled(2.0) for k in row] for row in pwl])
    F = KernelOperator(((FuncKernel(abs), BuiltinKernel("relu")),))
    G = KernelOperator(((FuncKernel(lambda r: 2.0 * abs(r)), BuiltinKernel("abs")),))
    return S, T, F, G


def test_second_decisions_evaluate_no_kernel(evaluations):
    S, T, F, G = cache_operands()
    for tol in TOLS:
        # a new tol is decided once, then kept
        assert evaluations(operator_is_positive, F, tol) == len(_SAMPLE_GRID)
        assert evaluations(operator_leq, S, T, tol) > 0
        # sampled callables, and relu and abs at their three breakpoints
        assert evaluations(operator_leq, F, G, tol) == 2 * len(_SAMPLE_GRID) + 6
        for seen in TOLS[: TOLS.index(tol) + 1]:
            assert evaluations(operator_is_positive, F, seen) == 0
            assert evaluations(operator_leq, S, T, seen) == 0
            assert evaluations(operator_leq, F, G, seen) == 0
    # the order is kept per ordered pair
    assert evaluations(operator_leq, T, S, 0.0) > 0


def test_first_decisions_stop_at_the_first_failing_kernel(evaluations):
    vee = PwlKernel(((-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)))
    zero = PwlKernel(((0.0, 0.0),))
    # low vee above high zero fails; the other pairs (and kernels) hold
    fails, holds = (vee, zero), (zero, vee)
    for pairs, calls in (([fails] + [holds] * 5, 6), ([holds] * 5 + [fails], 36)):
        S = KernelOperator(((low for low, _ in pairs),))
        T = KernelOperator(((high for _, high in pairs),))
        assert evaluations(operator_leq, S, T, DEFAULT_TOL) == calls
        assert not operator_leq(S, T, DEFAULT_TOL)
    # sampled: a callable below zero at the first sample fails there
    negative = FuncKernel(lambda r: -abs(r))
    above = FuncKernel(abs)
    S = KernelOperator(((above, BuiltinKernel("abs")),))
    T = KernelOperator(((FuncKernel(lambda r: 0.0 * r), vee),))
    assert evaluations(operator_leq, S, T, DEFAULT_TOL) == 2
    P = KernelOperator(((negative, above),))
    assert evaluations(operator_is_positive, P, DEFAULT_TOL) == 1


def test_raising_decisions_are_not_kept(evaluations):
    T = KernelOperator(((raising({LAST}),),))
    for _ in range(2):
        assert evaluations(outcome, operator_is_positive, T, 0.0) == len(_SAMPLE_GRID)
    assert T._positive == {}


def test_order_cache_keeps_no_operator_alive():
    S, T = KernelOperator(((BuiltinKernel("relu"),),)), KernelOperator(((BuiltinKernel("abs"),),))
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert operator_leq(S, T) and operator_leq(T, T) and operator_leq(S, T, 0.0)
        assert set(T._leq) == {(id(S), DEFAULT_TOL), (id(T), DEFAULT_TOL), (id(S), 0.0)}
        s_ref, t_ref = weakref.ref(S), weakref.ref(T)
        del S
        assert s_ref() is None
        assert set(t_ref()._leq) == {(id(t_ref()), DEFAULT_TOL)}
        del T
        assert t_ref() is None
    finally:
        if enabled:
            gc.enable()


def test_caches_stay_out_of_equality_hash_and_repr():
    for T in seeded_operators(20):
        S = fresh(T)
        operator_is_positive(T)
        operator_leq(S, T)
        operator_leq(T, T)
        cold = fresh(T)
        assert T._positive and T._leq
        assert (T == cold, hash(T) == hash(cold), repr(T) == repr(cold)) == (True, True, True)
