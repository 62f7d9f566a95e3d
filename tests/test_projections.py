"""Band projections by epsilon-stabilized feasibility programs.

The frozen values below were derived by hand: the generating operator's
kernels decide, addend by addend, which parts of the target survive, and the
masking oracle recomputes the same values by zeroing dead addends directly.
"""

import math

import pytest

import reference as ref
from strategies import outcome
from uryson.errors import (
    DimensionMismatch,
    NoStabilization,
    NotIncreasing,
    NotPositive,
)
from uryson.instances import disjoint_positive_pair, positive_operator, random_operator, rng_for
from uryson.kernels import BuiltinKernel, FuncKernel, PwlKernel, ZERO_KERNEL
from uryson.lattice import Vector, vec
from uryson.operators import KernelOperator, operator_add, rank_one
from uryson.projections import (
    EpsSchedule,
    _checked_set,
    band_set_profile,
    masking_oracle,
    project_band_set,
    project_band_set_complement,
    project_functional,
    project_principal,
    project_rank_one,
)

ABS = BuiltinKernel("abs")
HALF = BuiltinKernel("abs", scale=0.5)
HAT = PwlKernel(((-2.0, 2.0), (-1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (3.0, 2.0)))
GAP = PwlKernel(((-2.0, 1.0), (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 1.0)))

T_DEMO = KernelOperator(((ABS, HALF), (HAT, ABS)))
S_DEMO = KernelOperator(((HALF, ZERO_KERNEL), (ZERO_KERNEL, HAT)))
X1 = vec(1.0, -2.0)


def test_eps_schedule_values():
    s = EpsSchedule(1.0, 0.5, 4)
    assert list(s.values()) == [1.0, 0.5, 0.25, 0.125]
    with pytest.raises(ValueError):
        EpsSchedule(0.0, 0.5, 4)
    with pytest.raises(ValueError):
        EpsSchedule(1.0, 1.5, 4)
    with pytest.raises(ValueError):
        EpsSchedule(1.0, 0.5, 0)
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        EpsSchedule(max_steps=0)
    with pytest.raises(ValueError, match="eps0 must be positive"):
        EpsSchedule(eps0=-math.inf)
    for eps0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eps0 must be finite"):
            EpsSchedule(eps0=eps0)
    for steps in (2.5, math.nan):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            EpsSchedule(max_steps=steps)


def test_increasing_set_validation():
    # a generating set is decided by the projections themselves
    T = KernelOperator(((ABS, ABS),))
    x = vec(1.0, -2.0)
    with pytest.raises(NotPositive, match="positive"):
        project_band_set((KernelOperator(((BuiltinKernel("id"), ZERO_KERNEL),)),), T, x)
    disjoint_a = KernelOperator(((ABS, ZERO_KERNEL),))
    disjoint_b = KernelOperator(((ZERO_KERNEL, ABS),))
    with pytest.raises(NotIncreasing, match="upper bound"):
        project_band_set((disjoint_a, disjoint_b), T, x)
    chain = project_band_set((disjoint_a, operator_add(disjoint_a, disjoint_b)), T, x)
    assert chain.value == vec(3.0)


# one row each; LEFT and RIGHT are disjoint, BOTH bounds them, ID_ROW is not
# positive, and DIP dips to -0.1 at 0.5 (positive within 0.25, not within 1e-9)
LEFT = KernelOperator(((ABS, ZERO_KERNEL),))
RIGHT = KernelOperator(((ZERO_KERNEL, ABS),))
BOTH = operator_add(LEFT, RIGHT)
ID_ROW = KernelOperator(((BuiltinKernel("id"), ZERO_KERNEL),))
DIP_KERNEL = PwlKernel(((-1.0, 1.0), (0.0, 0.0), (0.5, -0.1), (1.0, 1.0)))
DIP = KernelOperator(((DIP_KERNEL, ZERO_KERNEL),))
T_ROW = KernelOperator(((ABS, HALF),))
NOT_POSITIVE = "NotPositive('increasing set members must be positive')"

# case -> (A, T, x, tol, band outcome, complement outcome); an outcome is the
# repr of the value or of the exception raised
GENERATING_SETS = {
    "empty": ((), T_ROW, X1, 1e-9, *["ValueError('increasing set must be nonempty')"] * 2),
    "two_shapes": (
        (LEFT, S_DEMO), T_ROW, X1, 1e-9,
        *["DimensionMismatch('increasing set members must share shape')"] * 2,
    ),
    "non_positive_first": ((ID_ROW, S_DEMO), T_ROW, X1, 1e-9, NOT_POSITIVE, NOT_POSITIVE),
    "no_upper_bound": (
        (LEFT, RIGHT), T_ROW, X1, 1e-9,
        *["NotIncreasing('no internal upper bound for a pair of members')"] * 2,
    ),
    "chain": ((LEFT, BOTH), T_ROW, X1, 1e-9, repr(vec(2.0)), repr(vec(0.0))),
    "T_not_positive": (
        (LEFT,), ID_ROW, X1, 1e-9, *["NotPositive('operator T must be positive')"] * 2,
    ),
    "probe_dim": (
        (LEFT,), T_ROW, vec(1.0), 1e-9,
        *["DimensionMismatch('operator expects dim 2, got 1')"] * 2,
    ),
    "dip_at_1e-9": ((DIP,), T_ROW, X1, 1e-9, NOT_POSITIVE, NOT_POSITIVE),
    "dip_at_0.25": ((DIP,), T_ROW, X1, 0.25, repr(vec(1.0)), repr(vec(1.0))),
}


def _outcome(run) -> str:
    try:
        return repr(run())
    except Exception as exc:  # the refusal is the outcome compared
        return repr(exc)


@pytest.mark.parametrize("case", GENERATING_SETS)
def test_generating_sets_are_refused_in_order(case):
    A, T, x, tol, band, complement = GENERATING_SETS[case]
    runs = [
        (lambda: project_band_set(A, T, x, tol=tol).value, band),
        (lambda: project_band_set_complement(A, T, x, tol=tol).value, complement),
    ]
    if len(A) == 1:
        # the principal band of S is the band of {S}, decided the same way
        runs += [
            (lambda: project_principal(A[0], T, x, tol=tol).band.value, band),
            (lambda: project_principal(A[0], T, x, tol=tol).complement.value, complement),
        ]
    for run, expected in runs:
        assert _outcome(run) == expected


def test_principal_projection_hand_case():
    # S row 1 is alive only in the first column, row 2 only in the second:
    # the band keeps |1| = 1 and |-2| = 2, the complement gets the rest
    pp = project_principal(S_DEMO, T_DEMO, X1)
    assert pp.band.value.coords == (1.0, 2.0)
    assert pp.complement.value.coords == (1.0, 1.0)
    assert pp.complement_alt.value.coords == (1.0, 1.0)
    assert pp.band.stabilized_at == 0.5
    assert (pp.band.value + pp.complement.value).isclose(T_DEMO(X1))


def test_masking_oracle_matches_band():
    assert masking_oracle(S_DEMO, T_DEMO, X1).coords == (1.0, 2.0)


def test_projection_witness_shapes():
    res = project_band_set((S_DEMO,), T_DEMO, X1)
    assert len(res.witness) == T_DEMO.m
    for frag, mask in res.witness:
        assert frag.dim == T_DEMO.n
        assert mask.dim == T_DEMO.m
    assert len(res.feasible_count) == T_DEMO.m


def test_projection_onto_own_band_is_identity():
    res = project_band_set((T_DEMO,), T_DEMO, X1)
    assert res.value.isclose(T_DEMO(X1))
    comp = project_band_set_complement((T_DEMO,), T_DEMO, X1)
    assert comp.value.isclose(Vector.zero(2))


def test_projection_of_disjoint_operator_vanishes():
    D = KernelOperator(((ZERO_KERNEL, HAT), (HAT, ZERO_KERNEL)))
    res = project_band_set((S_DEMO,), D, X1)
    assert res.value.isclose(Vector.zero(2))
    comp = project_band_set_complement((S_DEMO,), D, X1)
    assert comp.value.isclose(D(X1))


def test_two_member_chain():
    SD = operator_add(
        S_DEMO, KernelOperator(((ZERO_KERNEL, HAT), (HAT, ZERO_KERNEL)))
    )
    res = project_band_set((S_DEMO, SD), T_DEMO, X1)
    assert res.value.isclose(T_DEMO(X1))
    comp = project_band_set_complement((S_DEMO, SD), T_DEMO, X1)
    assert comp.value.isclose(Vector.zero(2))


def test_band_and_complement_decompose():
    for T in (T_DEMO, KernelOperator(((HAT, HAT), (ABS, HALF)))):
        band = project_band_set((S_DEMO,), T, X1).value
        comp = project_band_set_complement((S_DEMO,), T, X1).value
        assert (band + comp).isclose(T(X1))


def test_band_monotone_in_target():
    small = KernelOperator(((HALF, ZERO_KERNEL), (ZERO_KERNEL, HALF)))
    big = KernelOperator(((ABS, HALF), (HAT, ABS)))
    b_small = project_band_set((S_DEMO,), small, X1).value
    b_big = project_band_set((S_DEMO,), big, X1).value
    assert b_small.leq(b_big)


def test_band_set_profile_is_monotone():
    profile = band_set_profile(S_DEMO, T_DEMO, X1)
    values = [v for _, v in profile]
    # looser eps admits more fragments, so the inner minimum starts lower
    # and climbs toward the stabilized band value
    for earlier, later in zip(values, values[1:]):
        assert earlier.leq(later)
    eps_list = [e for e, _ in profile]
    assert eps_list == sorted(eps_list, reverse=True)
    assert values[-1].coords == (1.0, 2.0)


def test_no_stabilization_when_schedule_too_short():
    # one addend of S(x - y) lands just above tol, so it stays feasible
    # against eps * S(x) long after the limit set has excluded it
    s_big = PwlKernel(((-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)))
    s_tiny = PwlKernel(((-1.0, 2e-9), (0.0, 0.0), (1.0, 2e-9)))
    S = KernelOperator(((s_big, s_tiny),))
    T = KernelOperator(((s_big, s_big),))
    x = vec(1.0, 1.0)
    with pytest.raises(NoStabilization, match="after 5 steps"):
        project_band_set((S,), T, x, EpsSchedule(max_steps=5))
    res = project_band_set((S,), T, x, EpsSchedule(max_steps=40))
    assert res.value.coords == (2.0,)
    assert res.stabilized_at < 1e-8


def test_shape_checks():
    with pytest.raises(DimensionMismatch, match="shape"):
        project_band_set((KernelOperator(((ABS,),)),), T_DEMO, X1)
    with pytest.raises(DimensionMismatch):
        project_band_set((S_DEMO,), T_DEMO, vec(1.0))


def test_rank_one_projection_full_and_masked():
    phi = KernelOperator(((ABS, ABS),))
    res = project_rank_one(phi, vec(1.0, 2.0), T_DEMO, X1)
    assert res.band.coords == (2.0, 3.0)
    assert res.complement.coords == (0.0, 0.0)
    # u = (1, 0): only the first output coordinate lies in the band
    masked = project_rank_one(phi, vec(1.0, 0.0), T_DEMO, X1)
    assert masked.band.coords == (2.0, 0.0)
    assert masked.complement.coords == (0.0, 3.0)
    assert (masked.band + masked.complement).isclose(T_DEMO(X1))


def test_rank_one_projection_dead_factor():
    # phi vanishes on [-1, 1], so at a probe inside that box the band is zero
    phi = KernelOperator(((GAP, GAP),))
    x = vec(0.5, 0.0)
    res = project_rank_one(phi, vec(1.0, 1.0), T_DEMO, x)
    assert res.band.coords == (0.0, 0.0)
    assert res.complement.isclose(T_DEMO(x))


def test_rank_one_matches_principal_route():
    phi = KernelOperator(((ABS, ABS),))
    u = vec(1.0, 2.0)
    R = rank_one(phi, u)
    rr = project_rank_one(phi, u, T_DEMO, X1)
    pp = project_principal(R, T_DEMO, X1)
    assert rr.band.isclose(pp.band.value)
    assert rr.complement.isclose(pp.complement.value)


def test_functional_projection_hand_cases():
    # phi(r) = max(|r| - 1, 0) vanishes on [-1, 1]; T(r) = |r|
    phi = KernelOperator(((GAP,),))
    T = KernelOperator(((ABS,),))
    assert project_functional(phi, T, vec(0.5)) == 0.0
    assert project_functional(phi, T, vec(2.0)) == 2.0


def test_functional_projection_signed_target():
    phi = KernelOperator(((GAP,),))
    T = KernelOperator(((BuiltinKernel("id"),),))
    assert project_functional(phi, T, vec(-2.0)) == -2.0


def test_functional_projection_rejects_a_part_not_decided_positive():
    # the kernel is nan for r < -1, so neither T nor its kernelwise positive
    # part is decided positive: T is split once, and T+ is rejected
    nan_kernel = FuncKernel(lambda r: math.nan if r < -1.0 else abs(r))
    T = KernelOperator(((nan_kernel, ABS),))
    phi = KernelOperator(((ABS, ABS),))
    with pytest.raises(NotPositive, match="operator T\\+ must be positive"):
        project_functional(phi, T, vec(1.0, 1.0))


def test_functional_projection_requires_functionals():
    phi = KernelOperator(((GAP,),))
    with pytest.raises(DimensionMismatch):
        project_functional(phi, T_DEMO, X1)


# phi weighs the first coordinate by 10, and the probe's first coordinate lies
# in (0, tol]: fragments drop it, so phi(x - y) > tol for every fragment y and
# the eps -> 0 limit set is empty; the value is then T(x) itself
K10 = PwlKernel(((-1.0, 10.0), (0.0, 0.0), (1.0, 10.0)))
PHI_TINY = KernelOperator(((K10, ABS),))
T_TINY = KernelOperator(((ABS, ABS),))
X_TINY = vec(1e-9, 0.5)


def test_functional_projection_with_empty_limit_set():
    assert project_functional(PHI_TINY, T_TINY, X_TINY) == 0.500000001
    assert project_functional(PHI_TINY, T_TINY, X_TINY) == T_TINY(X_TINY).coords[0]


def test_rank_one_with_empty_limit_set_matches_principal_route():
    u = vec(1.0)
    rr = project_rank_one(PHI_TINY, u, T_TINY, X_TINY)
    pp = project_principal(rank_one(PHI_TINY, u), T_TINY, X_TINY)
    assert rr.band == pp.band.value == T_TINY(X_TINY)
    assert rr.complement == pp.complement.value
    assert rr.band_stabilized_at == pp.band.stabilized_at
    assert rr.complement_stabilized_at == pp.complement.stabilized_at


def test_profile_shape_check():
    S = KernelOperator(((ABS, ABS),))
    with pytest.raises(DimensionMismatch, match="shape"):
        band_set_profile(S, T_DEMO, X1)
    with pytest.raises(DimensionMismatch):
        band_set_profile(S_DEMO, T_DEMO, vec(1.0))


def test_increasing_set_decides_at_the_callers_tol():
    # S dips to -0.1 at 0.5: positive within tol = 0.25, not within 1e-9
    S = KernelOperator(((PwlKernel(((-1.0, 1.0), (0.0, 0.0), (0.5, -0.1), (1.0, 1.0))),),))
    T = KernelOperator(((ABS,),))
    x = vec(1.0)
    # every entry point takes S as a generator at tol = 0.25 and refuses it
    # at the default tol
    calls = [
        lambda tol: project_band_set((S,), T, x, tol=tol).value,
        lambda tol: project_band_set([S], T, x, tol=tol).value,
        lambda tol: project_band_set_complement((S,), T, x, tol=tol).value,
        lambda tol: project_principal(S, T, x, tol=tol).band.value,
        lambda tol: project_rank_one(S, vec(1.0), T, x, tol=tol).band,
        lambda tol: project_functional(S, T, x, tol=tol),
        lambda tol: band_set_profile(S, T, x, tol=tol)[-1][1],
    ]
    with pytest.raises(NotPositive):
        project_band_set((S,), T, x)
    for call in calls:
        with pytest.raises(NotPositive):
            call(1e-9)
    band = [call(0.25) for call in calls]
    assert band[0] == band[1] == band[3] == band[4] == band[6] == vec(1.0)
    assert band[5] == 1.0 and band[2] == vec(0.0)
    # a set decided at one tol is decided again at the caller's
    for call in calls:
        with pytest.raises(NotPositive):
            call(1e-9)

def _scaled_abs_row(*scales):
    return KernelOperator((tuple(BuiltinKernel("abs", scale=c) for c in scales),))


# at tol 1.5 each of these is below the next, cyclically (slopes within tol),
# and each fails to lie below one member: every pair has an upper bound in
# the set, yet no member lies above all three
CYCLE = (_scaled_abs_row(0.0, 1.0, 2.0), _scaled_abs_row(2.0, 0.0, 1.0), _scaled_abs_row(1.0, 2.0, 0.0))


def _generating_set_cases():
    """(A, T, x, tol) on seeded 2x2 operators: sets of 1 to 4 members with
    duplicates, equal copies, a top member first, in the middle or last,
    non-directed sets, non-positive members and a shape mismatch."""
    x = vec(1.0, -0.5)
    yield CYCLE, _scaled_abs_row(1.0, 1.0, 1.0), vec(1.0, -0.5, 2.0), 1.5
    for seed in range(12):
        rng = rng_for(seed, "generating-sets")
        S, R = disjoint_positive_pair(rng, 2, 2)
        top = operator_add(S, R)
        copy = KernelOperator(S.kernels)  # == S, another object
        bad, wide = random_operator(rng, 2, 2), positive_operator(rng, 2, 3)
        T = positive_operator(rng, 2, 2)
        fixed = [
            (top,), (top, S, R), (S, top, R), (S, R, top), (S, R), (S, S), (S, copy),
            (copy, R, top, S), (S, bad, top), (bad,), (S, wide), (wide, top),
        ]
        pool = (S, R, top, copy, bad, wide)
        drawn = [tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))) for _ in range(6)]
        for A in fixed + drawn:
            for tol in (1e-9, 0.25):
                yield A, T, x, tol
        yield (S, top), bad, x, 1e-9
        yield (S, top), T, vec(1.0), 1e-9


def test_checked_set_matches_the_pairwise_reference():
    # the top-member search and its pairwise fallback give the verdict of
    # the pairwise search alone: the same tuple, or the same error
    verdicts = set()
    for A, T, x, tol in _generating_set_cases():
        got = outcome(_checked_set, A, T, x, tol)
        assert got == outcome(ref.checked_set, A, T, x, tol)
        verdicts.add(got[0] if got[0] == "ok" else got[1])
    assert verdicts == {"ok", "DimensionMismatch", "NotIncreasing", "NotPositive"}


def test_a_directed_set_without_a_top_member_is_accepted():
    T, x = _scaled_abs_row(1.0, 1.0, 1.0), vec(1.0, -0.5, 2.0)
    assert _checked_set(CYCLE, T, x, 1.5) == CYCLE
    with pytest.raises(NotIncreasing):
        _checked_set(CYCLE, T, x, 0.5)
