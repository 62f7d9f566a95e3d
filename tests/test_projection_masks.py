"""Differential check of the projection programs against the full mask program.

The library decides feasibility per (fragment, output row) and uses only the
empty mask and the singletons.  The reference below is the program over all
2^m coordinate masks, kept here only as an oracle: every field of every
result (value, witness, feasible_count, stabilized_at) must agree exactly,
including which inputs fail to stabilize.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uryson.errors import NoStabilization
from uryson.instances import (
    disjoint_positive_pair,
    perturbed_pair,
    positive_pwl,
    rng_for,
)
from uryson.kernels import DEFAULT_TOL, ZERO_KERNEL
from uryson.lattice import Vector, all_masks, fragments, principal_mask
from uryson.operators import KernelOperator, operator_add
from uryson.projections import (
    EpsSchedule,
    PrincipalProjection,
    ProjectionResult,
    band_set_profile,
    masking_oracle,
    project_band_set,
    project_band_set_complement,
    project_principal,
)

TOL = DEFAULT_TOL
SCHEDULES = (EpsSchedule(), EpsSchedule(1.0, 0.5, 3))
# probe coordinates: grid points, with zeros so that supports vary
PROBE_GRID = (0.0, 0.0, -2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.5)


# -- reference: the full 2^m mask program -------------------------------------


class FullMaskProgram:
    def __init__(self, S, T, x, sense, masks, frags):
        self.sense = sense
        self.masks = masks
        self.frags = frags
        self.sx = S(x)
        self.tx = T(x)
        self.cons = [S(x - y) if sense == "band" else S(y) for y in frags]
        self.tys = [T(y) for y in frags]
        self.m = T.m

    def feasible(self, eps):
        """Feasible (fragment, mask) pairs at eps; eps None is the limit."""
        return frozenset(
            (yi, mi)
            for yi, c in enumerate(self.cons)
            for mi, mask in enumerate(self.masks)
            if all(
                c.coords[i] <= (TOL if eps is None else eps * self.sx.coords[i] + TOL)
                for i in mask.indices()
            )
        )

    def value_on(self, feas):
        minimize = self.sense == "band"
        vals = [math.inf if minimize else -math.inf] * self.m
        wit = [None] * self.m
        for yi, mi in sorted(feas):
            mask = self.masks[mi]
            for i in range(self.m):
                if mask.bits[i]:
                    v = self.tys[yi].coords[i]
                else:
                    v = self.tx.coords[i] if minimize else 0.0
                if (v < vals[i]) if minimize else (v > vals[i]):
                    vals[i] = v
                    wit[i] = (self.frags[yi], mask)
        counts = [sum(1 for c in self.cons if c.coords[i] <= TOL) for i in range(self.m)]
        return vals, wit, counts

    def run(self, sched):
        limit = self.feasible(None)
        for eps in sched.values():
            if self.feasible(eps) == limit:
                vals, wit, counts = self.value_on(limit)
                return ProjectionResult(
                    Vector(tuple(vals)), eps, tuple(counts), tuple(wit)
                )
        raise NoStabilization("reference did not stabilize")


def ref_project_set(sense, A, T, x, sched):
    frags = fragments(x, tol=TOL)
    runs = [
        FullMaskProgram(S, T, x, sense, all_masks(T.m), frags).run(sched) for S in A
    ]
    best = runs[0]
    vals, wit, counts = list(best.value.coords), list(best.witness), list(best.feasible_count)
    for r in runs[1:]:
        for i in range(T.m):
            v = r.value.coords[i]
            if (v > vals[i]) if sense == "band" else (v < vals[i]):
                vals[i], wit[i], counts[i] = v, r.witness[i], r.feasible_count[i]
    return ProjectionResult(
        Vector(tuple(vals)),
        min(r.stabilized_at for r in runs),
        tuple(counts),
        tuple(wit),
    )


def ref_principal(S, T, x, sched):
    band = ref_project_set("band", (S,), T, x, sched)
    complement = ref_project_set("complement", (S,), T, x, sched)
    rho = principal_mask(S(x), TOL)
    sub_masks = [mk for mk in all_masks(T.m) if mk.leq(rho)]
    inside = FullMaskProgram(
        S, T, x, "complement", sub_masks, fragments(x, tol=TOL)
    ).run(sched)
    alt = ProjectionResult(
        rho.complement().apply(T(x)) + inside.value,
        inside.stabilized_at,
        inside.feasible_count,
        inside.witness,
    )
    return PrincipalProjection(band, complement, alt)


def ref_profile(S, T, x, sched, sense):
    prog = FullMaskProgram(S, T, x, sense, all_masks(T.m), fragments(x, tol=TOL))
    return [
        (eps, Vector(tuple(prog.value_on(prog.feasible(eps))[0])))
        for eps in sched.values()
    ]


# -- comparison ---------------------------------------------------------------


def outcome(fn, *args):
    try:
        return fn(*args)
    except NoStabilization:
        return NoStabilization


def assert_same_as_full_masks(S1, S2, T, x, sched):
    A = (S1, operator_add(S1, S2))
    for sense, lib in (
        ("band", project_band_set),
        ("complement", project_band_set_complement),
    ):
        for members in ((S1,), A):
            assert outcome(lib, members, T, x, sched) == outcome(
                ref_project_set, sense, members, T, x, sched
            )
        assert band_set_profile(S1, T, x, sched, sense) == ref_profile(
            S1, T, x, sched, sense
        )
    assert outcome(project_principal, S1, T, x, sched) == outcome(
        ref_principal, S1, T, x, sched
    )


def seeded_case(seed, m, n):
    rng = rng_for(seed, "projection-masks")
    make_pair = disjoint_positive_pair if seed % 2 else perturbed_pair
    S1, T = make_pair(rng, m, n)
    S2, _ = make_pair(rng, m, n)
    x = Vector(tuple(rng.choice(PROBE_GRID) for _ in range(n)))
    return S1, S2, T, x


CASES = [(seed, 1 + seed % 5, 1 + seed // 5 % 4) for seed in range(40)]


@pytest.mark.parametrize("seed,m,n", CASES)
def test_row_masks_match_full_mask_enumeration(seed, m, n):
    S1, S2, T, x = seeded_case(seed, m, n)
    for sched in SCHEDULES:
        assert_same_as_full_masks(S1, S2, T, x, sched)


@st.composite
def projection_cases(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    S1, S2, T, _ = seeded_case(draw(st.integers(0, 2**20)), m, n)
    x = Vector(tuple(draw(st.sampled_from(PROBE_GRID)) for _ in range(n)))
    return S1, S2, T, x, draw(st.sampled_from(SCHEDULES))


@settings(max_examples=40, deadline=None)
@given(projection_cases())
def test_row_masks_match_full_mask_enumeration_hypothesis(case):
    assert_same_as_full_masks(*case)


def test_band_beyond_twelve_rows_matches_masking_oracle():
    m, n = 13, 4
    rng = rng_for(13, "tall-band")
    S = KernelOperator(
        tuple(
            tuple(positive_pwl(rng) if rng.random() < 0.5 else ZERO_KERNEL for _ in range(n))
            for _ in range(m)
        )
    )
    T = KernelOperator(tuple(tuple(positive_pwl(rng) for _ in range(n)) for _ in range(m)))
    x = Vector((1.5, -0.75, 0.0, 2.0))
    assert len(x.support(TOL)) == 3
    band = project_band_set((S,), T, x)
    assert band.value != T(x)
    assert band.value.isclose(masking_oracle(S, T, x), 1e-7)
    assert all(mask.bitmask() & (mask.bitmask() - 1) == 0 for _, mask in band.witness)
