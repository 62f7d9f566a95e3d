"""The row-mask programs against the reference's 2^m mask program.

The library decides feasibility per (fragment, output row) and uses only the
empty mask and the singletons.  The reference program runs over all 2^m
coordinate masks: each seeded case runs every entry point against it through
the one driver of `strategies`, so every field of every result (value,
witness, feasible_count, stabilized_at) must agree exactly, including which
inputs fail to stabilize.  A last test takes the band past twelve rows, where
no mask enumeration would fit, against the masking oracle.
"""

import pytest
from hypothesis import given, settings

from strategies import assert_matches_reference, cases, seeded_case
from uryson.instances import positive_pwl, rng_for
from uryson.kernels import DEFAULT_TOL, ZERO_KERNEL
from uryson.lattice import Vector
from uryson.operators import KernelOperator
from uryson.projections import masking_oracle, project_band_set

TOL = DEFAULT_TOL
CASES = [(seed, 1 + seed % 5, 1 + seed // 5 % 4) for seed in range(40)]


@pytest.mark.parametrize("seed,m,n", CASES)
def test_row_masks_match_full_mask_enumeration(seed, m, n):
    assert_matches_reference(seeded_case(seed, m, n, "projection-masks"))


@settings(max_examples=35, deadline=None)
@given(cases(max_m=5, max_n=4))
def test_row_masks_match_full_mask_enumeration_hypothesis(case):
    assert_matches_reference(case)


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
