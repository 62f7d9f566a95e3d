"""One fragment table for the calculus, against the reference.

`rk_eval`, `disjoint_witness` and `check_disjoint_iff` all read
`calculus._Table`; the disjointness checks read its "meet" table of T(y) and
S(x - y).  Each case runs every entry point against `reference` through the
one driver of `strategies`, by repr, errors included (the sign of a zero
counts): the seeded cases at each tol 0, 1e-9 and 0.25, a model whose rows
overflow in fsum, and T(y) + S(x - y) sums that overflow only once they are
combined.

A last test counts `on_fragments` calls per entry point, which needs no
clock, so that a second table per call shows.
"""

import pytest
from hypothesis import given, settings

from strategies import HUGE, TOLS, assert_matches_reference, cases, pair_case, seeded_case
from test_cli import OVERFLOW_MODEL
from uryson.calculus import RK_KINDS, check_disjoint_iff, disjoint_witness, rk_eval
from uryson.dsl import build_operator, parse_model
from uryson.instances import disjoint_positive_pair, rng_for
from uryson.kernels import ZERO_KERNEL
from uryson.lattice import Vector
from uryson.operators import KernelOperator

CASES = [(seed, 1 + seed % 3, 1 + seed // 3 % 5) for seed in range(30)]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("seed,m,n", CASES)
def test_meet_table_matches_reference(seed, m, n, tol):
    assert_matches_reference(seeded_case(seed, m, n, "calculus-table")._replace(tol=tol))


@settings(max_examples=35, deadline=None)
@given(cases(max_m=3, max_n=5))
def test_meet_table_matches_reference_hypothesis(case):
    assert_matches_reference(case)


@pytest.mark.parametrize("tol", TOLS)
def test_overflow_model_matches_reference(tol):
    model = parse_model(OVERFLOW_MODEL)
    S, T = build_operator(model, "S"), build_operator(model, "T")
    assert_matches_reference(pair_case(S, T, model.probe("x"), tol))


@pytest.mark.parametrize("tol", TOLS)
def test_sums_overflowing_after_combination_match_reference(tol):
    # T(y) and S(x - y) are finite on every fragment, but both are 1e308 on
    # the fragment that keeps column 0 only; the meet is 0 elsewhere
    T = KernelOperator(((HUGE, ZERO_KERNEL),))
    S = KernelOperator(((ZERO_KERNEL, HUGE),))
    x = Vector((1.0, 1.0))
    with pytest.raises(ValueError, match="vector coordinates must be finite"):
        rk_eval("join", T, x, S)
    assert disjoint_witness(S, T, x, 0.5, Vector.ones(1)).frags.items == (Vector((0.0, 1.0)),)
    assert_matches_reference(pair_case(S, T, x, tol))
    assert_matches_reference(pair_case(T, S, x, tol))


# -- on_fragments calls ---------------------------------------------------------


def test_one_table_per_entry_point(calls):
    table_reads = calls(KernelOperator, "on_fragments")
    rng = rng_for(5, "table-reads")
    S, T = disjoint_positive_pair(rng, 3, 4)
    x = Vector((1.0, -0.5, 1.5, 2.5))
    for kind in RK_KINDS:
        other = S if kind in ("join", "meet") else None
        assert table_reads(rk_eval, kind, T, x, other) == (1 if kind in ("pos", "neg") else 2)
    assert table_reads(disjoint_witness, S, T, x, 0.5, Vector.ones(3)) == 2
    for probes in (1, 3):
        assert table_reads(check_disjoint_iff, S, T, [x] * probes, 0.5) == 2 * probes
