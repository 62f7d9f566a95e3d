"""The shared-table programs against the reference, and their operator
applications.

The library builds each fragment table once per call: the projection entry
points share T(y), S(y), S(x - y) (or phi(y), phi(x - y)) across their band,
complement and complement_alt programs, and the disjointness checks share one
meet table.  Each seeded case runs every entry point against
`reference` through the one driver of `strategies`, cold and with the tables
it kept.

A second test counts operator applications, which needs no clock.
"""

import pytest
from hypothesis import given, settings

from strategies import assert_matches_reference, cases, seeded_case
from uryson.calculus import check_disjoint_iff
from uryson.instances import disjoint_positive_pair, rng_for
from uryson.lattice import Vector, fragments
from uryson.operators import KernelOperator
from uryson.projections import project_band_set, project_principal

CASES = [(seed, 1 + seed % 5, 1 + seed // 5 % 4) for seed in range(40)]


@pytest.mark.parametrize("seed,m,n", CASES)
def test_shared_tables_match_references(seed, m, n):
    assert_matches_reference(seeded_case(seed, m, n, "shared-tables"))


@settings(max_examples=35, deadline=None)
@given(cases(max_m=5, max_n=4))
def test_shared_tables_match_references_hypothesis(case):
    assert_matches_reference(case)


def test_operator_applications_once_per_fragment(calls):
    applications = calls(KernelOperator, "__call__")
    # m = 4 output rows, |supp x| = 6: 64 fragments
    S, T = disjoint_positive_pair(rng_for(4, "applications"), 4, 6)
    x = Vector((1.0, -0.5, 1.5, 2.5, -1.0, 0.5))
    assert len(fragments(x)) == 64
    # the fragment rows come from addend tables, so only S(x) and T(x) are
    # applications: one band program, the principal's three programs, and
    # the disjoint probe's meet table
    assert applications(project_band_set, (S,), T, x) == 2
    assert applications(project_principal, S, T, x) == 2
    assert applications(check_disjoint_iff, S, T, [x], 1.0) == 2
    assert check_disjoint_iff(S, T, [x], 1.0)["all_disjoint"]
