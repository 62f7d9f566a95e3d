"""One fragment table for the calculus.

`rk_eval`, `disjoint_witness` and `check_disjoint_iff` all read
`calculus._Table`; the disjointness checks read its "meet" table of T(y) and
S(x - y).  The reference below is the earlier meet table that the two checks
read on their own, kept here only as an oracle: the checks run once on the
library table and once with the reference swapped in, and must agree by
repr, errors included (the sign of a zero counts).  Cases cover tol 0, 1e-9
and 0.25, probes with 0.0, -0.0 and coordinates in (0, tol], a model whose
rows overflow in fsum, and T(y) + S(x - y) sums that overflow only once they
are combined.

A last test counts `on_fragments` calls per entry point, which needs no
clock, so that a second table per call shows.
"""

import operator
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import OVERFLOW_MODEL
from uryson import calculus
from uryson.calculus import RK_KINDS, check_disjoint_iff, disjoint_witness, rk_eval
from uryson.dsl import build_operator, parse_model
from uryson.instances import disjoint_positive_pair, perturbed_pair, rng_for
from uryson.kernels import ZERO_KERNEL, PwlKernel
from uryson.lattice import Vector, first_extremum, fragments
from uryson.operators import KernelOperator

TOLS = (0.0, 1e-9, 0.25)
# grid points, exact zeros of both signs, and coordinates in (0, tol] for
# each tol above: outside the support, but still part of x - y
PROBE_GRID = (0.0, -0.0, 5e-10, 1e-9, 0.2, 0.25, -2.0, -0.5, 0.5, 1.0, 2.5)
# positive, and 1e308 at +-1: one such entry takes on_fragments to its
# application fallback, and two of them overflow T(y) + S(x - y)
HUGE = PwlKernel(((-1.0, 1e308), (0.0, 0.0), (1.0, 1e308)))


class RefMeetTable:
    """The meet table the disjointness checks read before `_Table`:
    tys[i][k] = T(y_k)_i and sxy[i][k] = S(x - y_k)_i over the fragments y_k
    of x, the pointwise meet min_y (T(y) + S(x - y)), and per output row the
    first fragment (lowest bitmask) attaining it."""

    def __init__(self, S, T, x, cap_support, tol):
        self.frags = fragments(x, cap=cap_support, tol=tol)
        self.tys = T.on_fragments(x, self.frags)
        self.sxy = S.on_fragments(x, self.frags, rest=True)
        sums = [list(map(operator.add, t_row, s_row)) for t_row, s_row in zip(self.tys, self.sxy)]
        self.meet, first = zip(*(first_extremum(row, False) for row in sums))
        # (fragment index, rows whose first minimizer it is), ascending
        self.groups = [(k, [i for i, c in enumerate(first) if c == k]) for k in sorted(set(first))]


def ref_table(kind, T, x, S, cap_support, tol):
    """RefMeetTable under the names `_Table` gives its fields."""
    assert kind == "meet"
    ref = RefMeetTable(S, T, x, cap_support, tol)
    return SimpleNamespace(
        frags=ref.frags, tys=ref.tys, second=ref.sxy, best=ref.meet, groups=ref.groups
    )


def outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # compared by class and message
        return f"{type(exc).__name__}: {exc}"


def assert_same_as_reference(S, T, x, tol):
    u = Vector.ones(T.m)
    calls = [
        (disjoint_witness, (S, T, x, 0.5, u)),
        (disjoint_witness, (T, S, x, 0.5, u)),
        *((check_disjoint_iff, (S, T, [x, x.scale(0.5)], 0.5, steps)) for steps in (1, 5, 20)),
    ]
    for fn, args in calls:
        got = outcome(fn, *args, tol=tol)
        with mock.patch.object(calculus, "_Table", ref_table):
            want = outcome(fn, *args, tol=tol)
        assert got == want


def seeded_case(seed, m, n):
    rng = rng_for(seed, "calculus-table")
    pair = disjoint_positive_pair if seed % 2 else perturbed_pair
    S, T = pair(rng, m, n)
    x = Vector(tuple(rng.choice(PROBE_GRID) for _ in range(n)))
    return S, T, x


CASES = [(seed, 1 + seed % 3, 1 + seed // 3 % 5) for seed in range(30)]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("seed,m,n", CASES)
def test_meet_table_matches_reference(seed, m, n, tol):
    assert_same_as_reference(*seeded_case(seed, m, n), tol)


@st.composite
def table_cases(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    S, T, _ = seeded_case(draw(st.integers(0, 2**20)), m, n)
    if draw(st.booleans()):
        # a huge kernel on one cell of each operator: on_fragments applies
        # the operator, and combined sums may overflow
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        S, T = (
            KernelOperator(tuple(
                tuple(HUGE if (r, c) == (i, (j + shift) % n) else k for c, k in enumerate(row))
                for r, row in enumerate(op.kernels)
            ))
            for shift, op in ((0, S), (1, T))
        )
    x = Vector(tuple(draw(st.sampled_from(PROBE_GRID)) for _ in range(n)))
    return S, T, x, draw(st.sampled_from(TOLS))


@settings(max_examples=100, deadline=None)
@given(table_cases())
def test_meet_table_matches_reference_hypothesis(case):
    assert_same_as_reference(*case)


@pytest.mark.parametrize("tol", TOLS)
def test_overflow_model_matches_reference(tol):
    model = parse_model(OVERFLOW_MODEL)
    S, T = build_operator(model, "S"), build_operator(model, "T")
    assert_same_as_reference(S, T, model.probe("x"), tol)


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
    assert_same_as_reference(S, T, x, tol)
    assert_same_as_reference(T, S, x, tol)


# -- on_fragments calls ---------------------------------------------------------


@pytest.fixture
def table_reads(monkeypatch):
    count = [0]
    original = KernelOperator.on_fragments

    def counted(self, *args, **kwargs):
        count[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(KernelOperator, "on_fragments", counted)

    def run(fn, *args):
        count[0] = 0
        fn(*args)
        return count[0]

    return run


def test_one_table_per_entry_point(table_reads):
    rng = rng_for(5, "table-reads")
    S, T = disjoint_positive_pair(rng, 3, 4)
    x = Vector((1.0, -0.5, 1.5, 2.5))
    for kind in RK_KINDS:
        other = S if kind in ("join", "meet") else None
        assert table_reads(rk_eval, kind, T, x, other) == (1 if kind in ("pos", "neg") else 2)
    assert table_reads(disjoint_witness, S, T, x, 0.5, Vector.ones(3)) == 2
    for probes in (1, 3):
        assert table_reads(check_disjoint_iff, S, T, [x] * probes, 0.5) == 2 * probes
