"""Index-only fragments and the two-scalar stabilization rule.

`lattice.fragments` returns fragment indices over the support columns and
builds a fragment Vector only when one is indexed, so the fragment programs
build Vectors only for the witnesses they return.  `_MemberProgram.run`
decides feasible(eps) == limit from the largest constraint inside the limit
set and the smallest outside it.  Both are checked against `reference`: its
Vector-per-fragment enumeration, and its program, which compares feasible
sets of (fragment, mask) pairs at every schedule eps.  The planted tables are
given to both programs; the given rows become the reference's allowed masks,
every mask within them.  Results and errors must agree by repr, including
rows whose bound is slightly negative and constraints planted exactly at
eps*bound + tol.  Tables are laid out as `on_fragments` returns them, one
list per output row; the reference reads one row per fragment.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from strategies import SCHEDULES, TOLS, outcome
from uryson import instances as inst
from uryson.calculus import check_disjoint_iff, disjoint_witness, rk_eval
from uryson.kernels import FuncKernel
from uryson.lattice import Vector, fragments
from uryson.operators import KernelOperator
from uryson.projections import (
    EpsSchedule,
    _MemberProgram,
    band_set_profile,
    project_band_set,
    project_band_set_complement,
    project_functional,
    project_principal,
    project_rank_one,
)

TOL = 1e-9


def assert_programs_agree(sense, rows, x, cons, bound, tys, tx, tol, sched):
    """run, feasible_count and the settled test of _MemberProgram on the
    tables (one list per output row) equal the reference program's."""
    prog = _MemberProgram(sense, rows, fragments(x, tol=tol), cons, bound, tys, tx, tol)
    want = ref.Program(
        sense, ref.fragments(x, tol=tol), ref.by_row(cons), bound, ref.by_row(tys), tx,
        ref.masks_within(len(tx), rows), tol,
    )
    assert outcome(prog.run, sched) == outcome(want.run, sched)
    assert prog.feasible_count == want.feasible_count
    for eps in sched.values():
        assert prog.settled(eps) == (want.feasible(eps) == want.limit)


# -- fragments -------------------------------------------------------------


def fragment_probes():
    rng = inst.rng_for(1, "index-fragments")
    xs = [inst.grid_vector(rng, rng.randint(1, 6)) for _ in range(30)]
    xs += [Vector((0.0, -0.0, 1e-10, 0.2, -3.0)), Vector((1.0,)), Vector((0.0, 0.0))]
    return xs


@pytest.mark.parametrize("tol", TOLS)
def test_fragments_match_vector_enumeration(tol):
    for x in fragment_probes():
        frags = fragments(x, tol=tol)
        want = ref.fragments(x, tol=tol)
        assert len(frags) == len(want)
        assert [y.coords for y in frags] == [y.coords for y in want]
        assert [frags[k] for k in range(len(frags))] == want
        assert frags[-1] == want[-1]
        for part in (slice(0, 2), slice(None, None, -1), slice(1, None, 3), slice(5, 2)):
            assert frags[part] == want[part]
        for cap in (0, len(x.support(tol)) - 1):
            got = outcome(lambda: list(fragments(x, cap, tol)))
            assert got == outcome(ref.fragments, x, cap, tol)


# -- Vector builds ---------------------------------------------------------


def test_vector_builds_do_not_grow_with_fragments(calls):
    vector_builds = calls(Vector, "__init__")
    rng = inst.rng_for(3, "vector-builds")
    m = 3
    S, T = inst.disjoint_positive_pair(rng, m, 8)
    W = inst.random_operator(rng, m, 8)
    phi, psi = inst.positive_operator(rng, 1, 8), inst.positive_operator(rng, 1, 8)
    u = Vector((1.0, 0.0, 2.0))
    half = Vector((1.0, 0.0, 1.5, 0.0, -1.0, 0.0, 2.0, 0.0))
    full = Vector((1.0, -0.5, 1.5, 2.5, -1.0, 0.5, 2.0, -1.5))
    assert (len(half.support()), len(full.support())) == (4, 8)
    programs = {
        "join": lambda x: rk_eval("join", T, x, S),
        "meet": lambda x: rk_eval("meet", T, x, S),
        "pos": lambda x: rk_eval("pos", W, x),
        "neg": lambda x: rk_eval("neg", W, x),
        "abs": lambda x: rk_eval("abs", W, x),
        "witness": lambda x: disjoint_witness(S, T, x, 0.5, Vector.ones(m)),
        "iff": lambda x: check_disjoint_iff(S, T, [x], 0.5),
        "band": lambda x: project_band_set((S,), T, x),
        "principal": lambda x: project_principal(S, T, x),
        "rank-one": lambda x: project_rank_one(phi, u, T, x),
        "functional": lambda x: project_functional(phi, psi, x),
    }
    for name, fn in programs.items():
        small, large = vector_builds(fn, half), vector_builds(fn, full)
        # one Vector per fragment would add 240 builds at |supp x| = 8
        assert small == large, name


# -- two-scalar stabilization ----------------------------------------------


def planted_tables(rng, m, x, sched, tol):
    """Constraint tables drawn from the thresholds eps*bound_i + tol of the
    schedule and their float neighbours, against bounds that include
    slightly negative ones; one list per output row, as on_fragments."""
    bound = tuple(
        rng.choice([1.0, 0.5, 0.0, -tol, -0.5 * x.dim * tol, 3.0, -1e-12]) for _ in range(m)
    )
    cands = [[tol, -tol, 0.0, 2.0 * tol, 10.0] for _ in range(m)]
    for i in range(m):
        for eps in sched.values():
            t = eps * bound[i] + tol
            cands[i] += [t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)]
    frags = range(len(fragments(x, tol=tol)))
    cons = [tuple(rng.choice(cands[i]) for i in range(m)) for _ in frags]
    tys = [tuple(rng.uniform(-1.0, 3.0) for _ in range(m)) for _ in frags]
    tx = tuple(rng.uniform(0.0, 3.0) for _ in range(m))
    return ref.by_row(cons), bound, ref.by_row(tys), tx


@pytest.mark.parametrize("seed", range(60))
def test_two_scalar_rule_on_planted_constraints(seed):
    rng = inst.rng_for(seed, "two-scalar")
    m = rng.randint(1, 4)
    x = inst.grid_vector(rng, rng.randint(1, 4))
    sched = SCHEDULES[seed % len(SCHEDULES)]
    tol = rng.choice(TOLS)
    cons, bound, tys, tx = planted_tables(rng, m, x, sched, tol)
    for sense in ("band", "complement"):
        for rows in (range(m), [i for i in range(m) if rng.random() < 0.5]):
            assert_programs_agree(sense, rows, x, cons, bound, tys, tx, tol, sched)


def slightly_negative(scale):
    return FuncKernel(lambda r: 0.0 if r == 0.0 else -scale * TOL, label="below-zero")


@pytest.mark.parametrize("seed", range(40))
def test_two_scalar_rule_on_operators(seed):
    """Rows whose S(x)_i lies in [-n*tol, 0): S kernels slightly below 0
    (positive within tol) on some or all cells of a row."""
    rng = inst.rng_for(seed, "two-scalar-ops")
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    S = inst.positive_operator(rng, m, n)
    T = inst.positive_operator(rng, m, n)
    below = slightly_negative(rng.choice([0.25, 0.5, 1.0]))
    S = KernelOperator(
        tuple(
            tuple(below if i % 2 == 0 or rng.random() < 0.3 else k for k in row)
            for i, row in enumerate(S.kernels)
        )
    )
    x = inst.grid_vector(rng, n)
    sx = S(x).coords
    assert all(-n * TOL <= v < 0.0 for v in sx[::2]) or not any(x.coords)
    sched = SCHEDULES[seed % len(SCHEDULES)]
    frags = fragments(x, tol=TOL)
    tys, tx = T.on_fragments(frags), T(x).coords
    for sense in ("band", "complement"):
        cons = S.on_fragments(frags, rest=sense == "band")
        assert_programs_agree(sense, range(m), x, cons, sx, tys, tx, TOL, sched)
        args = (S, T, x, sched, sense)
        want = outcome(ref.band_set_profile, *args, tol=TOL)
        assert outcome(band_set_profile, *args, tol=TOL) == want
    for library, reference in (
        (project_band_set, ref.project_band_set),
        (project_band_set_complement, ref.project_band_set_complement),
    ):
        args = ((S,), T, x, sched)
        assert outcome(library, *args, tol=TOL) == outcome(reference, *args, tol=TOL)


def test_profile_stops_evaluating_once_settled(calls):
    value_ons = calls(_MemberProgram, "value_on")
    rng = inst.rng_for(5, "profile-settled")
    S, T = inst.disjoint_positive_pair(rng, 3, 4)
    x = Vector((1.0, -0.5, 1.5, 2.0))
    sched = EpsSchedule()
    settled_at = project_band_set((S,), T, x, sched).stabilized_at
    steps = list(sched.values()).index(settled_at) + 1
    # one value per unsettled eps and one for the limit set
    assert value_ons(band_set_profile, S, T, x, sched) == steps < sched.max_steps


VALUES = st.sampled_from([0.0, TOL, -TOL, 2 * TOL, 0.5, 1.0, 1.5, -0.25, 3.0])
BOUNDS = st.sampled_from([1.0, 0.5, 0.0, -TOL, -2 * TOL, 2.0, -1e-12])


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 3),
    s=st.integers(0, 3),
    data=st.data(),
    sense=st.sampled_from(["band", "complement"]),
    sched=st.sampled_from(SCHEDULES),
    tol=st.sampled_from(TOLS),
)
def test_two_scalar_rule_hypothesis(m, s, data, sense, sched, tol):
    x = Vector(tuple(float(j + 1) for j in range(s)) + (0.0,))
    bound = tuple(data.draw(BOUNDS) for _ in range(m))
    planted = [eps * b + tol for eps in sched.values() for b in bound]
    row = st.one_of(VALUES, st.sampled_from(planted))
    frags = range(1 << s)
    cons = [tuple(data.draw(row) for _ in range(m)) for _ in frags]
    tys = [tuple(data.draw(VALUES) for _ in range(m)) for _ in frags]
    tx = tuple(data.draw(VALUES) for _ in range(m))
    rows = data.draw(st.sampled_from([range(m), range(m - 1), (m - 1,)]))
    assert_programs_agree(sense, rows, x, ref.by_row(cons), bound, ref.by_row(tys), tx, tol, sched)
