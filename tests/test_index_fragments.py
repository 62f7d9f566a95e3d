"""Index-only fragments and the two-scalar stabilization rule.

`lattice.fragments` returns fragment indices over the support columns (the
keep flags of `exact_oracle.keep_flags`) and builds a fragment Vector only
when one is indexed, so the fragment programs build Vectors only for the
witnesses they return.  `_MemberProgram.run` decides feasible(eps) == limit
from the largest constraint inside the limit set and the smallest outside
it.  The earlier bodies are kept here as oracles: the Vector-per-fragment
enumeration, and the program that compared feasible sets at every schedule
eps.  Results and errors must agree by repr, including rows whose bound is
slightly negative and constraints planted exactly at eps*bound + tol.
Tables are laid out as `on_fragments` returns them, one list per output row;
the oracle transposes them back to one row per fragment.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracle import by_row, keep_flags
from uryson import instances as inst
from uryson.calculus import check_disjoint_iff, disjoint_witness, rk_eval
from uryson.errors import NoStabilization, SupportTooLarge
from uryson.kernels import FuncKernel
from uryson.lattice import Mask, Vector, first_extremum, fragments
from uryson.operators import KernelOperator
from uryson.projections import (
    EpsSchedule,
    ProjectionResult,
    _MemberProgram,
    band_set_profile,
    project_band_set,
    project_functional,
    project_principal,
    project_rank_one,
)

TOL = 1e-9
SCHEDULES = [EpsSchedule(), EpsSchedule(eps0=4.0, factor=0.25, max_steps=6), EpsSchedule(max_steps=3)]


def ref_fragments(x, cap=20, tol=TOL):
    """The enumeration the keep flags replace: one Vector per fragment."""
    supp = x.support(tol)
    if len(supp) > cap:
        raise SupportTooLarge(f"|supp(x)| = {len(supp)} exceeds cap {cap}")
    out = []
    for bm in range(1 << len(supp)):
        coords = [0.0] * x.dim
        for k, idx in enumerate(supp):
            if bm >> k & 1:
                coords[idx] = x.coords[idx]
        out.append(Vector(tuple(coords)))
    return out


class RefProgram:
    """The program before the two-scalar rule: feasible sets compared at
    every schedule eps, witnesses as fragment Vectors."""

    def __init__(self, sense, rows, frags, cons, bound, tys, tx, tol):
        self.sense = sense
        self.rows = tuple(rows)
        self.m = len(tx)
        self.masks = [Mask.empty(self.m)] + [Mask.from_indices(self.m, (i,)) for i in self.rows]
        self.frags = list(frags)
        # the oracle reads one row per fragment
        self.cons = by_row(cons)
        self.bound = bound
        self.tys = by_row(tys)
        self.start = tx if sense == "band" else (0.0,) * self.m
        self.tol = tol

    def feasible(self, eps):
        return tuple(
            tuple(k for k, c in enumerate(self.cons) if c[i] <= eps * self.bound[i] + self.tol)
            for i in self.rows
        )

    def value_on(self, feas):
        maximize = self.sense == "complement"
        vals = list(self.start)
        wit = [(self.frags[0], self.masks[0])] * self.m
        for i, singleton, ks in zip(self.rows, self.masks[1:], feas):
            vals[i], pick = first_extremum([vals[i]] + [self.tys[k][i] for k in ks], maximize)
            if pick:
                wit[i] = (self.frags[ks[pick - 1]], singleton)
        return vals, wit

    def run(self, sched):
        limit = self.feasible(0.0)
        for eps in sched.values():
            if self.feasible(eps) == limit:
                vals, wit = self.value_on(limit)
                return ProjectionResult(
                    value=Vector(tuple(vals)),
                    stabilized_at=eps,
                    feasible_count=tuple(
                        sum(1 for c in self.cons if c[i] <= self.tol) for i in range(self.m)
                    ),
                    witness=tuple(wit),
                )
        raise NoStabilization(
            f"feasible set still above its limit after {sched.max_steps} steps"
        )

    def profile(self, sched):
        return [(eps, Vector(tuple(self.value_on(self.feasible(eps))[0]))) for eps in sched.values()]


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # compared by class and message
        return f"{type(exc).__name__}: {exc}"


def assert_programs_agree(args, sched):
    """run and the settled profile of _MemberProgram equal the oracle's."""
    prog, ref = _MemberProgram(*args), RefProgram(*args)
    assert outcome(prog.run, sched) == outcome(ref.run, sched)
    assert prog.feasible_count == tuple(
        sum(1 for c in ref.cons if c[i] <= ref.tol) for i in range(ref.m)
    )
    for eps in sched.values():
        assert prog.settled(eps) == (ref.feasible(eps) == ref.feasible(0.0))


# -- fragments -------------------------------------------------------------


def fragment_probes():
    rng = inst.rng_for(1, "index-fragments")
    xs = [inst.grid_vector(rng, rng.randint(1, 6)) for _ in range(30)]
    xs += [Vector((0.0, -0.0, 1e-10, 0.2, -3.0)), Vector((1.0,)), Vector((0.0, 0.0))]
    return xs


@pytest.mark.parametrize("tol", [0.0, TOL, 0.25])
def test_fragments_match_vector_enumeration(tol):
    for x in fragment_probes():
        frags = fragments(x, tol=tol)
        want = ref_fragments(x, tol=tol)
        assert len(frags) == len(want) == len(keep_flags(frags))
        assert [y.coords for y in frags] == [y.coords for y in want]
        assert [frags[k] for k in range(len(frags))] == want
        assert frags[-1] == want[-1]
        supp = x.support(tol)
        for keep, y in zip(keep_flags(frags), want):
            assert keep == tuple(j in supp and y.coords[j] != 0.0 for j in range(x.dim))


# -- Vector builds ---------------------------------------------------------


@pytest.fixture
def vector_builds(monkeypatch):
    init = Vector.__init__
    count = [0]

    def counted(self, coords):
        count[0] += 1
        init(self, coords)

    monkeypatch.setattr(Vector, "__init__", counted)

    def run(fn, x):
        count[0] = 0
        fn(x)
        return count[0]

    return run


def test_vector_builds_do_not_grow_with_fragments(vector_builds):
    rng = inst.rng_for(3, "vector-builds")
    m = 3
    S, T = inst.disjoint_positive_pair(rng, m, 8)
    W = inst.random_operator(rng, m, 8)
    phi, psi = inst.positive_operator(rng, 1, 8), inst.positive_operator(rng, 1, 8)
    u = Vector((1.0, 0.0, 2.0))
    half = Vector((1.0, 0.0, 1.5, 0.0, -1.0, 0.0, 2.0, 0.0))
    full = Vector((1.0, -0.5, 1.5, 2.5, -1.0, 0.5, 2.0, -1.5))
    assert (len(half.support()), len(full.support())) == (4, 8)
    calls = {
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
    for name, fn in calls.items():
        small, large = vector_builds(fn, half), vector_builds(fn, full)
        # one Vector per fragment would add 240 builds at |supp x| = 8
        assert small == large, name


# -- two-scalar stabilization ----------------------------------------------


def planted_tables(rng, m, x, sched, tol):
    """Constraint tables drawn from the thresholds eps*bound_i + tol of the
    schedule and their float neighbours, against bounds that include
    slightly negative ones; one list per output row, as on_fragments."""
    frags = fragments(x, tol=tol)
    bound = tuple(
        rng.choice([1.0, 0.5, 0.0, -tol, -0.5 * x.dim * tol, 3.0, -1e-12]) for _ in range(m)
    )
    cands = [[tol, -tol, 0.0, 2.0 * tol, 10.0] for _ in range(m)]
    for i in range(m):
        for eps in sched.values():
            t = eps * bound[i] + tol
            cands[i] += [t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)]
    cons = [tuple(rng.choice(cands[i]) for i in range(m)) for _ in frags]
    tys = [tuple(rng.uniform(-1.0, 3.0) for _ in range(m)) for _ in frags]
    tx = tuple(rng.uniform(0.0, 3.0) for _ in range(m))
    return frags, by_row(cons), bound, by_row(tys), tx


@pytest.mark.parametrize("seed", range(60))
def test_two_scalar_rule_on_planted_constraints(seed):
    rng = inst.rng_for(seed, "two-scalar")
    m = rng.randint(1, 4)
    x = inst.grid_vector(rng, rng.randint(1, 4))
    sched = SCHEDULES[seed % len(SCHEDULES)]
    tol = rng.choice([0.0, TOL, 0.25])
    frags, cons, bound, tys, tx = planted_tables(rng, m, x, sched, tol)
    for sense in ("band", "complement"):
        for rows in (range(m), [i for i in range(m) if rng.random() < 0.5]):
            assert_programs_agree((sense, rows, frags, cons, bound, tys, tx, tol), sched)


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
    tys, tx = T.on_fragments(x, frags), T(x).coords
    for sense in ("band", "complement"):
        cons = S.on_fragments(x, frags, rest=sense == "band")
        args = (sense, range(m), frags, cons, sx, tys, tx, TOL)
        assert_programs_agree(args, sched)
        ref = RefProgram(*args)
        profile = band_set_profile(S, T, x, sched, sense, tol=TOL)
        assert repr(profile) == outcome(ref.profile, sched)


def test_profile_stops_evaluating_once_settled(monkeypatch):
    rng = inst.rng_for(5, "profile-settled")
    S, T = inst.disjoint_positive_pair(rng, 3, 4)
    x = Vector((1.0, -0.5, 1.5, 2.0))
    sched = EpsSchedule()
    settled_at = project_band_set((S,), T, x, sched).stabilized_at
    steps = list(sched.values()).index(settled_at) + 1
    calls = [0]
    value_on = _MemberProgram.value_on

    def counted(self, feas):
        calls[0] += 1
        return value_on(self, feas)

    monkeypatch.setattr(_MemberProgram, "value_on", counted)
    band_set_profile(S, T, x, sched)
    # one value per unsettled eps and one for the limit set
    assert calls[0] == steps < sched.max_steps


VALUES = st.sampled_from([0.0, TOL, -TOL, 2 * TOL, 0.5, 1.0, 1.5, -0.25, 3.0])
BOUNDS = st.sampled_from([1.0, 0.5, 0.0, -TOL, -2 * TOL, 2.0, -1e-12])


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 3),
    s=st.integers(0, 3),
    data=st.data(),
    sense=st.sampled_from(["band", "complement"]),
    sched=st.sampled_from(SCHEDULES),
    tol=st.sampled_from([0.0, TOL, 0.25]),
)
def test_two_scalar_rule_hypothesis(m, s, data, sense, sched, tol):
    x = Vector(tuple(float(j + 1) for j in range(s)) + (0.0,))
    frags = fragments(x, tol=tol)
    bound = tuple(data.draw(BOUNDS) for _ in range(m))
    planted = [eps * b + tol for eps in sched.values() for b in bound]
    row = st.one_of(VALUES, st.sampled_from(planted))
    cons = [tuple(data.draw(row) for _ in range(m)) for _ in frags]
    tys = [tuple(data.draw(VALUES) for _ in range(m)) for _ in frags]
    tx = tuple(data.draw(VALUES) for _ in range(m))
    rows = data.draw(st.sampled_from([range(m), range(m - 1), (m - 1,)]))
    args = (sense, rows, frags, by_row(cons), bound, by_row(tys), tx, tol)
    assert_programs_agree(args, sched)
