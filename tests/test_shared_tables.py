"""Differential check of the shared-table programs against the per-program bodies.

The library builds each fragment table once per call: the projection entry
points share T(y), S(y), S(x - y) (or phi(y), phi(x - y)) across their band,
complement and complement_alt programs, and the disjointness checks share one
meet table.  The references below are the earlier bodies, which build every
program from the operators on its own; they are kept here only as oracles.
Every field of every result must agree exactly (compared by repr, so even the
sign of a zero counts), including which inputs fail to stabilize or are not
disjoint, both on operators that keep no table yet and again with the
tables they kept.  Probes avoid coordinates in (0, tol], where the rank-one and
functional references took min() of an empty limit set.

A second test counts operator applications, which needs no clock.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uryson.calculus import (
    DisjointnessWitness,
    check_disjoint_iff,
    disjoint_witness,
)
from uryson.errors import NotDisjoint, NoStabilization, UrysonError
from uryson.instances import (
    disjoint_positive_pair,
    perturbed_pair,
    positive_pwl,
    random_operator,
    rng_for,
)
from uryson.kernels import DEFAULT_TOL, ZERO_KERNEL
from uryson.lattice import IndexedFamily, Mask, Vector, fragments, principal_mask
from uryson.operators import (
    KernelOperator,
    negative_part,
    operator_is_positive,
    positive_part,
)
from uryson.projections import (
    EpsSchedule,
    PrincipalProjection,
    ProjectionResult,
    RankOneProjection,
    project_band_set,
    project_functional,
    project_principal,
    project_rank_one,
)

TOL = DEFAULT_TOL
SCHEDULES = (EpsSchedule(), EpsSchedule(1.0, 0.5, 3))
# probe coordinates: grid points, with zeros so that supports vary
PROBE_GRID = (0.0, 0.0, -2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.5)
DIRECTION_GRID = (0.0, 0.5, 1.0, 2.0)


# -- references: every program built from the operators on its own -----------


def ref_stabilize(feasible_at, limit_set, sched):
    for eps in sched.values():
        if feasible_at(eps) == limit_set:
            return eps
    raise NoStabilization(
        f"feasible set still above its limit after {sched.max_steps} steps"
    )


class RefMemberProgram:
    def __init__(self, S, T, x, sense, rows, frags):
        self.sense = sense
        self.rows = tuple(rows)
        self.masks = [Mask.empty(T.m)] + [Mask.from_indices(T.m, (i,)) for i in self.rows]
        self.frags = frags
        self.sx = S(x)
        self.tx = T(x)
        self.cons = [S(x - y) if sense == "band" else S(y) for y in frags]
        self.tys = [T(y) for y in frags]
        self.m = T.m

    def feasible(self, eps):
        return frozenset(
            (yi, i)
            for yi, c in enumerate(self.cons)
            for i in self.rows
            if c.coords[i] <= eps * self.sx.coords[i] + TOL
        )

    def value_on(self, feas):
        minimize = self.sense == "band"
        vals = list(self.tx.coords) if minimize else [0.0] * self.m
        wit = [(self.frags[0], self.masks[0])] * self.m
        singleton = dict(zip(self.rows, self.masks[1:]))
        for yi, i in sorted(feas):
            v = self.tys[yi].coords[i]
            if (v < vals[i]) if minimize else (v > vals[i]):
                vals[i] = v
                wit[i] = (self.frags[yi], singleton[i])
        counts = [sum(1 for c in self.cons if c.coords[i] <= TOL) for i in range(self.m)]
        return vals, wit, counts

    def run(self, sched):
        limit = self.feasible(0.0)
        eps_at = ref_stabilize(self.feasible, limit, sched)
        vals, wit, counts = self.value_on(limit)
        return ProjectionResult(Vector(tuple(vals)), eps_at, tuple(counts), tuple(wit))


def ref_project_single(sense, S, T, x, sched):
    frags = fragments(x, tol=TOL)
    return RefMemberProgram(S, T, x, sense, range(T.m), frags).run(sched)


def ref_principal(S, T, x, sched):
    band = ref_project_single("band", S, T, x, sched)
    complement = ref_project_single("complement", S, T, x, sched)
    rho_sx = principal_mask(S(x), TOL)
    outside = rho_sx.complement().apply(T(x))
    inside = RefMemberProgram(
        S, T, x, "complement", rho_sx.indices(), fragments(x, tol=TOL)
    ).run(sched)
    alt = inside._replace(value=outside + inside.value)
    return PrincipalProjection(band, complement, alt)


def ref_rank_one(phi, u, T, x, sched):
    rho_u = principal_mask(u, TOL)
    frags = fragments(x, tol=TOL)
    phix = phi(x).coords[0]
    phi_xy = [phi(x - y).coords[0] for y in frags]
    phi_y = [phi(y).coords[0] for y in frags]
    tys = [T(y) for y in frags]

    def feas_band(eps):
        return frozenset(k for k, v in enumerate(phi_xy) if v <= eps * phix + TOL)

    limit_band = frozenset(k for k, v in enumerate(phi_xy) if v <= TOL)
    band_eps = ref_stabilize(feas_band, limit_band, sched)
    band = Vector(
        tuple(
            min(tys[k].coords[i] for k in sorted(limit_band)) if rho_u.bits[i] else 0.0
            for i in range(T.m)
        )
    )

    def feas_comp(eps):
        return frozenset(k for k, v in enumerate(phi_y) if v <= eps * phix + TOL)

    limit_comp = frozenset(k for k, v in enumerate(phi_y) if v <= TOL)
    comp_eps = ref_stabilize(feas_comp, limit_comp, sched)
    sup_part = Vector(
        tuple(
            max(tys[k].coords[i] for k in sorted(limit_comp)) if rho_u.bits[i] else 0.0
            for i in range(T.m)
        )
    )
    complement = rho_u.complement().apply(T(x)) + sup_part
    return RankOneProjection(band, complement, band_eps, comp_eps)


def ref_functional(phi, T, x, sched):
    if not operator_is_positive(T, TOL):
        pos = ref_functional(phi, positive_part(T), x, sched)
        neg = ref_functional(phi, negative_part(T), x, sched)
        return pos - neg
    frags = fragments(x, tol=TOL)
    phix = phi(x).coords[0]
    phi_xy = [phi(x - y).coords[0] for y in frags]
    t_y = [T(y).coords[0] for y in frags]

    def feas(eps):
        return frozenset(k for k, v in enumerate(phi_xy) if v <= eps * phix + TOL)

    limit = frozenset(k for k, v in enumerate(phi_xy) if v <= TOL)
    ref_stabilize(feas, limit, sched)
    return min(t_y[k] for k in sorted(limit))


def ref_disjoint_witness(S, T, x, eps, u):
    frags = fragments(x, tol=TOL)
    vals = [T(y) + S(x - y) for y in frags]
    meet = [min(v.coords[i] for v in vals) for i in range(T.m)]
    if any(v > TOL for v in meet):
        raise NotDisjoint(f"pointwise meet is nonzero: {tuple(meet)}")
    chosen = []
    for i in range(T.m):
        best_k = 0
        for k in range(1, len(frags)):
            if vals[k].coords[i] < vals[best_k].coords[i]:
                best_k = k
        chosen.append(best_k)
    labels, masks, frag_items = [], [], []
    for k in sorted(set(chosen)):
        labels.append(str(k))
        masks.append(Mask.from_indices(T.m, [i for i, c in enumerate(chosen) if c == k]))
        frag_items.append(frags[k])
    return DisjointnessWitness(
        IndexedFamily(tuple(labels), tuple(masks)),
        IndexedFamily(tuple(labels), tuple(frag_items)),
        eps,
        u,
    )


def ref_check_disjoint_iff(S, T, xs, eps, steps):
    probes = []
    all_ok = True
    all_disjoint = True
    for x in xs:
        frags = fragments(x, tol=TOL)
        tx, sx = T(x), S(x)
        tys = [T(y) for y in frags]
        sxy = [S(x - y) for y in frags]
        meet = Vector(
            tuple(
                min(tys[k].coords[i] + sxy[k].coords[i] for k in range(len(frags)))
                for i in range(T.m)
            )
        )
        disjoint = all(v <= TOL for v in meet.coords)
        eps_list = [eps * 0.5**k for k in range(steps)]
        converse = []
        for e in eps_list:
            exists = all(
                any(
                    tys[k].coords[i] <= e * tx.coords[i] + TOL
                    and sxy[k].coords[i] <= e * sx.coords[i] + TOL
                    for k in range(len(frags))
                )
                for i in range(T.m)
            )
            entry = {"eps": e, "witness_exists": exists}
            if exists:
                entry["bound_ok"] = all(
                    meet.coords[i] <= e * (tx.coords[i] + sx.coords[i]) + TOL
                    for i in range(T.m)
                )
            else:
                entry["bound_ok"] = None
            converse.append(entry)
        forward = None
        if disjoint:
            w = ref_disjoint_witness(S, T, x, eps, Vector.ones(T.m))
            e_min = eps_list[-1]
            two_sided = True
            for (label, mask), frag in zip(w.masks.pairs(), w.frags.items):
                t_side = mask.apply(T(frag))
                s_side = mask.apply(S(x - frag))
                if not all(
                    t_side.coords[i] <= e_min * tx.coords[i] + TOL
                    and s_side.coords[i] <= e_min * sx.coords[i] + TOL
                    for i in range(T.m)
                ):
                    two_sided = False
            forward = {
                "labels": list(w.masks.labels),
                "masks": [[1 if b else 0 for b in m.bits] for m in w.masks.items],
                "fragments": [list(f.coords) for f in w.frags.items],
                "bounds_ok": two_sided,
            }
            ok = (
                forward["bounds_ok"]
                and all(c["witness_exists"] for c in converse)
                and all(c["bound_ok"] for c in converse)
            )
        else:
            ok = not converse[-1]["witness_exists"]
            all_disjoint = False
        all_ok = all_ok and ok
        probes.append(
            {
                "x": list(x.coords),
                "meet": list(meet.coords),
                "disjoint": disjoint,
                "forward": forward,
                "converse": converse,
                "ok": ok,
            }
        )
    return {
        "eps0": eps,
        "steps": steps,
        "probes": probes,
        "all_disjoint": all_disjoint,
        "all_ok": all_ok,
    }


# -- comparison ---------------------------------------------------------------


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except UrysonError as exc:
        return (type(exc).__name__, str(exc))


def reference_pairs(S, T, phi, psi, u, x, sched):
    """(library entry point, its reference, the arguments of both)."""
    yield project_principal, ref_principal, (S, T, x, sched)
    yield project_rank_one, ref_rank_one, (phi, u, T, x, sched)
    for target in (T.kernels[:1], psi.kernels):
        yield project_functional, ref_functional, (phi, KernelOperator(target), x, sched)
    ones = Vector.ones(T.m)
    for A, B in ((S, T), (T, S)):
        yield disjoint_witness, ref_disjoint_witness, (A, B, x, 0.5, ones)
    for steps in (1, 20):
        xs = [x, Vector(tuple(reversed(x.coords)))]
        yield check_disjoint_iff, ref_check_disjoint_iff, (S, T, xs, 1.0, steps)


def assert_same_as_references(S, T, phi, psi, u, x, sched):
    """Each entry point matches its reference twice on the same operators
    and probes: cold (copies keep no table), then with the tables the first
    call kept."""
    for library, reference, args in reference_pairs(S, T, phi, psi, u, x, sched):
        expected = outcome(reference, *args)
        cold = [copy.copy(a) if isinstance(a, KernelOperator) else a for a in args]
        for _ in ("cold", "kept"):
            assert outcome(library, *cold) == expected


def seeded_case(seed, m, n):
    rng = rng_for(seed, "shared-tables")
    make_pair = disjoint_positive_pair if seed % 2 else perturbed_pair
    S, T = make_pair(rng, m, n)
    # dead columns make phi vanish on some fragments, so limit sets vary
    phi = KernelOperator(
        (tuple(positive_pwl(rng) if rng.random() < 0.6 else ZERO_KERNEL for _ in range(n)),)
    )
    psi = random_operator(rng, 1, n)
    u = Vector(tuple(rng.choice(DIRECTION_GRID) for _ in range(m)))
    x = Vector(tuple(rng.choice(PROBE_GRID) for _ in range(n)))
    return S, T, phi, psi, u, x


CASES = [(seed, 1 + seed % 5, 1 + seed // 5 % 4) for seed in range(40)]


@pytest.mark.parametrize("seed,m,n", CASES)
def test_shared_tables_match_references(seed, m, n):
    S, T, phi, psi, u, x = seeded_case(seed, m, n)
    for sched in SCHEDULES:
        assert_same_as_references(S, T, phi, psi, u, x, sched)


@st.composite
def table_cases(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    S, T, phi, psi, u, _ = seeded_case(draw(st.integers(0, 2**20)), m, n)
    x = Vector(tuple(draw(st.sampled_from(PROBE_GRID)) for _ in range(n)))
    return S, T, phi, psi, u, x, draw(st.sampled_from(SCHEDULES))


@settings(max_examples=40, deadline=None)
@given(table_cases())
def test_shared_tables_match_references_hypothesis(case):
    assert_same_as_references(*case)


# -- operator applications ----------------------------------------------------


@pytest.fixture
def count_applications(monkeypatch):
    counter = {"calls": 0}
    original = KernelOperator.__call__

    def counted(self, x):
        counter["calls"] += 1
        return original(self, x)

    monkeypatch.setattr(KernelOperator, "__call__", counted)

    def run(fn, *args):
        counter["calls"] = 0
        fn(*args)
        return counter["calls"]

    return run


def test_operator_applications_once_per_fragment(count_applications):
    # m = 4 output rows, |supp x| = 6: 64 fragments
    S, T = disjoint_positive_pair(rng_for(4, "applications"), 4, 6)
    x = Vector((1.0, -0.5, 1.5, 2.5, -1.0, 0.5))
    assert len(fragments(x)) == 64
    # the fragment rows come from addend tables, so only S(x) and T(x) are
    # applications: one band program, the principal's three programs, and
    # the disjoint probe's meet table
    assert count_applications(project_band_set, (S,), T, x) == 2
    assert count_applications(project_principal, S, T, x) == 2
    assert count_applications(check_disjoint_iff, S, T, [x], 1.0) == 2
    assert check_disjoint_iff(S, T, [x], 1.0)["all_disjoint"]
