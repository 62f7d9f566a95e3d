"""Self-check suite: every library invariant, run over a model's operators
plus seeded random instances.

Check protocol.  A check body is a generator ``check(model, seed, rng)``.  It
yields once as each case starts and ends with ``return message`` at the
first failure, or returns nothing when every case passes.  ``_counted`` runs
a body as its registry entry ``(model, seed) -> (cases, detail)``: it hands
the body a ``random.Random`` keyed by (seed, check id), so results are
reproducible and adding a check never reshuffles another's instances; it
counts the yields as ``cases`` and formats a failure as "case N: message".
An exception raised by a check becomes an error row with 0 cases in
``run_suite``, whose report lists checks sorted by id with aggregate counts.

Memo rule.  A check computes each distinct (operator, probe) value of its
cases once, in a local dict keyed by the ``id`` of objects its case list keeps
alive, never by ``==`` (equal probes may differ in signed zeros), and
compares each distinct value object with a result once.  Every case still
makes its own predicate calls, so a failure lands on the same case.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import suppress
from typing import Callable

from . import instances as inst
from .calculus import (
    check_disjoint_iff,
    check_modulus_bound,
    disjoint_witness,
    rk_eval,
    rk_eval_separable,
    witness_products,
)
from .dsl import Model, build_operator, parse_model, render
from .errors import C0Violation, NotConverged, NumericError, UrysonError
from .kernels import ZERO_KERNEL, PwlKernel
from .lattice import (
    IndexedFamily,
    Mask,
    Vector,
    all_masks,
    fragments,
    is_disjoint,
    is_fragment,
    is_partition_of_unity,
    order_limit_witness,
    principal_mask,
    principal_projection_sup_form,
    vec,
)
from .operators import (
    IntegralKernelSpec,
    KernelOperator,
    discretize_integral,
    functional_value,
    operator_add,
    operator_is_positive,
    rank_one,
    validate,
)
from .projections import (
    band_set_profile,
    masking_oracle,
    project_band_set,
    project_band_set_complement,
    project_functional,
    project_principal,
    project_rank_one,
)

__all__ = ["run_suite", "CHECK_IDS"]

CHECK_TOL = 1e-9
PROJ_TOL = 1e-7


# --------------------------------------------------------------------------
# helpers

def _model_full_ops(model: Model) -> list[tuple[str, KernelOperator]]:
    """Operators with the model's full (m, n) shape (functionals excluded)."""
    return [(name, op) for name, op in model.built.items() if (op.m, op.n) == (model.m, model.n)]


def _model_probes(model: Model) -> list[Vector]:
    return [v for _, v in model.probes]


def _sparse_positive(rng, m: int, n: int) -> KernelOperator:
    """Positive operator with a random subset of cells zeroed out."""
    cells = [(i, j) for i in range(m) for j in range(n)]
    kept = set(rng.sample(cells, rng.randint(1, len(cells))))
    return KernelOperator(
        tuple(
            tuple(
                inst.positive_pwl(rng) if (i, j) in kept else ZERO_KERNEL
                for j in range(n)
            )
            for i in range(m)
        )
    )


def _away_from_crossings(rng, dim: int) -> Vector:
    """Grid probe with |x_j| >= 0.5: clear of every grid kernel's only zero."""
    levels = [0.25 * k for k in range(2, 13)]
    return Vector(tuple(rng.choice(levels) * rng.choice((-1.0, 1.0)) for _ in range(dim)))


def _once(memo: dict, compute: Callable, *objs):
    """compute(*objs), computed only at the first case with these objects."""
    key = tuple(map(id, objs))
    if key not in memo:
        memo[key] = compute(*objs)
    return memo[key]


# --------------------------------------------------------------------------
# lattice checks

def _check_lattice_identities(model: Model, seed: int, rng):
    pairs = [
        (inst.grid_vector(rng, d), inst.grid_vector(rng, d))
        for d in (1, 2, 3, 4)
        for _ in range(8)
    ]
    pairs += [(v, v) for v, _ in pairs[:10]]
    probes = _model_probes(model)
    pairs += [(a, b) for a in probes for b in probes]
    for v, w in pairs:
        yield
        pos, neg = v.pos_part(), v.neg_part()
        if not (v.join(w) + v.meet(w)).isclose(v + w, CHECK_TOL):
            return f"join+meet != v+w at v={v.coords}, w={w.coords}"
        if not v.abs().isclose(pos + neg, CHECK_TOL):
            return f"|v| != pos+neg at v={v.coords}"
        if not (pos - neg).isclose(v, CHECK_TOL):
            return f"pos-neg != v at v={v.coords}"
        if not pos.meet(neg).isclose(Vector.zero(v.dim), CHECK_TOL):
            return f"pos^neg != 0 at v={v.coords}"


def _check_lattice_fragments(model: Model, seed: int, rng):
    xs = [inst.grid_vector(rng, rng.randint(1, 4)) for _ in range(12)]
    xs += _model_probes(model)
    for x in xs:
        yield
        frs = fragments(x)
        supp = len(x.support())
        if len(frs) != 2 ** supp:
            return f"{len(frs)} fragments for support {supp}"
        for y in frs:
            if not is_fragment(y, x):
                return f"non-fragment {y.coords} of {x.coords}"
            if not is_disjoint(y, x - y):
                return f"fragment {y.coords} not disjoint from rest"


def _check_lattice_boolean(model: Model, seed: int, rng):
    for dim in (2, 3):
        masks = all_masks(dim)
        full = Mask.full(dim)
        empty = Mask.empty(dim)
        for a in masks:
            if not ((a & a.complement()) == empty and (a | a.complement()) == full):
                return f"complementation fails for {a.indices()}"
            for b in masks:
                if (a & b).complement() != (a.complement() | b.complement()):
                    return "De Morgan (meet) fails"
                if (a | b).complement() != (a.complement() & b.complement()):
                    return "De Morgan (join) fails"
                for c in masks:
                    yield
                    if (a & (b | c)) != ((a & b) | (a & c)):
                        return "meet-over-join distributivity fails"
                    if (a | (b & c)) != ((a | b) & (a | c)):
                        return "join-over-meet distributivity fails"


def _check_lattice_principal_meet(model: Model, seed: int, rng):
    for dim, levels in ((3, (0.0, 0.5, 2.0)), (4, (0.0, 1.0))):
        vs = [Vector(c) for c in itertools.product(levels, repeat=dim)]
        for f in vs:
            for g in vs:
                yield
                lhs = principal_mask(f) & principal_mask(g)
                if lhs != principal_mask(f.meet(g)):
                    return f"mask meet mismatch at f={f.coords}, g={g.coords}"


def _check_lattice_band_sup(model: Model, seed: int, rng):
    for _ in range(24):
        yield
        dim = rng.randint(1, 4)
        f = inst.grid_vector(rng, dim)
        g = inst.nonneg_grid_vector(rng, dim)
        direct = principal_mask(f).apply(g)
        sup_form = principal_projection_sup_form(f, g)
        if not direct.isclose(sup_form, CHECK_TOL):
            return f"mask form {direct.coords} != sup form {sup_form.coords}"


def _check_lattice_order_limit(model: Model, seed: int, rng):
    eps = 0.5
    for _ in range(12):
        yield
        dim = rng.randint(1, 3)
        x = inst.grid_vector(rng, dim)
        seq = inst.decreasing_to(x, steps=rng.randint(2, 6))
        fam = IndexedFamily(tuple(str(k) for k in range(len(seq))), tuple(seq))
        u = Vector.ones(dim)
        wit = order_limit_witness(fam, x, eps, u)
        if not is_partition_of_unity(wit):
            return "witness is not a partition of unity"
        for label, mask in zip(wit.labels, wit.items):
            start = fam.labels.index(label)
            for b in range(start, len(seq)):
                gap = mask.apply((seq[b] - x).abs())
                if not gap.leq(u.scale(eps), CHECK_TOL):
                    return f"bound fails at label {label}, index {b}"
    # a non-convergent fixture must raise
    yield
    x = vec(0.0, 0.0)
    off = vec(1.0, 1.0)
    fam = IndexedFamily(("0", "1"), (x + off, x + off))
    with suppress(NotConverged):
        order_limit_witness(fam, x, eps, vec(1.0, 1.0))
        return "non-convergent sequence produced a witness"


# --------------------------------------------------------------------------
# operator checks

def _check_op_fragment_additive(model: Model, seed: int, rng):
    ops = [inst.random_operator(rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(8)]
    trials = [(T, inst.grid_vector(rng, T.n)) for T in ops for _ in range(3)]
    trials += [
        (op, x) for _, op in _model_full_ops(model) for x in _model_probes(model)
    ]
    for T, x in trials:
        yield
        tx = T(x)
        for y in fragments(x):
            split = T(y) + T(x - y)
            if not tx.isclose(split, CHECK_TOL):
                return f"T(x) != T(y)+T(x-y) at x={x.coords}, y={y.coords}"


def _check_op_rank_one(model: Model, seed: int, rng):
    for _ in range(12):
        yield
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        phi = KernelOperator((tuple(inst.random_pwl(rng) for _ in range(n)),))
        u = inst.nonneg_grid_vector(rng, m)
        R = rank_one(phi, u)
        x = inst.grid_vector(rng, n)
        expect = u.scale(functional_value(phi, x))
        if not R(x).isclose(expect, CHECK_TOL):
            return f"rank-one value mismatch at x={x.coords}"
    for d in model.operators:
        if not hasattr(d, "phi"):
            continue
        yield
        R = build_operator(model, d.name)
        phi = build_operator(model, d.phi)
        for x in _model_probes(model):
            expect = Vector(d.u).scale(functional_value(phi, x))
            if not R(x).isclose(expect, CHECK_TOL):
                return f"model rank-one {d.name} mismatch"


def _kernel_nonneg_sampled(k: PwlKernel) -> bool:
    args = list(k.breakpoint_args())
    mids = [(a + b) / 2.0 for a, b in zip(args, args[1:])]
    far = [args[0] - 1000.0, args[-1] + 1000.0]
    return all(k(r) >= -CHECK_TOL for r in args + mids + far)


def _check_op_positivity(model: Model, seed: int, rng):
    kernels = [inst.random_pwl(rng) for _ in range(20)]
    kernels += [inst.positive_pwl(rng) for _ in range(10)]
    # nonnegative at every breakpoint yet negative on the left extension:
    kernels.append(PwlKernel(((-2.0, 0.25), (-1.0, 0.5), (0.0, 0.0), (1.0, 1.0))))
    kernels.append(PwlKernel(((-1.0, 1.0), (0.0, 0.0), (1.0, 0.5), (2.0, 0.25))))
    for k in kernels:
        yield
        T = KernelOperator(((k,),))
        if operator_is_positive(T) != _kernel_nonneg_sampled(k):
            return f"positivity rule disagrees with samples for {k.points}"
    for name, op in model.built.items():
        yield
        pwls = [k.to_pwl() for row in op.kernels for k in row]
        if any(p is None for p in pwls):
            continue  # quadrature kernels are opaque; sampled check is not exact
        sampled = all(_kernel_nonneg_sampled(p) for p in pwls)
        if operator_is_positive(op) != sampled:
            return f"positivity rule disagrees on {name!r}"


def _check_op_integral_oa(model: Model, seed: int, rng):
    specs = [
        IntegralKernelSpec(lambda s, t, r: s * t * r, (1.0, 2.0), (0.5, 1.0), (1.0, 1.0)),
        IntegralKernelSpec(lambda s, t, r: (1 + s + t) * r * r, (0.0, 1.0), (1.0,), (0.5,)),
        IntegralKernelSpec(lambda s, t, r: abs(r) * s, (1.0,), (1.0, 2.0, 3.0), (0.25, 0.5, 0.25)),
    ]
    ops = [discretize_integral(sp) for sp in specs]
    ops += [
        build_operator(model, d.name)
        for d in model.operators
        if hasattr(d, "s_grid")
    ]
    for T in ops:
        yield
        box = (Vector.ones(T.n).scale(-2.0), Vector.ones(T.n).scale(2.0))
        report = validate(T, box, samples=24, seed=seed)
        if not report.orthogonally_additive_ok:
            return "discretized operator failed the OA check"
    yield
    with suppress(C0Violation):
        discretize_integral(IntegralKernelSpec(lambda s, t, r: r + 1.0, (1.0,), (1.0,), (1.0,)))
        return "kernel with K(s,t,0) != 0 was accepted"


def _check_model_roundtrip(model: Model, seed: int, rng):
    yield
    if parse_model(render(model)) != model:
        return "render/parse round trip changed the model"


# --------------------------------------------------------------------------
# calculus checks

def _rk_pairs(model: Model, rng, count: int):
    pairs = []
    for _ in range(count):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 0.5:
            S = inst.positive_operator(rng, m, n)
            T = inst.positive_operator(rng, m, n)
        else:
            S = inst.random_operator(rng, m, n)
            T = inst.random_operator(rng, m, n)
        pairs.append((S, T, inst.grid_vector(rng, n)))
    full = _model_full_ops(model)
    for (_, S), (_, T) in itertools.combinations(full, 2):
        for x in _model_probes(model):
            pairs.append((S, T, x))
    return pairs


def _unary_values(T: KernelOperator, x: Vector) -> dict[str, Vector]:
    return {kind: rk_eval(kind, T, x).value for kind in ("pos", "neg", "abs")}


def _check_rk_identities(model: Model, seed: int, rng):
    memo: dict = {}
    for S, T, x in _rk_pairs(model, rng, 14):
        yield
        join = rk_eval("join", T, x, S).value
        meet = rk_eval("meet", T, x, S).value
        if not (join + meet).isclose(T(x) + S(x), CHECK_TOL):
            return f"join+meet != T+S at x={x.coords}"
        parts = _once(memo, _unary_values, T, x)
        pos, neg, absv = parts["pos"], parts["neg"], parts["abs"]
        if not (pos - neg).isclose(T(x), CHECK_TOL):
            return f"pos-neg != T at x={x.coords}"
        if not absv.isclose(pos + neg, CHECK_TOL):
            return f"abs != pos+neg at x={x.coords}"


def _check_rk_separable(model: Model, seed: int, rng):
    memo: dict = {}
    for S, T, x in _rk_pairs(model, rng, 12):
        for kind in ("join", "meet", "pos", "neg", "abs"):
            yield
            second = S if kind in ("join", "meet") else None
            if second is None:
                enum = _once(memo, _unary_values, T, x)[kind]
            else:
                enum = rk_eval(kind, T, x, second).value
            closed = rk_eval_separable(kind, T, x, second)
            if not enum.isclose(closed, CHECK_TOL):
                return f"{kind}: enumeration != closed form at x={x.coords}"


def _check_modulus(model: Model, seed: int, rng):
    memo: dict = {}
    for S, T, x in _rk_pairs(model, rng, 16):
        yield
        if not _once(memo, check_modulus_bound, T, x):
            return f"|T(x)| > |T|(x) at x={x.coords}"


def _check_meet_zero_iff(model: Model, seed: int, rng):
    for _ in range(10):
        yield
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        S, T = inst.disjoint_positive_pair(rng, m, n)
        x = inst.grid_vector(rng, n)
        meet = rk_eval("meet", S, x, T).value
        if not meet.isclose(Vector.zero(m), CHECK_TOL):
            return f"disjoint pair has meet {meet.coords}"
    for _ in range(10):
        yield
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        S, T = inst.perturbed_pair(rng, m, n)
        hit = False
        for j in range(n):
            x = Vector(tuple(3.0 if jj == j else 0.0 for jj in range(n)))
            if any(c > CHECK_TOL for c in rk_eval("meet", S, x, T).value.coords):
                hit = True
                break
        if not hit:
            return "perturbed pair shows no overlap at unit probes"


def _check_disjoint_witness(model: Model, seed: int, rng):
    eps = 0.5
    for _ in range(10):
        yield
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        S, T = inst.disjoint_positive_pair(rng, m, n)
        x = inst.grid_vector(rng, n)
        u = Vector.ones(m)
        w = disjoint_witness(S, T, x, eps, u)
        if not is_partition_of_unity(w.masks):
            return "witness masks are not a partition of unity"
        for v in witness_products(S, T, x, w):
            if any(c != 0.0 for c in v.coords):
                return f"support-disjoint pair has nonzero product {v.coords}"
        rep = check_disjoint_iff(S, T, [x], eps)
        if not rep["all_ok"]:
            return "two-sided characterization flagged a disjoint pair"


# --------------------------------------------------------------------------
# projection checks

def _proj_pairs(model: Model, rng, count: int, include_model: bool = True):
    pairs = []
    for _ in range(count):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        pairs.append(
            (
                _sparse_positive(rng, m, n),
                inst.positive_operator(rng, m, n),
                _away_from_crossings(rng, n),
            )
        )
    if not include_model:
        return pairs
    full = [(name, op) for name, op in _model_full_ops(model) if operator_is_positive(op)]
    for (_, S), (_, T) in itertools.permutations(full, 2):
        for x in _model_probes(model):
            pairs.append((S, T, x))
    return pairs


def _check_proj_decomposition(model: Model, seed: int, rng):
    sched = model.settings.schedule()
    memo: dict = {}
    for S, T, x in _proj_pairs(model, rng, 8):
        yield
        band = project_band_set((S,), T, x, sched)
        comp = project_band_set_complement((S,), T, x, sched)
        if not (band.value + comp.value).isclose(T(x), PROJ_TOL):
            return f"band+complement != T(x) at x={x.coords}"
        both = _once(memo, operator_add, S, T)
        band3 = project_band_set((S, T, both), T, x, sched)
        comp3 = project_band_set_complement((S, T, both), T, x, sched)
        if not (band3.value + comp3.value).isclose(T(x), PROJ_TOL):
            return f"three-member band+complement != T(x) at x={x.coords}"


def _check_proj_idempotence(model: Model, seed: int, rng):
    sched = model.settings.schedule()
    memo: dict = {}
    for S, T, x in _proj_pairs(model, rng, 8):
        yield
        onto_self = _once(memo, lambda T, x: project_band_set((T,), T, x, sched), T, x)
        if not onto_self.value.isclose(T(x), PROJ_TOL):
            return f"projection onto own band moved T at x={x.coords}"
    for _ in range(6):
        yield
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        S, T = inst.disjoint_positive_pair(rng, m, n)
        x = _away_from_crossings(rng, n)
        band = project_band_set((S,), T, x, sched)
        if not band.value.isclose(Vector.zero(m), PROJ_TOL):
            return f"disjoint projection nonzero: {band.value.coords}"
        comp = project_band_set_complement((S,), T, x, sched)
        if not comp.value.isclose(T(x), PROJ_TOL):
            return "disjoint complement is not all of T(x)"


def _check_proj_order(model: Model, seed: int, rng):
    sched = model.settings.schedule()
    for S, T, x in _proj_pairs(model, rng, 10):
        yield
        band = project_band_set((S,), T, x, sched).value
        if not Vector.zero(band.dim).leq(band, PROJ_TOL):
            return f"projection below 0 at x={x.coords}"
        if not band.leq(T(x), PROJ_TOL):
            return f"projection above T(x) at x={x.coords}"


def _check_proj_monotone(model: Model, seed: int, rng):
    sched = model.settings.schedule()
    for S, T, x in _proj_pairs(model, rng, 6):
        for sense in ("band", "complement"):
            yield
            profile = band_set_profile(S, T, x, sched, sense)
            for (_, a), (_, b) in zip(profile, profile[1:]):
                ordered = a.leq(b, CHECK_TOL) if sense == "band" else b.leq(a, CHECK_TOL)
                if not ordered:
                    return f"{sense} profile not monotone"
            run = (
                project_band_set((S,), T, x, sched)
                if sense == "band"
                else project_band_set_complement((S,), T, x, sched)
            )
            # the profile repeats one value object from its settled eps on
            tail = {id(v): v for e, v in profile if e <= run.stabilized_at}
            for v in tail.values():
                if not v.isclose(run.value, CHECK_TOL):
                    return f"{sense} profile moves after stabilization"


def _check_proj_oracle(model: Model, seed: int, rng):
    sched = model.settings.schedule()
    # random pairs only: the oracle contract requires probes away from kernel
    # zero-crossings, which model probes need not respect
    for S, T, x in _proj_pairs(model, rng, 12, include_model=False):
        yield
        oracle = masking_oracle(S, T, x)
        band = project_band_set((S,), T, x, sched).value
        if not band.isclose(oracle, PROJ_TOL):
            return f"formula {band.coords} != oracle {oracle.coords} at x={x.coords}"


def _check_proj_consistency(model: Model, seed: int, rng):
    sched = model.settings.schedule()
    for S, T, x in _proj_pairs(model, rng, 6):
        yield
        pr = project_principal(S, T, x, sched)
        if not pr.complement_alt.value.isclose(pr.complement.value, PROJ_TOL):
            return f"the two complement routes differ at x={x.coords}"
    for _ in range(6):
        yield
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        phi = KernelOperator((tuple(inst.positive_pwl(rng) for _ in range(n)),))
        u = Vector(tuple(float(rng.randint(0, 2)) for _ in range(m)))
        if all(c == 0.0 for c in u.coords):
            u = Vector((1.0,) + u.coords[1:])
        T = inst.positive_operator(rng, m, n)
        x = _away_from_crossings(rng, n)
        ro = project_rank_one(phi, u, T, x, sched)
        R = rank_one(phi, u)
        pr = project_principal(R, T, x, sched)
        if not ro.band.isclose(pr.band.value, PROJ_TOL):
            return "rank-one band != principal band of phi*u"
        if not ro.complement.isclose(pr.complement.value, PROJ_TOL):
            return "rank-one complement != principal complement"
        if m == 1 and u.coords[0] > 0.0:
            val = project_functional(phi, T, x, sched)
            if abs(val - project_rank_one(phi, vec(1.0), T, x, sched).band.coords[0]) > PROJ_TOL:
                return "functional projection != rank-one with u=1"


# --------------------------------------------------------------------------
# registry and driver

def _counted(cid: str, check: Callable) -> Callable:
    """The registry entry ``(model, seed) -> (cases, detail)`` of a check body.

    The body runs as ``check(model, seed, rng)``, rng keyed by (seed, cid).
    It yields once as each case starts and returns a failure message, or
    None when every case passes; detail is then None or "case N: message",
    N the number of cases started."""

    @functools.wraps(check)
    def run(model: Model, seed: int) -> tuple[int, str | None]:
        body = check(model, seed, inst.rng_for(seed, cid))
        cases = 0
        while True:
            try:
                next(body)
            except StopIteration as done:
                return cases, None if done.value is None else f"case {cases}: {done.value}"
            cases += 1

    return run


CHECKS: tuple[tuple[str, Callable], ...] = tuple(
    (cid, _counted(cid, check))
    for cid, check in (
        ("calculus-disjoint-witness", _check_disjoint_witness),
        ("calculus-meet-zero-iff", _check_meet_zero_iff),
        ("calculus-modulus-bound", _check_modulus),
        ("calculus-rk-identities", _check_rk_identities),
        ("calculus-separable-oracle", _check_rk_separable),
        ("lattice-band-sup-form", _check_lattice_band_sup),
        ("lattice-boolean-axioms", _check_lattice_boolean),
        ("lattice-fragments", _check_lattice_fragments),
        ("lattice-identities", _check_lattice_identities),
        ("lattice-order-limit-witness", _check_lattice_order_limit),
        ("lattice-principal-meet", _check_lattice_principal_meet),
        ("model-roundtrip", _check_model_roundtrip),
        ("operators-fragment-additive", _check_op_fragment_additive),
        ("operators-integral-oa", _check_op_integral_oa),
        ("operators-positivity", _check_op_positivity),
        ("operators-rank-one", _check_op_rank_one),
        ("projections-consistency", _check_proj_consistency),
        ("projections-decomposition", _check_proj_decomposition),
        ("projections-idempotence", _check_proj_idempotence),
        ("projections-monotone", _check_proj_monotone),
        ("projections-oracle", _check_proj_oracle),
        ("projections-order", _check_proj_order),
    )
)

CHECK_IDS = tuple(cid for cid, _ in CHECKS)


def run_suite(model: Model, seed: int | None = None) -> dict:
    """Run every check; returns the aggregate report (sorted by check id)."""
    if seed is None:
        seed = model.settings.seed
    rows = []
    total_pass = total_fail = 0
    for cid, fn in sorted(CHECKS):
        try:
            cases, detail = fn(model, seed)
        except UrysonError as exc:
            cases, detail = 0, f"error [{exc.code}]: {exc}"
        except (ValueError, OverflowError) as exc:
            cases, detail = 0, f"error [{NumericError.code}]: {exc}"
        ok = detail is None
        if ok:
            total_pass += 1
        else:
            total_fail += 1
        rows.append({"id": cid, "cases": cases, "ok": ok, "detail": detail})
    return {
        "seed": seed,
        "checks": rows,
        "total_pass": total_pass,
        "total_fail": total_fail,
        "ok": total_fail == 0,
    }
