"""The one oracle of the differential tests, written from the definitions.

Every function here recomputes a library result from the kernels alone, with
the library's signature, result record and error (class and message):

- `fragments`: the fragments y of x as Vectors, in ascending bitmask over the
  support columns |x_j| > tol (bit b keeps the b-th support column);
- `apply`: T(y) kernel by kernel at y's own coordinates; each row is the
  correctly rounded sum of its addends (`math.fsum`), and a row that fsum
  cannot sum or that is not finite raises as an application does.  `rows`
  lists T(y) or T(x - y) per fragment, `exact` the rows as Fractions;
- `Program`: the eps program over (fragment, mask) pairs, with all 2^m masks
  or a given list.  It compares feasible sets at every schedule eps with the
  eps -> 0 limit set, and takes the componentwise extremum over the limit
  set, the first pair in (fragment, mask) order attaining it as witness.
  The band and complement of a set, the principal band, `band_set_profile`,
  rank-one (phi's row repeated on every row, masked by u afterwards) and
  functional (split into T+ and T- when T is not positive) are instances;
- `rk_eval`: the RK optima over fragments with today's float composition per
  fragment, T(y)_i + S(x - y)_i or T(y)_i - T(x - y)_i; ties go to the lowest
  fragment bitmask;
- `disjoint_witness` and `check_disjoint_iff`: the meet scan (plain float
  sums, so an overflowing pair gives inf and does not raise) and the converse
  by a scan of every fragment;
- positivity and the kernel order: the plain checks with nothing kept;
- `order_limit_witness`: each coordinate i goes to the earliest label from
  which every later |x_b - x|_i <= eps*u_i + tol, found by testing every
  label.

- `part`: T+ and T- kernel by kernel from the definition, max(+-t_ij(r), 0)
  with NaN kept and 0.0 for -0.0, for `project_functional`'s split;
- `order_margin` and `exact_is_zero`: the order and zero decisions of pwl
  kernels and their lattice parts in exact arithmetic (Fractions), at the
  exact kinks of the difference, zero crossings included.

It uses the value types, `all_masks`, `principal_mask`, the validators, the
kernel types and the converse's schedule length (`calculus._IFF_STEPS`) to
build operands and results, and calls no fragment enumeration, table,
program, lattice part or entry point of the library.
"""

import ast
import math
from bisect import bisect_left
from fractions import Fraction
from functools import partial

from uryson import calculus
from uryson.calculus import RK_KINDS, DisjointnessWitness, RKResult
from uryson.errors import (
    DimensionMismatch, KernelEvalError, NoStabilization, NotConverged, NotDisjoint, NotIncreasing,
    NotPositive, SupportTooLarge,
)
from uryson.kernels import _SAMPLE_GRID, DEFAULT_TOL, FuncKernel, PartKernel
from uryson.lattice import (
    DEFAULT_SUPPORT_CAP, EpsSchedule, IndexedFamily, Mask, Vector, all_masks, principal_mask,
    require_positive_finite, require_unit,
)
from uryson.operators import KernelOperator, check_pair_dims, require_rank_one
from uryson.projections import PrincipalProjection, ProjectionResult, RankOneProjection

CAP, TOL, SCHED = DEFAULT_SUPPORT_CAP, DEFAULT_TOL, EpsSchedule()

# -- fragments and rows ---------------------------------------------------------


def fragments(x, cap=CAP, tol=TOL):
    supp = [j for j, c in enumerate(x.coords) if abs(c) > tol]
    if len(supp) > cap:
        raise SupportTooLarge(f"|supp(x)| = {len(supp)} exceeds cap {cap}")
    out = []
    for bm in range(1 << len(supp)):
        kept = {j for b, j in enumerate(supp) if bm >> b & 1}
        out.append(Vector(tuple(c if j in kept else 0.0 for j, c in enumerate(x.coords))))
    return out


def apply(T, y):
    """T(y) as a tuple: per row, the correctly rounded sum of its addends;
    raises where an application raises."""
    return Vector(
        tuple(math.fsum(k(c) for k, c in zip(row, y.coords)) for row in T.kernels)
    ).coords


def rows(T, x, frags, rest=False):
    """T(y), or T(x - y) with rest, for every fragment y in frags."""
    return [apply(T, x - y if rest else y) for y in frags]


def table(T, x, rest=False, tol=TOL):
    """T(y), or T(x - y) with rest, over the fragments of x at tol, laid out
    as `on_fragments` returns them."""
    return by_row(rows(T, x, fragments(x, tol=tol), rest))


def exact(T, y):
    """The rows of T(y) as exact sums of their addends."""
    return tuple(sum(Fraction(k(c)) for k, c in zip(row, y.coords)) for row in T.kernels)


def by_row(grid):
    """Per-fragment rows as per-output-row lists, the layout of
    `on_fragments` (and back)."""
    return [list(col) for col in zip(*grid)]


# -- positivity and the kernel order ------------------------------------------------


def points_nonneg(pts, tol):
    if any(y < -tol for _, y in pts):
        return False
    if len(pts) == 1:
        return 0.0 <= tol
    (x0, y0), (x1, y1) = pts[0], pts[1]
    (xm, ym), (xl, yl) = pts[-2], pts[-1]
    return (y1 - y0) / (x1 - x0) <= tol and (yl - ym) / (xl - xm) >= -tol


def nonneg_everywhere(k, tol):
    pwl = k.to_pwl()
    if pwl is not None:
        return points_nonneg(pwl.points, tol)
    return all(k(r) >= -tol for r in _SAMPLE_GRID)


def kernel_diff_nonneg(low, high, tol=TOL):
    if low is high:
        return True
    lp, hp = low.to_pwl(), high.to_pwl()
    if lp is None or hp is None:
        return all(high(r) - low(r) >= -tol for r in _SAMPLE_GRID)
    pts = [(x, hp(x) - lp(x)) for x in sorted({x for x, _ in hp.points + lp.points})]
    if not all(math.isfinite(y) for _, y in pts):
        raise ValueError("breakpoints must be finite")
    return points_nonneg(pts, tol)


def operator_is_positive(T, tol=TOL):
    return all(nonneg_everywhere(k, tol) for row in T.kernels for k in row)


def operator_leq(S, T, tol=TOL):
    if (S.m, S.n) != (T.m, T.n):
        raise DimensionMismatch("operators must share shape")
    return all(
        kernel_diff_nonneg(sk, tk, tol)
        for srow, trow in zip(S.kernels, T.kernels)
        for sk, tk in zip(srow, trow)
    )


def require_positive(name, T, tol):
    if not operator_is_positive(T, tol):
        raise NotPositive(f"operator {name} must be positive")


# -- lattice parts --------------------------------------------------------------------


def _part_value(sign, k, r):
    v = sign * k(r)
    return v if v > 0.0 or v != v else 0.0


def part(T, sign):
    """T+ (sign 1.0) or T- (sign -1.0): kernel by kernel max(sign * t(r), 0),
    NaN kept, 0.0 for -0.0, as callable kernels."""
    return KernelOperator(tuple(
        tuple(FuncKernel(partial(_part_value, sign, k), "part") for k in row) for row in T.kernels
    ))


_EXACT_RULES = {"pos": lambda v: max(v, 0), "neg": lambda v: max(-v, 0), "abs": abs}


def _exact(k):
    """(kinks, f): f is the pwl kernel k on Fractions (the exact lines
    through its breakpoints, extended by its end lines), or scale * rule(f)
    of the base of a PartKernel k, or the sum of a tuple k of such kernels;
    f is linear between and past the sorted kinks, which hold the base's
    kinks and its exact zero crossings (a sum's: all of its terms')."""
    if isinstance(k, tuple):
        terms = [_exact(term) for term in k]
        return sorted({r for kinks, _ in terms for r in kinks}), lambda r: sum(f(r) for _, f in terms)
    if isinstance(k, PartKernel):
        kinks, f = _exact(k.base)
        crossings = [a - f(a) * (b - a) / (f(b) - f(a))
                     for a, b in zip(kinks, kinks[1:]) if f(a) * f(b) < 0]
        for end, out in ((kinks[0], -1), (kinks[-1], 1)):
            slope = f(end + out) - f(end)  # per unit outward
            if f(end) * slope < 0:
                crossings.append(end - out * f(end) / slope)
        rule, scale = _EXACT_RULES[k.kind], Fraction(k.scale)
        return sorted({*kinks, *crossings}), lambda r: scale * rule(f(r))
    pts = [(Fraction(x), Fraction(y)) for x, y in k.to_pwl().points]
    xs = [x for x, _ in pts]
    if len(pts) == 1:
        return xs, lambda r: Fraction(0)

    def f(r):
        i = min(max(bisect_left(xs, r), 1), len(pts) - 1)
        (x0, y0), (x1, y1) = pts[i - 1], pts[i]
        return y0 + (y1 - y0) * (r - x0) / (x1 - x0)

    return xs, f


def order_margin(low, high):
    """The least tol at which `kernel_diff_nonneg(low, high, tol)` holds, in
    exact arithmetic, for pwl kernels, lattice parts of them and tuples of
    such kernels, read as their sums: it holds
    iff high - low >= -tol at every kink of either side, the slope past the
    first kink is <= tol and the slope past the last is >= -tol."""
    (lk, lf), (hk, hf) = _exact(low), _exact(high)
    kinks = sorted({*lk, *hk})
    d = {r: hf(r) - lf(r) for r in [kinks[0] - 1, *kinks, kinks[-1] + 1]}
    first, last = kinks[0], kinks[-1]
    return max(-min(d[r] for r in kinks), d[first] - d[first - 1], d[last] - d[last + 1])


def exact_is_zero(k):
    """k == 0 everywhere, exactly."""
    kinks, f = _exact(k)
    return all(f(r) == 0 for r in [kinks[0] - 1, *kinks, kinks[-1] + 1])


# -- the eps program -----------------------------------------------------------------


class Program:
    """sense "band": inf { rho T(y) + rho' T(x) : rho cons(y) <= eps*bound + tol };
    sense "complement": sup { rho T(y) : the same constraint }, both over the
    fragments y (cons[k], tys[k]: per-fragment rows) and the given masks rho.
    The mask list must hold the empty mask, so that every eps is feasible."""

    def __init__(self, sense, frags, cons, bound, tys, tx, masks, tol):
        self.band = sense == "band"
        self.frags, self.cons, self.bound, self.tys, self.tx = frags, cons, bound, tys, tx
        self.masks, self.tol, self.m = list(masks), tol, len(tx)
        self.bits = [mask.bitmask() for mask in self.masks]
        self.limit = self.feasible(None)
        self.feasible_count = tuple(
            sum(1 for c in cons if c[i] <= tol) for i in range(self.m)
        )

    def feasible(self, eps):
        """The feasible (fragment, mask) pairs at eps; eps None is the limit.
        A pair is feasible iff every row of its mask is: the mask lies within
        the fragment's feasible rows."""
        t = [self.tol if eps is None else eps * b + self.tol for b in self.bound]
        out = set()
        for k, c in enumerate(self.cons):
            rows_ok = sum(1 << i for i in range(self.m) if c[i] <= t[i])
            out.update((k, mi) for mi, bm in enumerate(self.bits) if bm & ~rows_ok == 0)
        return frozenset(out)

    def value_on(self, feas):
        """Componentwise extremum and witness (fragment, mask) over feas."""
        best = [math.inf if self.band else -math.inf] * self.m
        wit = [None] * self.m
        for k, mi in sorted(feas):
            bits = self.masks[mi].bits
            for i in range(self.m):
                v = self.tys[k][i] if bits[i] else (self.tx[i] if self.band else 0.0)
                if (v < best[i]) if self.band else (v > best[i]):
                    best[i], wit[i] = v, (self.frags[k], self.masks[mi])
        return best, wit

    def run(self, sched):
        for eps in sched.values():
            if self.feasible(eps) == self.limit:
                vals, wit = self.value_on(self.limit)
                return ProjectionResult(Vector(tuple(vals)), eps, self.feasible_count, tuple(wit))
        raise NoStabilization(f"feasible set still above its limit after {sched.max_steps} steps")

    def profile(self, sched):
        return [
            (eps, Vector(tuple(self.value_on(self.feasible(eps))[0]))) for eps in sched.values()
        ]


def masks_within(m, rows):
    """The masks of R^m whose rows all lie in rows."""
    return [mask for mask in all_masks(m) if set(mask.indices()) <= set(rows)]


def programs(sense, gens, T, x, cap, tol):
    """The program of each S in gens for T at x over all masks, built when
    drawn: constraint S(x - y) (band) or S(y) (complement) against S(x)."""
    frags = fragments(x, cap, tol)
    tys, tx = rows(T, x, frags), apply(T, x)
    for S in gens:
        cons = rows(S, x, frags, sense == "band")
        yield Program(sense, frags, cons, apply(S, x), tys, tx, all_masks(T.m), tol)


# -- projections ----------------------------------------------------------------------


def checked_set(A, T, x, tol):
    ops = tuple(A)
    if not ops:
        raise ValueError("increasing set must be nonempty")
    for op in ops:
        if (op.m, op.n) != (ops[0].m, ops[0].n):
            raise DimensionMismatch("increasing set members must share shape")
        if not operator_is_positive(op, tol):
            raise NotPositive("increasing set members must be positive")
    for a_idx, a in enumerate(ops):
        for b in ops[a_idx + 1:]:
            if not any(operator_leq(a, v, tol) and operator_leq(b, v, tol) for v in ops):
                raise NotIncreasing("no internal upper bound for a pair of members")
    require_positive("T", T, tol)
    check_pair_dims(T, ops[0], x)
    return ops


def project_set(sense, A, T, x, sched=SCHED, cap_support=CAP, tol=TOL):
    """sup (band) or inf (complement) over the members of A, per coordinate;
    the first member attaining it wins."""
    ops = checked_set(A, T, x, tol)
    runs = [p.run(sched) for p in programs(sense, ops, T, x, cap_support, tol)]
    outer = max if sense == "band" else min
    pick = [outer(runs, key=lambda r: r.value.coords[i]) for i in range(T.m)]
    return ProjectionResult(
        Vector(tuple(r.value.coords[i] for i, r in enumerate(pick))),
        min(r.stabilized_at for r in runs),
        tuple(r.feasible_count[i] for i, r in enumerate(pick)),
        tuple(r.witness[i] for i, r in enumerate(pick)),
    )


project_band_set = partial(project_set, "band")
project_band_set_complement = partial(project_set, "complement")


def project_principal(S, T, x, sched=SCHED, cap_support=CAP, tol=TOL):
    """band and complement over all masks; complement_alt = rho' T(x) plus the
    complement over the masks below rho = the principal mask of S(x)."""
    checked_set((S,), T, x, tol)
    frags = fragments(x, cap_support, tol)
    tys, tx = rows(T, x, frags), apply(T, x)
    s_rest, sx, s_y = rows(S, x, frags, rest=True), apply(S, x), rows(S, x, frags)

    def run(sense, cons, masks):
        return Program(sense, frags, cons, sx, tys, tx, masks, tol).run(sched)

    rho = principal_mask(Vector(sx), tol)
    band = run("band", s_rest, all_masks(T.m))
    comp = run("complement", s_y, all_masks(T.m))
    alt = run("complement", s_y, masks_within(T.m, rho.indices()))
    alt = alt._replace(value=rho.complement().apply(Vector(tx)) + alt.value)
    return PrincipalProjection(band, comp, alt)


def band_set_profile(S, T, x, sched=SCHED, sense="band", cap_support=CAP, tol=TOL):
    if sense not in ("band", "complement"):
        raise ValueError("sense must be 'band' or 'complement'")
    require_positive("S", S, tol)
    require_positive("T", T, tol)
    check_pair_dims(T, S, x)
    return next(programs(sense, (S,), T, x, cap_support, tol)).profile(sched)


def project_rank_one(phi, u, T, x, sched=SCHED, cap_support=CAP, tol=TOL):
    require_rank_one(phi, u, tol)
    require_positive("phi", phi, tol)
    require_positive("T", T, tol)
    if u.dim != T.m:
        raise DimensionMismatch(f"direction dim {u.dim} vs output dim {T.m}")
    check_pair_dims(phi, None, x)
    check_pair_dims(T, None, x)
    rho_u = principal_mask(u, tol)
    frags = fragments(x, cap_support, tol)
    tys, tx = rows(T, x, frags), apply(T, x)
    bound = apply(phi, x) * T.m

    def run(sense):
        cons = [c * T.m for c in rows(phi, x, frags, sense == "band")]
        return Program(sense, frags, cons, bound, tys, tx, all_masks(T.m), tol).run(sched)

    band, comp = run("band"), run("complement")
    return RankOneProjection(
        rho_u.apply(band.value),
        rho_u.complement().apply(Vector(tx)) + rho_u.apply(comp.value),
        band.stabilized_at,
        comp.stabilized_at,
    )


def project_functional(phi, T, x, sched=SCHED, cap_support=CAP, tol=TOL):
    if phi.m != 1 or T.m != 1:
        raise DimensionMismatch("phi and T must be functionals (one row)")
    require_positive("phi", phi, tol)
    check_pair_dims(T, phi, x)

    def band(part):
        return next(programs("band", (phi,), part, x, cap_support, tol)).run(sched).value.coords[0]

    if operator_is_positive(T, tol):
        return band(T)
    values = []
    for name, sign in (("T+", 1.0), ("T-", -1.0)):
        half = part(T, sign)
        require_positive(name, half, tol)
        values.append(band(half))
    return values[0] - values[1]


# -- the calculus ---------------------------------------------------------------------


def _extremum(column, maximize):
    """The extremum of column and the first index attaining it."""
    best = 0
    for k, v in enumerate(column):
        if (v > column[best]) if maximize else (v < column[best]):
            best = k
    return column[best], best


def rk_eval(kind, T, x, S=None, cap_support=CAP, tol=TOL):
    if kind not in RK_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {RK_KINDS}")
    binary = kind in ("join", "meet")
    if binary and S is None:
        raise ValueError(f"kind {kind!r} requires a second operator")
    if not binary and S is not None:
        raise ValueError(f"kind {kind!r} takes a single operator")
    check_pair_dims(T, S, x)
    frags = fragments(x, cap_support, tol)
    cands = tys = rows(T, x, frags)
    if kind in ("join", "meet", "abs"):
        second = rows(S if binary else T, x, frags, rest=True)
        if binary:
            cands = [tuple(a + b for a, b in zip(t, s)) for t, s in zip(tys, second)]
        else:
            cands = [tuple(a - b for a, b in zip(t, s)) for t, s in zip(tys, second)]
        if not all(math.isfinite(v) for c in cands for v in c):
            raise ValueError("vector coordinates must be finite")
    maximize = kind in ("join", "pos", "abs")
    best, first = zip(*(_extremum([c[i] for c in cands], maximize) for i in range(T.m)))
    if kind == "neg":
        best = [0.0 - v for v in best]
    return RKResult(Vector(tuple(best)), tuple((frags[k], x - frags[k]) for k in first))


def _meet(S, T, x, cap, tol):
    """fragments, T(y), S(x - y), the meet min_y (T(y) + S(x - y)) per row
    and the first fragment attaining it."""
    frags = fragments(x, cap, tol)
    tys, sxy = rows(T, x, frags), rows(S, x, frags, rest=True)
    meet, first = zip(
        *(_extremum([t[i] + s[i] for t, s in zip(tys, sxy)], False) for i in range(T.m))
    )
    groups = [(k, [i for i, c in enumerate(first) if c == k]) for k in sorted(set(first))]
    return frags, tys, sxy, meet, groups


def disjoint_witness(S, T, x, eps, u, cap_support=CAP, tol=TOL):
    require_positive("S", S, tol)
    require_positive("T", T, tol)
    check_pair_dims(T, S, x)
    require_positive_finite("eps", eps)
    require_unit(u, T.m, tol)
    frags, _, _, meet, groups = _meet(S, T, x, cap_support, tol)
    if any(v > tol for v in meet):
        raise NotDisjoint(f"pointwise meet is nonzero: {meet}")
    labels = tuple(str(k) for k, _ in groups)
    return DisjointnessWitness(
        IndexedFamily(labels, tuple(Mask.from_indices(T.m, r) for _, r in groups)),
        IndexedFamily(labels, tuple(frags[k] for k, _ in groups)),
        eps,
        u,
    )


def check_disjoint_iff(S, T, xs, eps, cap_support=CAP, tol=TOL):
    require_positive("S", S, tol)
    require_positive("T", T, tol)
    require_positive_finite("eps", eps)
    steps = calculus._IFF_STEPS
    probes, all_ok, all_disjoint = [], True, True
    for x in xs:
        check_pair_dims(T, S, x)
        frags, tys, sxy, meet, groups = _meet(S, T, x, cap_support, tol)
        tx, sx = apply(T, x), apply(S, x)
        disjoint = all(v <= tol for v in meet)
        eps_list = [eps * 0.5**k for k in range(steps)]
        converse = []
        for e in eps_list:
            exists = all(
                any(t[i] <= e * tx[i] + tol and s[i] <= e * sx[i] + tol for t, s in zip(tys, sxy))
                for i in range(T.m)
            )
            bound_ok = None
            if exists:
                bound_ok = all(meet[i] <= e * (tx[i] + sx[i]) + tol for i in range(T.m))
            converse.append({"eps": e, "witness_exists": exists, "bound_ok": bound_ok})
        forward = None
        if disjoint:
            # each mask keeps T(frag) and S(x - frag) on its rows and 0 elsewhere
            e = eps_list[-1]
            two_sided = all(
                (tys[k][i] if i in r else 0.0) <= e * tx[i] + tol
                and (sxy[k][i] if i in r else 0.0) <= e * sx[i] + tol
                for k, r in groups
                for i in range(T.m)
            )
            forward = {
                "labels": [str(k) for k, _ in groups],
                "masks": [[1 if i in r else 0 for i in range(T.m)] for _, r in groups],
                "fragments": [list(frags[k].coords) for k, _ in groups],
                "bounds_ok": two_sided,
            }
            ok = two_sided and all(c["witness_exists"] and c["bound_ok"] for c in converse)
        else:
            ok = not converse[-1]["witness_exists"]
            all_disjoint = False
        all_ok = all_ok and ok
        probes.append(
            {"x": list(x.coords), "meet": list(meet), "disjoint": disjoint,
             "forward": forward, "converse": converse, "ok": ok}
        )
    return {"eps0": eps, "steps": steps, "probes": probes,
            "all_disjoint": all_disjoint, "all_ok": all_ok}


# -- order limits -------------------------------------------------------------------


def order_limit_witness(seq, x, eps, u, tol=TOL):
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    require_positive_finite("eps", eps)
    require_unit(u, x.dim, tol)
    for item in seq.items:
        if not isinstance(item, Vector):
            raise ValueError("sequence items must be vectors")
        if item.dim != x.dim:
            raise DimensionMismatch(f"sequence item dim {item.dim} vs {x.dim}")
    gaps = [(b - x).abs().coords for b in seq.items]
    first = []
    for i in range(x.dim):
        stable = [
            k for k in range(len(gaps))
            if all(g[i] <= eps * u.coords[i] + tol for g in gaps[k:])
        ]
        if not stable:
            raise NotConverged(
                f"coordinate {i} never satisfies |x_b - x| <= eps*u from any index on"
            )
        first.append(stable[0])
    kept = [k for k in range(len(seq)) if k in first]
    return IndexedFamily(
        tuple(seq.labels[k] for k in kept),
        tuple(Mask.from_indices(x.dim, [i for i, f in enumerate(first) if f == k]) for k in kept),
    )


# -- model expressions --------------------------------------------------------------

EXPR_DEPTH = 64
_TOO_DEEP = f"expression nested or chained deeper than {EXPR_DEPTH}"
# the grammar's operators as Python reads them once '^' is written '**'
_EXPR_BIN = {
    ast.Add: ("+", lambda a, b: a + b), ast.Sub: ("-", lambda a, b: a - b),
    ast.Mult: ("*", lambda a, b: a * b), ast.Div: ("/", lambda a, b: a / b),
    ast.Pow: ("^", math.pow),
}
_EXPR_CALLS = {
    "abs": (1, abs), "min": (2, min), "max": (2, max),
    "exp": (1, math.exp), "sin": (1, math.sin), "cos": (1, math.cos),
}


class Expression:
    """An integral line's expression, read by Python's parser with '^'
    written '**' (the grammar's precedences and associativity are Python's:
    '^' binds right and tighter than a unary minus before it, which binds
    tighter than * and /).  Only texts free of syntax errors are read.

    faults: the messages the line may be refused with, empty where it is
    accepted: a number that is not finite, an unknown name, a wrong arity,
    and nesting too deep, that is, more than EXPR_DEPTH nodes on a path or
    EXPR_DEPTH parentheses open at once (with the expression itself, one
    level more).  tree is None where Python's parser refuses the nesting
    (200 parentheses) or the recursion limit stops the reading (a path of
    about a thousand nodes), both too deep for the grammar anyway.  Where
    accepted: text, every operation parenthesized and numbers by repr;
    height, the nodes on the longest path; and `kernel`."""

    def __init__(self, src):
        nest = deepest = 0
        for ch in src:
            nest += (ch == "(") - (ch == ")")
            deepest = max(deepest, nest)
        self.faults = {_TOO_DEEP} if deepest + 1 > EXPR_DEPTH else set()
        py = src.replace("^", "**")
        try:
            self.tree = ast.parse(py, mode="eval").body
            self.text, self.height = self._read(self.tree, py)
        except (SyntaxError, RecursionError):
            self.tree = self.text = self.height = None
            self.faults.add(_TOO_DEEP)
            return
        if self.height > EXPR_DEPTH:
            self.faults.add(_TOO_DEEP)

    def _read(self, node, src):
        """(text, height) of node; records faults, and each number's value."""
        if isinstance(node, ast.Constant):
            node.value = float(src[node.col_offset:node.end_col_offset])  # one ASCII line
            if not math.isfinite(node.value):
                self.faults.add("expression numbers must be finite")
            return repr(node.value), 1
        if isinstance(node, ast.Name):
            if node.id not in ("s", "t", "r"):
                self.faults.add(f"unknown variable {node.id!r} (expected s, t, or r)")
            return node.id, 1
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            text, height = self._read(node.operand, src)
            return f"(-{text})", height + 1
        if isinstance(node, ast.BinOp):
            (left, lh), (right, rh) = self._read(node.left, src), self._read(node.right, src)
            return f"({left}{_EXPR_BIN[type(node.op)][0]}{right})", max(lh, rh) + 1
        assert isinstance(node, ast.Call) and not node.keywords, ast.dump(node)
        name = node.func.id
        if name not in _EXPR_CALLS:
            self.faults.add(f"unknown function {name!r}")
        elif len(node.args) != _EXPR_CALLS[name][0]:
            self.faults.add(f"{name} takes {_EXPR_CALLS[name][0]} argument(s)")
        args = [self._read(a, src) for a in node.args]
        return f"{name}({','.join(t for t, _ in args)})", max(h for _, h in args) + 1

    def kernel(self, s, t, r):
        """The value at (s, t, r) as a float, or the KernelEvalError an
        integral kernel raises where an operation fails."""
        assert not self.faults
        try:
            return float(_evaluate(self.tree, {"s": s, "t": t, "r": r}))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise KernelEvalError(
                f"kernel expression failed to evaluate at (s={s:g}, t={t:g}, r={r:g}): {exc}"
            ) from exc


def _evaluate(node, env):
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        return -_evaluate(node.operand, env)
    if isinstance(node, ast.BinOp):
        a, b = _evaluate(node.left, env), _evaluate(node.right, env)
        return _EXPR_BIN[type(node.op)][1](a, b)
    return _EXPR_CALLS[node.func.id][1](*[_evaluate(a, env) for a in node.args])
