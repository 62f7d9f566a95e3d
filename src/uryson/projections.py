"""Order projections of positive operators onto bands generated by operator sets.

Band values are computed from the epsilon-quantified fragment/mask programs:

  band(A, T)(x)       = sup_{eps, S in A} inf { rho*T(y) + rho'*T(x) :
                          y fragment of x, rho a mask, rho*S(x-y) <= eps*S(x) }
  complement(A, T)(x) = inf_{eps, S in A} sup { rho*T(y) : rho*S(y) <= eps*S(x) }

with rho' the complementary mask.  On F = R^m the order projections rho are
coordinate masks, and both the constraint and the objective split by output
row: (y, rho) is feasible iff every row i in rho is feasible for y, and row i
of the objective depends only on whether i is in rho.  The extremum over all
2^m masks is therefore attained on the empty mask or a singleton {i}, and the
programs decide feasibility per (fragment, row) and use only those m + 1
masks.  Witnesses keep the tie-break of the full enumeration in ascending
bitmask order: the first fragment attaining the extremum, with the smallest
mask that does.

Feasible sets (per row, the fragments whose row constraint holds) are
finite and move monotonically toward their eps->0 limit as eps decreases, so
the limit is attained: the schedule stops at the first eps whose feasible
set equals the directly computed limit set, and NoStabilization is raised
when max_steps halvings are not enough.  That test reads two scalars per row
from one scan of the constraints (the largest constraint inside the limit
set and the smallest outside it), so no feasible set is rebuilt per eps.

All five programs are instances of one engine, `_MemberProgram`, which reads
precomputed rows as `on_fragments` lays them out, one list per output row in
fragment order: the constraints, the bound they are held against, the
objective T(y) and the start value T(x).  One builder, `_programs`,
enumerates the fragments once and yields a program per generator over
shared T(y) and T(x) rows (each kernel evaluated at x_j and at 0 once per
operator and probe) for the band and complement of a set, the principal band
(whose two complement routes reuse its rows with S(y)), the functional band
and the profile.  Programs track fragments by index and build a fragment
Vector only for the witnesses a result returns; the profile reuses the limit
value from the first settled eps on.  A rank-one band phi(.)*u repeats the
constraint row phi(x - y) or phi(y) on every output row and masks the
result by u afterwards.  An independent support-masking oracle cross-checks
the principal case.  A generating set is any sequence of operators, decided
by one check (`_checked_set`) positive and upward directed at the call's
tol, like every other operator check: a member above every member (at most
k^2 order decisions for k members), else an upper bound for every pair.  A
one-member set's result is its member's.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    DimensionMismatch,
    NoStabilization,
    NotIncreasing,
    NotPositive,
)
from .kernels import DEFAULT_TOL
from .lattice import (
    DEFAULT_SUPPORT_CAP,
    EpsSchedule,
    Fragments,
    Mask,
    Vector,
    _Record,
    _vec,
    first_extremum,
    fragments,
    principal_mask,
)
from .operators import (
    KernelOperator,
    check_pair_dims,
    negative_part,
    operator_is_positive,
    operator_leq,
    positive_part,
    require_positive,
    require_rank_one,
)


class ProjectionResult(_Record):
    """Stabilized projection value (a Vector) with diagnostics.

    stabilized_at: schedule eps at which every member's feasible set reached
    its limit.  feasible_count[i]: fragments satisfying the coordinate-i
    constraint at the limit (for the member selected at coordinate i).
    witness[i]: a (fragment, mask) pair attaining the value at coordinate i.
    """

    __slots__ = _fields = ("value", "stabilized_at", "feasible_count", "witness")


def _checked_set(
    A: Sequence[KernelOperator], T: KernelOperator, x: Vector, tol: float
) -> tuple[KernelOperator, ...]:
    """A as a tuple, decided at tol to be a generating set: nonempty, its
    members of one shape and positive, and upward directed; then T positive
    and all shapes matching.  Directed is decided kernelwise (exact for pwl
    kernels): first by a top member t, reading a <= t for each member a,
    itself included, and stopping at t's first failure; only without one,
    by an upper bound in A for every pair, as all refusals are.  Each
    operator keeps its positivity, and each ordered pair its order, per tol
    from the first decision on, so deciding a set again at that tol
    evaluates no kernel."""
    ops = tuple(A)
    if not ops:
        raise ValueError("increasing set must be nonempty")
    shape = (ops[0].m, ops[0].n)
    for op in ops:
        if (op.m, op.n) != shape:
            raise DimensionMismatch("increasing set members must share shape")
        if not operator_is_positive(op, tol):
            raise NotPositive("increasing set members must be positive")
    if len(ops) > 1 and not any(all(operator_leq(a, t, tol) for a in ops) for t in ops):
        for a_idx, a in enumerate(ops):
            for b in ops[a_idx + 1:]:
                if not any(operator_leq(a, v, tol) and operator_leq(b, v, tol) for v in ops):
                    raise NotIncreasing("no internal upper bound for a pair of members")
    require_positive("T", T, tol)
    check_pair_dims(T, ops[0], x)
    return ops


@lru_cache(maxsize=64)
def _row_masks(m: int) -> tuple[Mask, ...]:
    """The empty mask of R^m, then the singleton of each row; masks are
    immutable, so every program of width m shares them."""
    return (Mask.empty(m),) + tuple(Mask.from_indices(m, (i,)) for i in range(m))


class _MemberProgram:
    """Feasibility/value engine over precomputed rows, one per output row.

    cons[i][k] is the constraint value of fragment k at output row i, bound
    the vector it is held against (S(x), or phi(x) repeated), tys[i][k] the
    objective T(frag k)_i, and tx = T(x).  sense "band": row constraint
    cons_i <= eps*bound_i, row objective T(y)_i when feasible and T(x)_i
    otherwise, inner inf.  sense "complement": same constraint, row objective
    T(y)_i or 0, inner sup.  Only the given rows may be masked in (the
    principal-complement route passes the rows of its principal mask).
    masks[0] is the empty mask and masks[k + 1] the singleton of rows[k]: the
    only masks a witness can carry.

    One scan of the constraint rows gives the eps->0 limit set (per given
    row, the fragments with cons_i <= tol), its size per output row, and per
    given row two scalars: the largest constraint inside the limit set and
    the smallest outside it.  feasible(eps) is {cons_i <= eps*bound_i + tol},
    so it equals the limit set iff the first scalar is <= eps*bound_i + tol
    and the second is not.  This holds for a slightly negative bound_i too.
    """

    def __init__(
        self,
        sense: str,
        rows: Sequence[int],
        frags: Fragments,
        cons: list[list[float]],
        bound: tuple[float, ...],
        tys: list[list[float]],
        tx: tuple[float, ...],
        tol: float,
    ):
        self.sense = sense
        self.rows = tuple(rows)
        self.m = len(tx)
        shared = _row_masks(self.m)
        self.masks = [shared[0]] + [shared[i + 1] for i in self.rows]
        self.frags = frags
        self.cons = cons
        self.bound = bound
        self.tys = tys
        self.start = tx if sense == "band" else (0.0,) * self.m
        self.tol = tol
        inside = [tuple(k for k, c in enumerate(row) if c <= tol) for row in cons]
        self.feasible_count = tuple(map(len, inside))
        self.limit = tuple(inside[i] for i in self.rows)
        # per given row: (i, largest constraint in the limit set, smallest
        # outside it), None where that side is empty, from one scan
        self._edges = []
        for i in self.rows:
            hi = lo = None
            for c in cons[i]:
                if c <= tol:
                    if hi is None or c > hi:
                        hi = c
                elif lo is None or c < lo:
                    lo = c
            self._edges.append((i, hi, lo))

    def feasible(self, eps: float) -> tuple[tuple[int, ...], ...]:
        """Per given row, the ascending indices of the fragments whose row
        constraint holds at eps; at eps = 0 this is the eps->0 limit set."""
        return tuple(
            tuple(k for k, c in enumerate(self.cons[i]) if c <= eps * self.bound[i] + self.tol)
            for i in self.rows
        )

    def settled(self, eps: float) -> bool:
        """feasible(eps) == limit, decided from the two scalars per row."""
        for i, hi, lo in self._edges:
            t = eps * self.bound[i] + self.tol
            if (hi is not None and not hi <= t) or (lo is not None and lo <= t):
                return False
        return True

    def value_on(self, feas: tuple) -> tuple[list[float], list[tuple[int, Mask]]]:
        """Componentwise extremum over the feasible pairs, with witnesses as
        (fragment index, mask).

        Candidate 0 of every row is its start value on the empty mask and the
        first fragment; the feasible fragments follow in ascending order, and
        `first_extremum` keeps the first candidate attaining the extremum.
        """
        maximize = self.sense == "complement"
        vals = list(self.start)
        wit = [(0, self.masks[0])] * self.m
        for i, singleton, ks in zip(self.rows, self.masks[1:], feas):
            vals[i], pick = first_extremum([vals[i]] + [self.tys[i][k] for k in ks], maximize)
            if pick:
                wit[i] = (ks[pick - 1], singleton)
        return vals, wit

    def run(self, sched: EpsSchedule) -> ProjectionResult:
        """The value on the eps->0 limit set, stabilized at the first schedule
        eps whose feasible set equals it (feasible sets move monotonically
        toward the limit as eps decreases, so once equal they stay equal)."""
        for eps in sched.values():
            if self.settled(eps):
                vals, wit = self.value_on(self.limit)
                frags = {k: self.frags._at(k) for k, _ in wit}
                return ProjectionResult(
                    _vec(tuple(vals)), eps, self.feasible_count,
                    tuple((frags[k], mask) for k, mask in wit),
                )
        raise NoStabilization(
            f"feasible set still above its limit after {sched.max_steps} steps"
        )


def _programs(
    sense: str, gens: Sequence[KernelOperator], T: KernelOperator, x: Vector,
    cap_support: int, tol: float,
) -> Iterator[_MemberProgram]:
    """One program per generator S, built when drawn, over shared rows: the
    fragments y of x, T(y) and T(x).  The constraint is S(x - y) (band) or
    S(y) (complement) against S(x); the caller has checked the inputs."""
    frags = fragments(x, cap=cap_support, tol=tol)
    tys, tx = T.on_fragments(frags), T(x).coords
    return (
        _MemberProgram(
            sense, range(T.m), frags, S.on_fragments(frags, rest=sense == "band"),
            S(x).coords, tys, tx, tol,
        )
        for S in gens
    )


def _project_set(
    sense: str,
    A: Sequence[KernelOperator],
    T: KernelOperator,
    x: Vector,
    sched: EpsSchedule,
    cap_support: int,
    tol: float,
) -> ProjectionResult:
    """Band (sup over members) or complement (inf over members) program; at
    each coordinate the first member attaining the outer extremum wins."""
    ops = _checked_set(A, T, x, tol)
    runs = [p.run(sched) for p in _programs(sense, ops, T, x, cap_support, tol)]
    if len(runs) == 1:
        return runs[0]
    outer = max if sense == "band" else min
    pick = [outer(runs, key=lambda r: r.value.coords[i]) for i in range(T.m)]
    return ProjectionResult(
        Vector(tuple(r.value.coords[i] for i, r in enumerate(pick))),
        min(r.stabilized_at for r in runs),
        tuple(r.feasible_count[i] for i, r in enumerate(pick)),
        tuple(r.witness[i] for i, r in enumerate(pick)),
    )


def project_band_set(
    A: Sequence[KernelOperator],
    T: KernelOperator,
    x: Vector,
    sched: EpsSchedule = EpsSchedule(),
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> ProjectionResult:
    """Projection of T onto the band generated by the increasing set A (a
    sequence of positive operators, upward directed at tol), at x."""
    return _project_set("band", A, T, x, sched, cap_support, tol)


def project_band_set_complement(
    A: Sequence[KernelOperator],
    T: KernelOperator,
    x: Vector,
    sched: EpsSchedule = EpsSchedule(),
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> ProjectionResult:
    """Disjoint-complement part of T relative to the band of A, at x.

    Contract: band + complement reproduces T(x) (within 1e-7 in tests)."""
    return _project_set("complement", A, T, x, sched, cap_support, tol)


class PrincipalProjection(_Record):
    """The band, complement and complement_alt ProjectionResults of
    `project_principal`."""

    __slots__ = _fields = ("band", "complement", "complement_alt")


def project_principal(
    S: KernelOperator,
    T: KernelOperator,
    x: Vector,
    sched: EpsSchedule = EpsSchedule(),
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> PrincipalProjection:
    """Projection onto the principal band of a single positive S, at x.

    complement_alt recomputes the complement by the second route: the part of
    T(x) outside the principal mask of S(x), plus a sup over masks below that
    principal mask.  Contract: complement_alt matches complement within 1e-7.
    The three programs share the fragments, T(y), S(y), S(x - y) and S(x).
    """
    _checked_set((S,), T, x, tol)
    prog = next(_programs("band", (S,), T, x, cap_support, tol))
    # the band program holds S(x) as its bound and starts at T(x)
    sx, tx = prog.bound, prog.start
    s_y = S.on_fragments(prog.frags)

    def complement(rows):
        return _MemberProgram("complement", rows, prog.frags, s_y, sx, prog.tys, tx, tol).run(sched)

    band, comp = prog.run(sched), complement(range(T.m))
    rho_sx = principal_mask(Vector(sx), tol)
    inside = complement(rho_sx.indices())
    alt = inside._replace(value=rho_sx.complement().apply(Vector(tx)) + inside.value)
    return PrincipalProjection(band=band, complement=comp, complement_alt=alt)


class RankOneProjection(_Record):
    """The band and complement Vectors of `project_rank_one`, each with the
    schedule eps at which it stabilized."""

    __slots__ = _fields = ("band", "complement", "band_stabilized_at", "complement_stabilized_at")


def project_rank_one(
    phi: KernelOperator,
    u: Vector,
    T: KernelOperator,
    x: Vector,
    sched: EpsSchedule = EpsSchedule(),
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> RankOneProjection:
    """Projection of positive T onto the band of the rank-one operator
    phi(.) * u (phi a positive functional, u >= 0), at x.

    band       = sup_eps inf { mask_u * T(y) : phi(x - y) <= eps * phi(x) }
    complement = mask_u' * T(x)
                 + inf_eps sup { mask_u * T(y) : phi(y) <= eps * phi(x) }

    Both run on every row and are masked by mask_u afterwards, so the
    stabilization steps do not depend on u.
    """
    require_rank_one(phi, u, tol)
    require_positive("phi", phi, tol)
    require_positive("T", T, tol)
    if u.dim != T.m:
        raise DimensionMismatch(f"direction dim {u.dim} vs output dim {T.m}")
    check_pair_dims(phi, None, x)
    check_pair_dims(T, None, x)

    rho_u = principal_mask(u, tol)
    frags = fragments(x, cap=cap_support, tol=tol)
    tys = T.on_fragments(frags)
    tx = T(x)
    phix = phi(x).coords * T.m

    def program(sense):
        # every row carries phi's one constraint row
        cons = phi.on_fragments(frags, rest=sense == "band") * T.m
        return _MemberProgram(
            sense, range(T.m), frags, cons, phix, tys, tx.coords, tol
        ).run(sched)

    band, comp = program("band"), program("complement")
    return RankOneProjection(
        band=rho_u.apply(band.value),
        complement=rho_u.complement().apply(tx) + rho_u.apply(comp.value),
        band_stabilized_at=band.stabilized_at,
        complement_stabilized_at=comp.stabilized_at,
    )


def project_functional(
    phi: KernelOperator,
    T: KernelOperator,
    x: Vector,
    sched: EpsSchedule = EpsSchedule(),
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> float:
    """Projection of the functional T onto the band of the positive
    functional phi, at x:  sup_eps inf { T(y) : phi(x - y) <= eps * phi(x) }.

    A T not decided positive is split once into positive and negative parts
    (kernelwise, which is the lattice split for kernel operators) and each
    part projected; a part not decided positive either raises NotPositive."""
    if phi.m != 1 or T.m != 1:
        raise DimensionMismatch("phi and T must be functionals (one row)")
    require_positive("phi", phi, tol)
    check_pair_dims(T, phi, x)

    def band(part: KernelOperator) -> float:
        prog = next(_programs("band", (phi,), part, x, cap_support, tol))
        return prog.run(sched).value.coords[0]

    if operator_is_positive(T, tol):
        return band(T)
    values = []
    for name, part in (("T+", positive_part(T)), ("T-", negative_part(T))):
        require_positive(name, part, tol)
        values.append(band(part))
    return values[0] - values[1]


def masking_oracle(
    S: KernelOperator,
    T: KernelOperator,
    x: Vector,
    tol: float = DEFAULT_TOL,
) -> Vector:
    """Independent oracle for the principal band value: zero T's addends
    wherever the matching S kernel vanishes at the probe.

    Agrees with the band formula for positive pairs probed away from kernel
    zero crossings."""
    require_positive("S", S, tol)
    require_positive("T", T, tol)
    check_pair_dims(T, S, x)
    sv = S._values(x)
    tv = T._values(x)
    return Vector(
        tuple(
            math.fsum(t for s, t in zip(sv[i], tv[i]) if abs(s) > tol)
            for i in range(T.m)
        )
    )


def band_set_profile(
    S: KernelOperator,
    T: KernelOperator,
    x: Vector,
    sched: EpsSchedule = EpsSchedule(),
    sense: str = "band",
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> list[tuple[float, Vector]]:
    """Inner optimum at every schedule eps for a single member (diagnostic).

    Values are monotone along the schedule: nondecreasing for the band
    program, nonincreasing for the complement program."""
    if sense not in ("band", "complement"):
        raise ValueError("sense must be 'band' or 'complement'")
    require_positive("S", S, tol)
    require_positive("T", T, tol)
    check_pair_dims(T, S, x)
    prog = next(_programs(sense, (S,), T, x, cap_support, tol))

    def value(feas):
        return Vector(tuple(prog.value_on(feas)[0]))

    out, final = [], None
    for eps in sched.values():
        # once settled, every later feasible set is the limit set
        if final is None and prog.settled(eps):
            final = value(prog.limit)
        out.append((eps, value(prog.feasible(eps)) if final is None else final))
    return out
