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

Feasible sets are finite and shrink as eps decreases, so the eps limit is
attained: the schedule stops at the first eps whose feasible set equals the
directly computed eps->0 limit set (from that step on the set can never
change again), and NoStabilization is raised when max_steps halvings are not
enough.  Specializations: principal band of a single operator (with an
alternative complement route through the principal mask of S(x)), rank-one
bands phi(.)*u, and functional targets.  An independent support-masking
oracle cross-checks the principal case.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import (
    DimensionMismatch,
    NegativeU,
    NoStabilization,
    NotIncreasing,
    NotPositive,
)
from .kernels import DEFAULT_TOL
from .lattice import (
    DEFAULT_SUPPORT_CAP,
    Mask,
    Vector,
    fragments,
    principal_mask,
)
from .operators import (
    KernelOperator,
    negative_part,
    operator_is_positive,
    operator_leq,
    positive_part,
    require_positive,
)


@dataclass(frozen=True)
class EpsSchedule:
    """Geometric epsilon schedule eps0 * factor^k, k = 0..max_steps-1."""

    eps0: float = 1.0
    factor: float = 0.5
    max_steps: int = 40

    def __post_init__(self):
        if self.eps0 <= 0.0:
            raise ValueError("eps0 must be positive")
        if not (0.0 < self.factor < 1.0):
            raise ValueError("factor must lie strictly between 0 and 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def values(self) -> Iterator[float]:
        eps = self.eps0
        for _ in range(self.max_steps):
            yield eps
            eps *= self.factor


@dataclass(frozen=True)
class IncreasingSet:
    """Finite set of positive operators, upward directed: every pair has an
    upper bound inside the set (checked kernelwise, exact for pwl kernels)."""

    ops: tuple[KernelOperator, ...]

    def __post_init__(self):
        ops = tuple(self.ops)
        object.__setattr__(self, "ops", ops)
        if not ops:
            raise ValueError("increasing set must be nonempty")
        shape = (ops[0].m, ops[0].n)
        for op in ops:
            if (op.m, op.n) != shape:
                raise DimensionMismatch("increasing set members must share shape")
            if not operator_is_positive(op):
                raise NotPositive("increasing set members must be positive")
        for a_idx, a in enumerate(ops):
            for b in ops[a_idx + 1:]:
                if not any(
                    operator_leq(a, v) and operator_leq(b, v) for v in ops
                ):
                    raise NotIncreasing(
                        "no internal upper bound for a pair of members"
                    )


@dataclass(frozen=True)
class ProjectionResult:
    """Stabilized projection value with diagnostics.

    stabilized_at: schedule eps at which every member's feasible set reached
    its limit.  feasible_count[i]: fragments satisfying the coordinate-i
    constraint at the limit (for the member selected at coordinate i).
    witness[i]: a (fragment, mask) pair attaining the value at coordinate i.
    """

    value: Vector
    stabilized_at: float
    feasible_count: tuple[int, ...]
    witness: tuple[tuple[Vector, Mask], ...]


def _as_increasing(A: IncreasingSet | Sequence[KernelOperator]) -> IncreasingSet:
    return A if isinstance(A, IncreasingSet) else IncreasingSet(tuple(A))


def _stabilize(
    feasible_at: Callable[[float], frozenset],
    limit_set: frozenset,
    sched: EpsSchedule,
) -> float:
    """First schedule eps whose feasible set equals the eps->0 limit set.

    Feasible sets shrink monotonically toward the limit as eps decreases, so
    once equal they stay equal; running out of steps means the program kept
    distinguishing epsilons and the value has not stabilized.
    """
    for eps in sched.values():
        if feasible_at(eps) == limit_set:
            return eps
    raise NoStabilization(
        f"feasible set still above its limit after {sched.max_steps} steps"
    )


class _MemberProgram:
    """Feasibility/value engine for one member S of the generating set.

    Feasibility is decided per (fragment y, output row i).  sense "band": row
    constraint S(x-y)_i <= eps*S(x)_i, row objective T(y)_i when feasible and
    T(x)_i otherwise, inner inf.  sense "complement": row constraint
    S(y)_i <= eps*S(x)_i, row objective T(y)_i or 0, inner sup.  Only the
    given rows may be masked in (the principal-complement route passes the
    rows of its principal mask).  masks[0] is the empty mask and masks[k + 1]
    the singleton of rows[k]: the only masks a witness can carry.
    """

    def __init__(
        self,
        S: KernelOperator,
        T: KernelOperator,
        x: Vector,
        sense: str,
        rows: Sequence[int],
        frags: list[Vector],
        tol: float,
    ):
        self.sense = sense
        self.rows = tuple(rows)
        self.masks = [Mask.empty(T.m)] + [Mask.from_indices(T.m, (i,)) for i in self.rows]
        self.frags = frags
        self.tol = tol
        self.sx = S(x)
        self.tx = T(x)
        cons_arg = (lambda y: S(x - y)) if sense == "band" else (lambda y: S(y))
        self.cons = [cons_arg(y) for y in frags]
        self.tys = [T(y) for y in frags]
        self.m = T.m

    def feasible(self, eps: float) -> frozenset:
        """The (fragment, row) pairs whose row constraint holds at eps; at
        eps = 0 this is the eps->0 limit set."""
        sx = self.sx.coords
        return frozenset(
            (yi, i)
            for yi, c in enumerate(self.cons)
            for i in self.rows
            if c.coords[i] <= eps * sx[i] + self.tol
        )

    def value_on(self, feas: frozenset) -> tuple[list[float], list[tuple[Vector, Mask]], list[int]]:
        """Componentwise extremum over the feasible pairs, with witnesses and
        per-coordinate feasible-fragment counts.

        Every row starts at the empty mask on the first fragment; a feasible
        row replaces it only when strictly better, fragments in ascending order.
        """
        minimize = self.sense == "band"
        vals = list(self.tx.coords) if minimize else [0.0] * self.m
        wit = [(self.frags[0], self.masks[0])] * self.m
        singleton = dict(zip(self.rows, self.masks[1:]))
        for yi, i in sorted(feas):
            v = self.tys[yi].coords[i]
            if (v < vals[i]) if minimize else (v > vals[i]):
                vals[i] = v
                wit[i] = (self.frags[yi], singleton[i])
        counts = [
            sum(1 for c in self.cons if c.coords[i] <= self.tol)
            for i in range(self.m)
        ]
        return vals, wit, counts

    def run(self, sched: EpsSchedule) -> ProjectionResult:
        limit = self.feasible(0.0)
        eps_at = _stabilize(self.feasible, limit, sched)
        vals, wit, counts = self.value_on(limit)
        return ProjectionResult(
            value=Vector(tuple(vals)),
            stabilized_at=eps_at,
            feasible_count=tuple(counts),
            witness=tuple(wit),
        )


def _project_set(
    sense: str,
    A: IncreasingSet | Sequence[KernelOperator],
    T: KernelOperator,
    x: Vector,
    sched: EpsSchedule,
    cap_support: int,
    tol: float,
) -> ProjectionResult:
    """Band (sup over members) or complement (inf over members) program; at
    each coordinate the first member attaining the outer extremum wins."""
    A = _as_increasing(A)
    require_positive("T", T, tol)
    ref = A.ops[0]
    if (ref.m, ref.n) != (T.m, T.n):
        raise DimensionMismatch("generating set must share the target's shape")
    if T.n != x.dim:
        raise DimensionMismatch(f"operator expects dim {T.n}, got {x.dim}")

    frags = fragments(x, cap=cap_support, tol=tol)
    runs = [
        _MemberProgram(S, T, x, sense, range(T.m), frags, tol).run(sched)
        for S in A.ops
    ]
    outer = max if sense == "band" else min
    pick = [outer(runs, key=lambda r: r.value.coords[i]) for i in range(T.m)]
    return ProjectionResult(
        value=Vector(tuple(r.value.coords[i] for i, r in enumerate(pick))),
        stabilized_at=min(r.stabilized_at for r in runs),
        feasible_count=tuple(r.feasible_count[i] for i, r in enumerate(pick)),
        witness=tuple(r.witness[i] for i, r in enumerate(pick)),
    )


def project_band_set(
    A: IncreasingSet | Sequence[KernelOperator],
    T: KernelOperator,
    x: Vector,
    sched: EpsSchedule = EpsSchedule(),
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> ProjectionResult:
    """Projection of T onto the band generated by the increasing set A, at x."""
    return _project_set("band", A, T, x, sched, cap_support, tol)


def project_band_set_complement(
    A: IncreasingSet | Sequence[KernelOperator],
    T: KernelOperator,
    x: Vector,
    sched: EpsSchedule = EpsSchedule(),
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> ProjectionResult:
    """Disjoint-complement part of T relative to the band of A, at x.

    Contract: band + complement reproduces T(x) (within 1e-7 in tests)."""
    return _project_set("complement", A, T, x, sched, cap_support, tol)


@dataclass(frozen=True)
class PrincipalProjection:
    band: ProjectionResult
    complement: ProjectionResult
    complement_alt: ProjectionResult


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
    """
    band = project_band_set((S,), T, x, sched, cap_support, tol)
    complement = project_band_set_complement((S,), T, x, sched, cap_support, tol)

    rho_sx = principal_mask(S(x), tol)
    outside = rho_sx.complement().apply(T(x))
    frags = fragments(x, cap=cap_support, tol=tol)
    inside = _MemberProgram(
        S, T, x, "complement", rho_sx.indices(), frags, tol
    ).run(sched)
    alt = dataclasses.replace(inside, value=outside + inside.value)
    return PrincipalProjection(band=band, complement=complement, complement_alt=alt)


@dataclass(frozen=True)
class RankOneProjection:
    band: Vector
    complement: Vector
    band_stabilized_at: float
    complement_stabilized_at: float


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
    """
    if phi.m != 1:
        raise DimensionMismatch("phi must be a functional (one row)")
    require_positive("phi", phi, tol)
    require_positive("T", T, tol)
    if any(c < -tol for c in u.coords):
        raise NegativeU("direction u must be nonnegative")
    if u.dim != T.m:
        raise DimensionMismatch(f"direction dim {u.dim} vs output dim {T.m}")
    if phi.n != T.n or T.n != x.dim:
        raise DimensionMismatch("phi, T, x must share the input dimension")

    rho_u = principal_mask(u, tol)
    frags = fragments(x, cap=cap_support, tol=tol)
    phix = phi(x).coords[0]
    phi_xy = [phi(x - y).coords[0] for y in frags]
    phi_y = [phi(y).coords[0] for y in frags]
    tys = [T(y) for y in frags]

    def feas_band(eps: float) -> frozenset:
        return frozenset(
            k for k, v in enumerate(phi_xy) if v <= eps * phix + tol
        )

    limit_band = frozenset(k for k, v in enumerate(phi_xy) if v <= tol)
    band_eps = _stabilize(feas_band, limit_band, sched)
    band = Vector(
        tuple(
            min(tys[k].coords[i] for k in sorted(limit_band)) if rho_u.bits[i] else 0.0
            for i in range(T.m)
        )
    )

    def feas_comp(eps: float) -> frozenset:
        return frozenset(
            k for k, v in enumerate(phi_y) if v <= eps * phix + tol
        )

    limit_comp = frozenset(k for k, v in enumerate(phi_y) if v <= tol)
    comp_eps = _stabilize(feas_comp, limit_comp, sched)
    sup_part = Vector(
        tuple(
            max(tys[k].coords[i] for k in sorted(limit_comp)) if rho_u.bits[i] else 0.0
            for i in range(T.m)
        )
    )
    complement = rho_u.complement().apply(T(x)) + sup_part
    return RankOneProjection(
        band=band,
        complement=complement,
        band_stabilized_at=band_eps,
        complement_stabilized_at=comp_eps,
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

    A signed T is split into positive and negative parts (kernelwise, which
    is the lattice split for kernel operators) and each part projected."""
    if phi.m != 1 or T.m != 1:
        raise DimensionMismatch("phi and T must be functionals (one row)")
    require_positive("phi", phi, tol)
    if phi.n != T.n or T.n != x.dim:
        raise DimensionMismatch("phi, T, x must share the input dimension")

    if not operator_is_positive(T, tol):
        pos = project_functional(phi, positive_part(T), x, sched, cap_support, tol)
        neg = project_functional(phi, negative_part(T), x, sched, cap_support, tol)
        return pos - neg

    frags = fragments(x, cap=cap_support, tol=tol)
    phix = phi(x).coords[0]
    phi_xy = [phi(x - y).coords[0] for y in frags]
    t_y = [T(y).coords[0] for y in frags]

    def feas(eps: float) -> frozenset:
        return frozenset(k for k, v in enumerate(phi_xy) if v <= eps * phix + tol)

    limit = frozenset(k for k, v in enumerate(phi_xy) if v <= tol)
    _stabilize(feas, limit, sched)
    return min(t_y[k] for k in sorted(limit))


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
    if (S.m, S.n) != (T.m, T.n):
        raise DimensionMismatch("operators must share shape")
    if T.n != x.dim:
        raise DimensionMismatch(f"operator expects dim {T.n}, got {x.dim}")
    sv = S.kernel_values(x)
    tv = T.kernel_values(x)
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
    frags = fragments(x, cap=cap_support, tol=tol)
    prog = _MemberProgram(S, T, x, sense, range(T.m), frags, tol)
    out = []
    for eps in sched.values():
        vals, _, _ = prog.value_on(prog.feasible(eps))
        out.append((eps, Vector(tuple(vals))))
    return out
