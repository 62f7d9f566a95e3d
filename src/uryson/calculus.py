"""Lattice calculus for orthogonally additive operators.

The classical Riesz-Kantorovich expressions evaluate joins, meets, positive
and negative parts, and the modulus of operators pointwise by optimizing over
complementary fragment pairs of the probe.  On a kernel matrix those suprema
split over input coordinates, which gives an independent closed form used as
a cross-check (`rk_eval_separable`).

Disjointness: two positive operators are disjoint iff their pointwise meet
vanishes; `disjoint_witness` materializes the mask/fragment certificate and
`check_disjoint_iff` probes the epsilon-quantified two-sided characterization.
`rk_eval` and both checks read one fragment table per probe, `_Table` (the
checks its "meet" table of T(y) + S(x - y)): one row per output coordinate
from `on_fragments` (each kernel evaluated at x_j and at 0 once per
operator and probe), each row's witness picked by `lattice.first_extremum`,
the one home of the tie rule (lowest fragment bitmask) that the projection
programs share.  The converse probe of `check_disjoint_iff` sorts each
row's pairs (T(y)_i, S(x - y)_i) by the first value once and keeps the
running min of the second, the row's front: each schedule eps then costs one
bisection and one comparison per row instead of a scan of every fragment.
Fragments are tracked by index; a fragment Vector is built only for the
witnesses a result returns.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from itertools import accumulate, chain

from .errors import NotDisjoint
from .kernels import DEFAULT_TOL, PART_RULES
from .lattice import (
    DEFAULT_SUPPORT_CAP,
    IndexedFamily,
    Mask,
    Vector,
    _Record,
    first_extremum,
    fragments,
    require_positive_finite,
    require_unit,
)
from .operators import KernelOperator, check_pair_dims, require_positive

RK_KINDS = ("join", "meet", "pos", "neg", "abs")
_BINARY_KINDS = ("join", "meet")
_IFF_STEPS = 20  # check_disjoint_iff's converse probes eps * 2^-k, k < _IFF_STEPS


class RKResult(_Record):
    """Pointwise lattice value (a Vector) plus, per output coordinate, an
    attaining complementary fragment pair (lowest fragment bitmask on ties):
    argwitness[i] = (y, x - y)."""

    __slots__ = _fields = ("value", "argwitness")


def _check_kind(kind: str, T: KernelOperator, x: Vector, S: KernelOperator | None) -> None:
    """A known kind with the operators it takes, and matching shapes."""
    if kind not in RK_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {RK_KINDS}")
    binary = kind in _BINARY_KINDS
    if binary and S is None:
        raise ValueError(f"kind {kind!r} requires a second operator")
    if not binary and S is not None:
        raise ValueError(f"kind {kind!r} takes a single operator")
    check_pair_dims(T, S, x)


class _Table:
    """The fragment table of an RK kind at x, one list per output row in
    fragment order: tys = T(y); second = S(x - y) (join, meet), T(x - y)
    (abs) or None (pos, neg); rows the candidates T(y) + S(x - y),
    T(y) - T(x - y) or T(y).  best and first are each row's extremum and the
    first fragment (lowest bitmask) attaining it, and groups lists each such
    fragment, ascending, with its rows (built on access, for the disjointness
    checks, which read the "meet" table)."""

    def __init__(self, kind: str, T: KernelOperator, x: Vector, S: KernelOperator | None,
                 cap_support: int, tol: float):
        self.frags = fragments(x, cap=cap_support, tol=tol)
        self.tys = self.rows = T.on_fragments(self.frags)
        other = T if kind == "abs" else S
        self.second = None if other is None else other.on_fragments(self.frags, rest=True)
        if self.second is not None:
            combine = operator.sub if kind == "abs" else operator.add
            self.rows = [list(map(combine, t, s)) for t, s in zip(self.tys, self.second)]
        maximize = kind in ("join", "pos", "abs")
        self.best, self.first = zip(*(first_extremum(row, maximize) for row in self.rows))

    @property
    def groups(self) -> list[tuple[int, list[int]]]:
        groups: dict[int, list[int]] = {}
        for i, k in enumerate(self.first):
            groups.setdefault(k, []).append(i)
        return sorted(groups.items())


def rk_eval(
    kind: str,
    T: KernelOperator,
    x: Vector,
    S: KernelOperator | None = None,
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> RKResult:
    """Evaluate (T v S), (T ^ S), T+, T-, or |T| at x by fragment enumeration.

    kind in {"join", "meet"} requires S; {"pos", "neg", "abs"} forbid it.
    Enumeration order is ascending support bitmask, so witness ties resolve
    to the lowest fragment bitmask.
    """
    _check_kind(kind, T, x, S)
    table = _Table(kind, T, x, S, cap_support, tol)
    if table.second is not None and not all(map(math.isfinite, chain.from_iterable(table.rows))):
        raise ValueError("vector coordinates must be finite")
    # 0.0, not -0.0, where T(y) peaks at 0
    best = [0.0 - v for v in table.best] if kind == "neg" else table.best
    pairs = {k: (y, x - y) for k in set(table.first) for y in (table.frags[k],)}
    return RKResult(value=Vector(tuple(best)), argwitness=tuple(pairs[k] for k in table.first))


def rk_eval_separable(
    kind: str,
    T: KernelOperator,
    x: Vector,
    S: KernelOperator | None = None,
) -> Vector:
    """Closed form of rk_eval: optimize each input coordinate independently.

    join_i = sum_j max(t_ij(x_j), s_ij(x_j)), meet with min, pos/neg/abs with
    max(t,0)/max(-t,0)/|t| (`kernels.PART_RULES`, as `positive_part` reads).
    Every kernel is read at x_j only, so this ignores k(0) and the support
    tol: it can differ from `rk_eval` where a kernel is nonzero at 0 or a
    coordinate of x lies in (0, tol].
    """
    _check_kind(kind, T, x, S)

    tv = T._values(x)
    if S is None:
        rule = PART_RULES[kind]
        return Vector(tuple(math.fsum(map(rule, t)) for t in tv))
    cell = max if kind == "join" else min
    return Vector(tuple(math.fsum(map(cell, t, s)) for t, s in zip(tv, S._values(x))))


def check_modulus_bound(
    T: KernelOperator,
    x: Vector,
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> bool:
    """|T(x)| <= |T|(x) within tol, componentwise."""
    lhs = T(x).abs()
    rhs = rk_eval("abs", T, x, cap_support=cap_support, tol=tol).value
    return lhs.leq(rhs, tol)


class DisjointnessWitness(_Record):
    """Partition of unity plus matching fragments certifying T ^ S = 0 at x:
    masks[a] * (T(frag[a]) + S(x - frag[a])) <= eps * u for every label a
    (masks and frags are IndexedFamily values under the same labels)."""

    __slots__ = _fields = ("masks", "frags", "eps", "u")


def disjoint_witness(
    S: KernelOperator,
    T: KernelOperator,
    x: Vector,
    eps: float,
    u: Vector,
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> DisjointnessWitness:
    """Certificate for disjointness of positive S, T at probe x.

    For each output coordinate picks the complementary fragment pair
    minimizing (T(x_a) + S(x - x_a))_i (lowest fragment bitmask on ties) and
    groups coordinates by chosen pair.  Raises NotDisjoint when the pointwise
    meet is nonzero; no minimality of the witness is claimed.
    """
    require_positive("S", S, tol)
    require_positive("T", T, tol)
    check_pair_dims(T, S, x)
    require_positive_finite("eps", eps)
    require_unit(u, T.m, tol)

    table = _Table("meet", T, x, S, cap_support, tol)
    frags, meet, groups = table.frags, table.best, table.groups
    del table  # a NotDisjoint traceback keeps this frame, but not the rows
    if any(v > tol for v in meet):
        raise NotDisjoint(f"pointwise meet is nonzero: {meet}")

    labels = tuple(str(k) for k, _ in groups)
    return DisjointnessWitness(
        masks=IndexedFamily(labels, tuple(Mask.from_indices(T.m, rows) for _, rows in groups)),
        frags=IndexedFamily(labels, tuple(frags[k] for k, _ in groups)),
        eps=eps,
        u=u,
    )


def witness_products(
    S: KernelOperator, T: KernelOperator, x: Vector, w: DisjointnessWitness
) -> list[Vector]:
    """The masked vectors masks[a]*(T(frag[a]) + S(x - frag[a])), label order."""
    out = []
    for (label, mask), frag in zip(w.masks.pairs(), w.frags.items):
        out.append(mask.apply(T(frag) + S(x - frag)))
    return out


def check_disjoint_iff(
    S: KernelOperator,
    T: KernelOperator,
    xs: list[Vector],
    eps: float,
    cap_support: int = DEFAULT_SUPPORT_CAP,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Probe both directions of the epsilon characterization of disjointness.

    Forward: where the pointwise meet vanishes, build the witness and check
    mask*T(x_a) <= eps'*T(x) and mask*S(x - x_a) <= eps'*S(x) at the smallest
    probed eps'.  Converse: for each eps' in the halving schedule eps*2^-k,
    k < 20, record whether any per-coordinate fragment witness exists and,
    if so, verify meet <= eps'*(T(x) + S(x)).  A probe is flagged
    inconsistent when the two directions disagree.
    """
    require_positive("S", S, tol)
    require_positive("T", T, tol)
    require_positive_finite("eps", eps)

    probes = []
    all_ok = True
    all_disjoint = True
    for x in xs:
        check_pair_dims(T, S, x)
        table = _Table("meet", T, x, S, cap_support, tol)
        frags, tys, sxy, meet = table.frags, table.tys, table.second, table.best
        groups = table.groups
        del table  # the candidate rows are not needed past their minimum
        tx, sx = T(x).coords, S(x).coords
        disjoint = all(v <= tol for v in meet)

        # per row, the fragments sorted by T(y)_i with the running min of
        # S(x - y)_i: some fragment has T(y)_i <= a and S(x - y)_i <= b iff
        # the running min over the prefix with T(y)_i <= a is <= b
        fronts = []
        for t_row, s_row in zip(tys, sxy):
            ts, ss = zip(*sorted(zip(t_row, s_row)))
            fronts.append((ts, list(accumulate(ss, min))))

        eps_list = [eps * 0.5**k for k in range(_IFF_STEPS)]
        converse = []
        for e in eps_list:
            exists = all(
                (k := bisect_right(ts, e * tx[i] + tol)) and mins[k - 1] <= e * sx[i] + tol
                for i, (ts, mins) in enumerate(fronts)
            )
            entry = {"eps": e, "witness_exists": exists, "bound_ok": None}
            if exists:
                entry["bound_ok"] = all(meet[i] <= e * (tx[i] + sx[i]) + tol for i in range(T.m))
            converse.append(entry)

        if disjoint:
            # the witness of disjoint_witness: on its own rows each mask keeps
            # T(frag) and S(x - frag), elsewhere it gives 0
            e_min = eps_list[-1]
            two_sided = all(
                (tys[i][k] if i in rows else 0.0) <= e_min * tx[i] + tol
                and (sxy[i][k] if i in rows else 0.0) <= e_min * sx[i] + tol
                for k, rows in groups
                for i in range(T.m)
            )
            forward = {
                "labels": [str(k) for k, _ in groups],
                "masks": [[1 if i in rows else 0 for i in range(T.m)] for _, rows in groups],
                "fragments": [list(frags[k].coords) for k, _ in groups],
                "bounds_ok": two_sided,
            }
            ok = two_sided and all(c["witness_exists"] and c["bound_ok"] for c in converse)
        else:
            forward = None
            # a genuinely nonzero meet must defeat the witness at small eps
            ok = not converse[-1]["witness_exists"]
            all_disjoint = False
        all_ok = all_ok and ok

        probes.append(
            {
                "x": list(x.coords),
                "meet": list(meet),
                "disjoint": disjoint,
                "forward": forward,
                "converse": converse,
                "ok": ok,
            }
        )

    return {
        "eps0": eps,
        "steps": _IFF_STEPS,
        "probes": probes,
        "all_disjoint": all_disjoint,
        "all_ok": all_ok,
    }
