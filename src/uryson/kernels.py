"""Scalar kernels: the entries of an operator's kernel matrix.

Every kernel vanishes at 0.  Piecewise-linear kernels (sorted breakpoints,
linear extension beyond the ends with the adjacent segment's slope) are the
canonical exact form; the named builtins convert to it losslessly.  A third,
opaque callable form carries quadrature-discretized integral kernels, for
which exact decisions degrade to sampling.

Positivity and the kernel order are decided by direct checks at a given
tol: exact at the breakpoints and end slopes of the pwl form, sampled on a
fixed grid otherwise, stopping at the first failing sample.  Kernels are
frozen, and a callable kernel's `fn` must be pure (the DSL and quadrature
discretization build only pure ones): an operator keeps each decision.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

from .lattice import DEFAULT_TOL, _Record

_SAMPLE_GRID = [k / 20.0 for k in range(-160, 161)]  # fallback grid for callable kernels


class ScalarKernel:
    """Common interface.  The concrete kernels below are records
    (`lattice._Record`): frozen and slotted, equal and hashed by their
    public fields, and pickled as those fields."""

    __slots__ = ()

    def __call__(self, r: float) -> float:
        raise NotImplementedError

    def scaled(self, a: float) -> "ScalarKernel":
        raise NotImplementedError

    def to_pwl(self) -> "PwlKernel | None":
        """Exact piecewise-linear form, or None when not representable."""
        return None

    def descriptor(self) -> dict:
        raise NotImplementedError

    def breakpoint_args(self) -> tuple[float, ...]:
        pwl = self.to_pwl()
        return tuple(x for x, _ in pwl.points) if pwl is not None else ()

    def nonneg_everywhere(self, tol: float = DEFAULT_TOL) -> bool:
        """k >= -tol on all of R: exact for pwl-representable kernels,
        sampled on _SAMPLE_GRID up to the first failing sample otherwise."""
        pwl = self.to_pwl()
        if pwl is not None:
            return _points_nonneg(pwl.points, tol)
        return all(self(r) >= -tol for r in _SAMPLE_GRID)

    def is_zero(self) -> bool:
        pwl = self.to_pwl()
        if pwl is not None:
            return all(y == 0.0 for _, y in pwl.points)
        return False


class PwlKernel(ScalarKernel, _Record):
    """Piecewise-linear kernel given by breakpoints (x, value), strictly
    increasing in x, containing (0, 0); extended linearly beyond the ends."""

    __slots__ = ("points", "_xs")
    _fields = ("points",)

    def __init__(self, points: Sequence[tuple[float, float]]):
        object.__setattr__(self, "points", points)
        self.__post_init__()

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("kernel needs at least one breakpoint")
        if any(not (math.isfinite(x) and math.isfinite(y)) for x, y in pts):
            raise ValueError("breakpoints must be finite")
        for k in range(len(pts) - 1):
            if pts[k][0] >= pts[k + 1][0]:
                raise ValueError("breakpoints must be strictly increasing")
        at0 = [y for x, y in pts if x == 0.0]
        if not at0 or at0[0] != 0.0:
            raise ValueError("kernel must vanish at 0: include breakpoint (0, 0)")
        object.__setattr__(self, "_xs", tuple(x for x, _ in pts))

    @property
    def first_slope(self) -> float:
        p = self.points
        if len(p) == 1:
            return 0.0
        return (p[1][1] - p[0][1]) / (p[1][0] - p[0][0])

    @property
    def last_slope(self) -> float:
        p = self.points
        if len(p) == 1:
            return 0.0
        return (p[-1][1] - p[-2][1]) / (p[-1][0] - p[-2][0])

    def __call__(self, r: float) -> float:
        pts = self.points
        if len(pts) == 1:
            return 0.0
        k = bisect_left(self._xs, r)
        if k < len(pts) and self._xs[k] == r:
            return pts[k][1]  # exact at breakpoints
        if k == 0:
            x0, y0 = pts[0]
            return y0 + self.first_slope * (r - x0)
        if k == len(pts):
            xl, yl = pts[-1]
            return yl + self.last_slope * (r - xl)
        (x0, y0), (x1, y1) = pts[k - 1], pts[k]
        return y0 + (y1 - y0) * (r - x0) / (x1 - x0)

    def scaled(self, a: float) -> "PwlKernel":
        return PwlKernel(tuple((x, a * y) for x, y in self.points))

    def to_pwl(self) -> "PwlKernel":
        return self

    def add(self, other: "PwlKernel") -> "PwlKernel":
        xs = sorted(set(self._xs) | set(other._xs))
        return PwlKernel(tuple((x, self(x) + other(x)) for x in xs))

    def sub(self, other: "PwlKernel") -> "PwlKernel":
        return self.add(other.scaled(-1.0))

    def min_max_on(self, lo: float, hi: float) -> tuple[float, float]:
        """Exact min/max of the kernel over [lo, hi]."""
        if lo > hi:
            raise ValueError("empty interval")
        vals = [self(lo), self(hi)]
        vals.extend(y for x, y in self.points if lo < x < hi)
        return min(vals), max(vals)

    def pos_part(self) -> "PwlKernel":
        """Exact pointwise max(k, 0), incl. correct flat/crossing tails."""
        pts = list(self.points)
        if len(pts) == 1:
            return self
        aug: list[tuple[float, float]] = []
        for k in range(len(pts) - 1):
            (x0, y0), (x1, y1) = pts[k], pts[k + 1]
            aug.append((x0, y0))
            if (y0 > 0.0 > y1) or (y0 < 0.0 < y1):
                xc = x0 - y0 * (x1 - x0) / (y1 - y0)
                if x0 < xc < x1:
                    aug.append((xc, 0.0))
        aug.append(pts[-1])
        mapped = [(x, y if y > 0.0 else 0.0) for x, y in aug]

        front: list[tuple[float, float]] = []
        x0, y0 = pts[0]
        s0 = self.first_slope
        if y0 > 0.0 and s0 > 0.0:
            xc = x0 - y0 / s0
            front = [(xc - 1.0, 0.0), (xc, 0.0)]
        elif y0 <= 0.0 and s0 >= 0.0:
            front = [(x0 - 1.0, 0.0)]
        elif y0 <= 0.0 and s0 < 0.0:
            xc = x0 - y0 / s0
            if xc < x0:
                front = [(xc - 1.0, -s0), (xc, 0.0)]
            else:
                front = [(x0 - 1.0, -s0)]

        tail: list[tuple[float, float]] = []
        xl, yl = pts[-1]
        sl = self.last_slope
        if yl > 0.0 and sl < 0.0:
            xc = xl - yl / sl
            tail = [(xc, 0.0), (xc + 1.0, 0.0)]
        elif yl <= 0.0 and sl <= 0.0:
            tail = [(xl + 1.0, 0.0)]
        elif yl <= 0.0 and sl > 0.0:
            xc = xl - yl / sl
            if xc > xl:
                tail = [(xc, 0.0), (xc + 1.0, sl)]
            else:
                tail = [(xl + 1.0, sl)]

        merged = front + mapped + tail
        out: list[tuple[float, float]] = []
        for x, y in merged:
            if out and x <= out[-1][0]:
                continue
            out.append((x, y))
        return PwlKernel(tuple(out))

    def neg_part(self) -> "PwlKernel":
        return self.scaled(-1.0).pos_part()

    def abs_kernel(self) -> "PwlKernel":
        return self.pos_part().add(self.neg_part())

    def descriptor(self) -> dict:
        return {"form": "pwl", "points": [[x, y] for x, y in self.points]}


ZERO_KERNEL = PwlKernel(((0.0, 0.0),))

_BUILTIN_NAMES = ("abs", "id", "relu", "clamp")


class BuiltinKernel(ScalarKernel, _Record):
    """scale * base(r) where base is abs, id, relu, or clamp(lo, hi) with lo <= 0 <= hi."""

    __slots__ = ("name", "scale", "params", "_pwl")
    _fields = ("name", "scale", "params")
    _defaults = {"scale": 1.0, "params": ()}

    def __post_init__(self):
        object.__setattr__(self, "_pwl", None)  # the pwl form, from the first to_pwl on
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.name not in _BUILTIN_NAMES:
            raise ValueError(f"unknown builtin kernel {self.name!r}")
        if not all(math.isfinite(v) for v in (self.scale, *self.params)):
            raise ValueError("kernel scale and parameters must be finite")
        if self.name == "clamp":
            if len(self.params) != 2:
                raise ValueError("clamp takes two parameters (lo, hi)")
            lo, hi = self.params
            if not (lo <= 0.0 <= hi):
                raise ValueError("kernel must vanish at 0: clamp needs lo <= 0 <= hi")
        elif self.params:
            raise ValueError(f"{self.name} takes no parameters")

    def __call__(self, r: float) -> float:
        if self.name == "abs":
            v = r if r >= 0.0 else -r
        elif self.name == "id":
            v = r
        elif self.name == "relu":
            v = r if r > 0.0 else 0.0
        else:
            lo, hi = self.params
            v = min(max(r, lo), hi)
        return self.scale * v

    def scaled(self, a: float) -> "BuiltinKernel":
        return BuiltinKernel(self.name, a * self.scale, self.params)

    def to_pwl(self) -> PwlKernel:
        """The pwl form, built on the first call and kept on the kernel."""
        if self._pwl is None:
            object.__setattr__(self, "_pwl", self._build_pwl())
        return self._pwl

    def _build_pwl(self) -> PwlKernel:
        s = self.scale
        if self.name == "abs":
            pts = [(-1.0, s), (0.0, 0.0), (1.0, s)]
        elif self.name == "id":
            pts = [(-1.0, -s), (0.0, 0.0), (1.0, s)]
        elif self.name == "relu":
            pts = [(-1.0, 0.0), (0.0, 0.0), (1.0, s)]
        else:
            lo, hi = self.params
            pts = [(lo - 1.0, s * lo), (lo, s * lo), (0.0, 0.0), (hi, s * hi), (hi + 1.0, s * hi)]
        out: list[tuple[float, float]] = []
        for x, y in pts:
            if out and x <= out[-1][0]:
                continue
            out.append((x, y))
        return PwlKernel(tuple(out))

    def descriptor(self) -> dict:
        return {
            "form": "builtin",
            "name": self.name,
            "params": list(self.params),
            "scale": self.scale,
        }


class FuncKernel(ScalarKernel, _Record):
    """Opaque callable kernel (used by quadrature discretization).

    Must vanish at 0 within tol; exactness guarantees of the pwl form do not
    apply -- positivity checks are sampled.  fn must be pure: an operator
    decides positivity and order once per tol and keeps the result.
    """

    # fn(r) -> float; factors: scalings, applied in order to fn's value
    __slots__ = _fields = ("fn", "label", "factors")
    _defaults = {"label": "callable", "factors": ()}

    def __post_init__(self):
        v0 = self(0.0)
        if not abs(v0) <= DEFAULT_TOL:  # NaN fails too
            raise ValueError(f"kernel must vanish at 0 (got {v0!r})")

    def __call__(self, r: float) -> float:
        v = float(self.fn(r))
        for a in self.factors:
            v = a * v
        return v

    def scaled(self, a: float) -> "FuncKernel":
        return FuncKernel(self.fn, f"{a:g}*({self.label})", self.factors + (a,))

    def descriptor(self) -> dict:
        return {"form": "callable", "label": self.label}


def kernel_diff_nonneg(low: ScalarKernel, high: ScalarKernel, tol: float = DEFAULT_TOL) -> bool:
    """high - low >= -tol everywhere; exact when both sides are pwl-representable.

    The pwl difference is checked at the union of both breakpoint sets and by
    its two end slopes, the same floats (negation is exact) that hp.sub(lp)
    would store, without building it.  Otherwise it is sampled on
    _SAMPLE_GRID up to the first failing sample; equal samples pass, also
    where both are infinite.
    """
    if low is high:
        return True
    lp, hp = low.to_pwl(), high.to_pwl()
    if lp is None or hp is None:
        samples = ((high(r), low(r)) for r in _SAMPLE_GRID)
        return all(h == lo or h - lo >= -tol for h, lo in samples)
    pts = [(x, hp(x) - lp(x)) for x in sorted(set(hp._xs) | set(lp._xs))]
    if not all(math.isfinite(y) for _, y in pts):
        raise ValueError("breakpoints must be finite")
    return _points_nonneg(pts, tol)


def _points_nonneg(pts: Sequence[tuple[float, float]], tol: float) -> bool:
    """The pwl kernel through the breakpoints pts is >= -tol on all of R:
    every breakpoint value is, and neither end slope leads below it."""
    if any(y < -tol for _, y in pts):
        return False
    if len(pts) == 1:
        return 0.0 <= tol
    (x0, y0), (x1, y1) = pts[0], pts[1]
    (xm, ym), (xl, yl) = pts[-2], pts[-1]
    return (y1 - y0) / (x1 - x0) <= tol and (yl - ym) / (xl - xm) >= -tol


def kernel_add(a: ScalarKernel, b: ScalarKernel) -> ScalarKernel:
    """a + b: the pwl kernel through the union of both breakpoint sets, or a
    callable sum.  A pwl sum rounds each breakpoint value a(x) + b(x) once,
    so it can lie an ulp below a at a breakpoint although b >= 0 there:
    `kernel_diff_nonneg(a, a + b, 0.0)` can be False, and any tol above
    that rounding decides it True."""
    ap, bp = a.to_pwl(), b.to_pwl()
    if ap is not None and bp is not None:
        return ap.add(bp)
    return FuncKernel(lambda r: a(r) + b(r), label="sum")


def kernel_pos_part(k: ScalarKernel) -> ScalarKernel:
    pwl = k.to_pwl()
    if pwl is not None:
        return pwl.pos_part()
    return FuncKernel(lambda r: max(k(r), 0.0), label=f"pos({getattr(k, 'label', '?')})")


def kernel_neg_part(k: ScalarKernel) -> ScalarKernel:
    return kernel_pos_part(k.scaled(-1.0))
