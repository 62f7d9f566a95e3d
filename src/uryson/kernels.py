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

A pwl kernel's positive part is built in one pass: the breakpoints with
their values clamped at 0, the zero crossings inside segments, and one end
rule applied at both ends, so each extension keeps the kernel's slope.
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

    def pos_part(self) -> "PwlKernel":
        """Pointwise max(k, 0), built in one pass.  Its values at k's
        breakpoints are k's clamped at 0, exactly; each zero crossing is
        rounded once; and each extension keeps k's slope, up to one
        rounding (`_end_anchors`, one rule for both ends)."""
        pts = self.points
        if len(pts) == 1:
            return self
        body: list[tuple[float, float]] = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            body.append((x0, y0 if y0 > 0.0 else 0.0))
            if (y0 > 0.0 > y1) or (y0 < 0.0 < y1):
                xc = x0 - y0 * (x1 - x0) / (y1 - y0)
                if x0 < xc < x1:
                    body.append((xc, 0.0))
        (xf, yf), (xl, yl) = pts[0], pts[-1]
        body.append((xl, yl if yl > 0.0 else 0.0))
        front = _end_anchors(xf, yf, -self.first_slope, -1.0, pts[1][1])
        tail = _end_anchors(xl, yl, self.last_slope, 1.0, pts[-2][1])
        return PwlKernel(_increasing(front[::-1] + body + tail))

    def descriptor(self) -> dict:
        return {"form": "pwl", "points": [[x, y] for x, y in self.points]}


def _end_anchors(x: float, y: float, d: float, out: float, y_next: float) -> list:
    """The positive part's anchors past the end (x, y), listed outward (out
    is -1 on the left, +1 on the right; d is the slope per unit outward):
    the crossing and one point past it where y and d have opposite signs;
    else one point past the end where y <= 0, or where the end segment
    crosses 0 (y_next < 0) and so runs to a rounded crossing, to pin slope
    d; else none.  Each point holds the extension's value clamped at 0.

    A point past v steps one unit out where |v| < 2^53.  From 2^53 on,
    where v +- 1 rounds to v or two units away, it steps |v| (exactly, to
    2v), or one float where that overflows.  A crossing that rounds onto a
    positive end value moves one float out, so that it keeps the end value.
    An anchor that is not finite means the extension overflows: ValueError,
    except for the point past a positive end, which is left out so that a
    finite positive part stays finite."""
    if d < 0.0 < y or y < 0.0 < d:
        xc = x - out * y / d
        if xc == x and y > 0.0:
            xc = math.nextafter(x, out * math.inf)
        anchors = [(xc, 0.0), _past(xc, 0.0, d, out)]
    elif y <= 0.0:
        anchors = [_past(x, 0.0, d, out)]
    elif y_next < 0.0:
        anchor = _past(x, y, d, out)
        return [anchor] if all(map(math.isfinite, anchor)) else []
    else:
        return []
    if not all(math.isfinite(v) for point in anchors for v in point):
        raise ValueError("positive part: the extension past an end overflows")
    return anchors


def _past(v: float, w: float, d: float, out: float) -> tuple[float, float]:
    """The point one step out from (v, w) on slope d, clamped at 0."""
    for step in (1.0,) if abs(v) < 2.0**53 else (abs(v), math.ulp(v)):
        a, value = v + out * step, w + d * step
        if math.isfinite(a) and math.isfinite(value):
            break
    return a, value if value > 0.0 else 0.0


def _increasing(pts: Sequence[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """pts less every point whose x does not exceed the last kept point's."""
    kept: list[tuple[float, float]] = []
    for x, y in pts:
        if not kept or x > kept[-1][0]:
            kept.append((x, y))
    return tuple(kept)


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
        return PwlKernel(_increasing(pts))

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
    its end slopes, the floats hp.add(lp.scaled(-1.0)) would hold (negation
    is exact), unbuilt.  Otherwise it is sampled on _SAMPLE_GRID up to the
    first failing sample; equal samples pass, also where both are infinite.
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
