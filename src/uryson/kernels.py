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

The lattice parts max(k, 0), max(-k, 0) and |k| are evaluated, not
rebuilt: `PartKernel` applies one part rule (`PART_RULES`) to k(r).  Its
decisions read k's points, k's zero crossings between them and past its
ends (where the part reads 0.0), and one point past each end; a part of a
kernel with a pwl form is positive by construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Sequence

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

    def _form(self) -> "tuple[Sequence[tuple[float, float]], Callable[[float], float]] | None":
        """(points, at) for exact decisions: points (x, value) between and
        past which the kernel is linear, and the value at reads anywhere;
        None where decisions are sampled.  Here the pwl form's breakpoints."""
        pwl = self.to_pwl()
        return None if pwl is None else (pwl.points, pwl)

    def breakpoint_args(self) -> tuple[float, ...]:
        form = self._form()
        return tuple(x for x, _ in form[0]) if form is not None else ()

    def nonneg_everywhere(self, tol: float = DEFAULT_TOL) -> bool:
        """k >= -tol on all of R: exact at the points of `_form`, sampled on
        _SAMPLE_GRID up to the first failing sample otherwise."""
        form = self._form()
        if form is not None:
            return _points_nonneg(form[0], tol)
        return all(self(r) >= -tol for r in _SAMPLE_GRID)

    def is_zero(self) -> bool:
        form = self._form()
        return form is not None and all(y == 0.0 for _, y in form[0])


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

    def descriptor(self) -> dict:
        return {"form": "pwl", "points": [[x, y] for x, y in self.points]}


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


# the lattice part of each kind at a kernel value v: max(v, 0), max(-v, 0)
# and |v|; each gives 0.0, not -0.0, at a zero and keeps NaN
PART_RULES = {
    "pos": lambda v: 0.0 if v <= 0.0 else v,
    "neg": lambda v: 0.0 if v >= 0.0 else -v,
    "abs": abs,
}


class PartKernel(ScalarKernel, _Record):
    """scale * rule(base(r)) for the part rule of kind "pos", "neg" or "abs"
    (`PART_RULES`): a lattice part of the kernel base, evaluated."""

    __slots__ = _fields = ("base", "kind", "scale")
    _defaults = {"scale": 1.0}

    def __call__(self, r: float) -> float:
        return self.scale * PART_RULES[self.kind](self.base(r))

    def scaled(self, a: float) -> "PartKernel":
        return PartKernel(self.base, self.kind, a * self.scale)

    def _form(self):
        """The base's points, its zero crossings inside segments and past its
        ends (the part reads 0.0 there; a crossing past an end that rounds
        onto the end is pinned one float out), and one point past each
        outermost one: one unit out, or |x| out from 2^53 on, where a unit
        step rounds."""
        form = self.base._form()
        if form is None:
            return None
        pts, base_at = form
        zeros = set()
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if (y0 > 0.0 > y1) or (y0 < 0.0 < y1):
                if x0 < (xc := x0 - y0 * (x1 - x0) / (y1 - y0)) < x1:
                    zeros.add(xc)
        two = pts if len(pts) > 1 else pts * 2
        for (x, y), (xn, yn), out in ((two[0], two[1], -1.0), (two[-1], two[-2], 1.0)):
            s = (y - yn) / (x - xn) if x != xn else 0.0  # the end segment's slope
            if y and s and (y > 0.0) != (out * s > 0.0):  # the base crosses 0 outward
                xc = x - y / s
                xc = xc if xc != x else math.nextafter(x, out * math.inf)
                if math.isfinite(xc):
                    zeros.add(xc)
        xs = sorted({x for x, _ in pts} | zeros)
        for x, out in ((xs[0], -1.0), (xs[-1], 1.0)):
            x += out * (1.0 if abs(x) < 2.0**53 else abs(x))
            xs += [x] if math.isfinite(x) else []
        rule, scale = PART_RULES[self.kind], self.scale

        def at(r: float) -> float:
            return 0.0 if r in zeros else scale * rule(base_at(r))

        return [(x, at(x)) for x in sorted(xs)], at

    def nonneg_everywhere(self, tol: float = DEFAULT_TOL) -> bool:
        """True by construction where the base has a `_form` and scale and
        tol are >= 0, else as for any kernel."""
        if self.scale >= 0.0 and tol >= 0.0 and self.base._form() is not None:
            return True
        return super().nonneg_everywhere(tol)

    def descriptor(self) -> dict:
        base = self.base.descriptor()
        return {"form": "part", "kind": self.kind, "scale": self.scale, "base": base}


def kernel_diff_nonneg(low: ScalarKernel, high: ScalarKernel, tol: float = DEFAULT_TOL) -> bool:
    """high - low >= -tol everywhere; exact when both sides have a `_form`.

    The difference is checked at the union of both sides' points and by its
    end slopes: the floats kernel_add(high, low.scaled(-1.0)) would hold
    (negation is exact), unbuilt.  Otherwise it is sampled on
    _SAMPLE_GRID up to the first failing sample; equal samples pass, also
    where both are infinite.
    """
    if low is high:
        return True
    lf, hf = low._form(), high._form()
    if lf is None or hf is None:
        samples = ((high(r), low(r)) for r in _SAMPLE_GRID)
        return all(h == lo or h - lo >= -tol for h, lo in samples)
    (lpts, lat), (hpts, hat) = lf, hf
    xs = sorted({x for x, _ in hpts} | {x for x, _ in lpts})
    pts = [(x, hat(x) - lat(x)) for x in xs]
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
    """a + b: the pwl kernel through the union of both sides' `_form` points,
    valued as the forms read them, or a callable sum where a side has no
    form.  A pwl sum rounds each breakpoint value a(x) + b(x) once, so it can
    lie an ulp below a at a breakpoint although b >= 0 there:
    `kernel_diff_nonneg(a, a + b, 0.0)` can be False, and any tol above
    that rounding decides it True."""
    af, bf = a._form(), b._form()
    if af is None or bf is None:
        return FuncKernel(lambda r: a(r) + b(r), label="sum")
    (apts, a_at), (bpts, b_at) = af, bf
    xs = sorted({x for x, _ in apts} | {x for x, _ in bpts})
    return PwlKernel(tuple((x, a_at(x) + b_at(x)) for x in xs))
