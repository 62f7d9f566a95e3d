"""Orthogonally additive operators between finite-dimensional vector lattices.

An operator is an m x n matrix of scalar kernels acting coordinatewise:
T(x)_i = sum_j kernels[i][j](x_j).  Because every kernel vanishes at 0, the
action is orthogonally additive by construction: T(y + z) = T(y) + T(z)
whenever y and z are disjoint.  Functionals are operators with m = 1.

The fragment programs read T(y) and T(x - y) over all fragments y of x from
`on_fragments`, which returns one list per output row in fragment order.
Its entries are the floats an application per fragment gives.  It has each
kernel evaluated at x_j and at 0 once per operator and probe, builds no
fragment Vector, and sums a row by one fsum per fragment, or integer subset
sums (its docstring says which and why).

Positivity and the operator order are decided kernel by kernel, stopping
at the first kernel (or kernel pair) that fails.  Each operator keeps its
positivity per tol and, per lower operator S and tol, the order of the pair,
so a decision is made once.  It also keeps its zero table kernels[i][j](0.0)
and the addend table of its last probe, so a table is evaluated once per
operator and probe.  Kept answers and tables are exact because kernels are
frozen and a callable kernel's `fn` is pure, which the kernels already
require.

Operators, like kernels and vectors, are records (`lattice._Record`):
frozen and slotted, with ==, hash and repr over the public fields alone
(here the kernels), and a pickle or copy rebuilds an instance from those
fields, so it carries only the kernels, not the kept decisions and tables.
"""

from __future__ import annotations

import math
import random
import weakref
from itertools import product
from typing import Callable

from .errors import C0Violation, DimensionMismatch, NegativeU, NotPositive
from .kernels import (
    DEFAULT_TOL,
    FuncKernel,
    PartKernel,
    ScalarKernel,
    ZERO_KERNEL,
    kernel_add,
    kernel_diff_nonneg,
)
from .lattice import Fragments, Vector, _Record, _vec

# `on_fragments` sums each fragment's row with one fsum when a row of the
# table has at most this many addends (2^|supp x| * n), and doubles integer
# subset sums above it.  Near the crossover measured with Python 3.11 on a
# shared 2-vCPU VM: on the tables of the benchmark's projection programs
# (96 and 384 entries per row) fsum was 1.2 to 2.5 times faster; on seeded
# positive pwl operators (m = 3 and 6, both ways of rest) the two broke
# even from 384 to 640 entries, and fsum was 1.2 times slower at 896, 1.3 to
# 1.7 times at 1024 and about 1.5 times at 2048.
FSUM_MAX_ENTRIES = 640


class KernelOperator(_Record):
    """m x n matrix of scalar kernels; rows index output coordinates.  The
    private slots keep decisions (`operator_is_positive`, `operator_leq`)
    and kernel tables, and take no part in ==, hash or repr; `operator_leq`
    holds weak references to operators."""

    __slots__ = ("kernels", "_positive", "_leq", "_at_0", "_at_x", "__weakref__")
    _fields = ("kernels",)

    def __init__(self, kernels: tuple[tuple[ScalarKernel, ...], ...]):
        rows = tuple(tuple(row) for row in kernels)
        if not rows or not rows[0]:
            raise ValueError("operator needs at least one kernel")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("kernel matrix rows must have equal length")
        setattr_ = object.__setattr__
        setattr_(self, "kernels", rows)
        setattr_(self, "_positive", {})  # tol -> whether self is positive at tol
        setattr_(self, "_leq", {})  # (id(S), tol) -> (weakref to S, whether S <= self at tol)
        setattr_(self, "_at_0", None)  # kernels[i][j](0.0), from the first use on
        setattr_(self, "_at_x", None)  # (probe x, kernels[i][j](x_j)) for the last probe

    @property
    def m(self) -> int:
        return len(self.kernels)

    @property
    def n(self) -> int:
        return len(self.kernels[0])

    def __call__(self, x: Vector) -> Vector:
        return _vec(tuple(map(math.fsum, self._values(x))))

    def kernel_values(self, x: Vector) -> list[list[float]]:
        """The addend table kernels[i][j](x_j); row sums give the evaluation."""
        return [list(row) for row in self._values(x)]

    def _values(self, x: Vector) -> tuple[tuple[float, ...], ...]:
        """The addend table as tuples, kept for the last probe.  The probe is
        matched by identity, not by ==: kernels such as abs return -0.0 at
        -0.0, so equal probes can have different tables."""
        kept = self._at_x
        if kept is not None and kept[0] is x:
            return kept[1]
        if x.dim != self.n:
            raise DimensionMismatch(f"operator expects dim {self.n}, got {x.dim}")
        table = tuple(tuple(k(c) for k, c in zip(row, x.coords)) for row in self.kernels)
        object.__setattr__(self, "_at_x", (x, table))
        return table

    def _zeros(self) -> tuple[tuple[float, ...], ...]:
        """The zero table kernels[i][j](0.0), kept from the first use on."""
        if self._at_0 is None:
            table = tuple(tuple(k(0.0) for k in row) for row in self.kernels)
            object.__setattr__(self, "_at_0", table)
        return self._at_0

    def on_fragments(self, frags: Fragments, rest: bool = False) -> list[list[float]]:
        """rows[i][k] = T(y_k)_i for the fragments y_k of x = frags.x, or
        T(x - y_k)_i with rest.

        The entries are the floats that applying T to every fragment (or to
        its complement) gives.  They are read from the kept addend tables at
        x and at 0 (`_values`, `_zeros`), and no fragment Vector is built:
        y_j is x_j on the kept support columns and 0.0 elsewhere, so
        (x - y)_j is 0.0 or x_j, and every addend of a row is one of two
        table entries (bit b of a fragment index keeps frags.supp[b]).  A
        row, 2^|supp x| * n entries, is summed in one of two ways:

        - one fsum per fragment over its addends, picked by
          itertools.product in fragment order, where a row has at most
          FSUM_MAX_ENTRIES entries, or where the table has a non-finite
          entry or is so large that fsum's partial sums may overflow.  Such
          a table is summed as an application would be: fragment by
          fragment, each row's addends in column order, then a Vector; so it
          fails as an application does, at the same fragment: OverflowError
          from fsum, or ValueError for a non-finite T(y);
        - integer subset sums otherwise: the entries are written as integers
          over one power-of-two denominator, the sum of the row's dropped
          entries is doubled once per support column, which lists the exact
          subset sums in fragment order, and each is divided by the
          denominator once.

        fsum, integer true division and (off the subnormal and overflow
        range) rounding to a float then scaling by a power of two all round
        the exact sum correctly, in any addend order, so each entry is the
        float an application gives on either path (an exact zero is 0.0).
        """
        at_x, at_0 = self._values(frags.x), self._zeros()
        kept, dropped = (at_0, at_x) if rest else (at_x, at_0)
        flat = [v for row in dropped + kept for v in row]
        total = sum(map(abs, flat))
        supp, n = frags.supp, len(at_x[0])
        # fsum's partial sums stay below sum(|v|), so they fit; NaN and inf fail
        fits = total < 2.0**1020
        if not fits or n << len(supp) <= FSUM_MAX_ENTRIES:
            # the columns reversed, so that the last choice, which product
            # varies fastest, is supp[0]'s: the sums come in fragment order
            picks = [
                product(*[(lo[j], hi[j]) if j in supp else (lo[j],) for j in reversed(range(n))])
                for lo, hi in zip(dropped, kept)
            ]
            if fits:
                return [list(map(math.fsum, p)) for p in picks]
            sums = zip(*[map(math.fsum, map(reversed, p)) for p in picks])
            return [list(row) for row in zip(*[Vector(col).coords for col in sums])]
        # each entry as an integer over one power-of-two denominator, in the
        # order of flat: the dropped rows, then the kept rows
        nums, dens = zip(*[v.as_integer_ratio() for v in flat])
        den = max(dens)
        ints = [p * (den // d) for p, d in zip(nums, dens)]
        # s * 2^-E rounds s once and scales it exactly, so it is s / den,
        # unless a result may be subnormal (den > 2^1022) or s may overflow
        # a float; those tables divide
        scale = None if den.bit_length() > 1023 or not total * den < 2.0**1022 else 1.0 / den
        size = len(ints) // 2
        rows = []
        for i in range(0, size, n):
            lo, hi = ints[i:i + n], ints[size + i:size + i + n]
            sums = [sum(lo)]
            for j in supp:
                step = hi[j] - lo[j]
                sums += [s + step for s in sums] if step else sums
            rows.append([s * scale for s in sums] if scale else [s / den for s in sums])
        return rows

    def descriptor(self) -> dict:
        return {
            "rows": self.m,
            "cols": self.n,
            "kernels": [[k.descriptor() for k in row] for row in self.kernels],
        }


def check_pair_dims(T: KernelOperator, S: KernelOperator | None, x: Vector) -> None:
    """Raise DimensionMismatch unless x fits T's input and S (when given)
    has T's shape; the one shape rule of the calculus and projection entry
    points."""
    if T.n != x.dim:
        raise DimensionMismatch(f"operator expects dim {T.n}, got {x.dim}")
    if S is not None and (S.m, S.n) != (T.m, T.n):
        raise DimensionMismatch("operators must share shape")


def functional_value(phi: KernelOperator, x: Vector) -> float:
    if phi.m != 1:
        raise DimensionMismatch("functional must have a single output coordinate")
    return phi(x).coords[0]


def zero_operator(m: int, n: int) -> KernelOperator:
    return KernelOperator(tuple(tuple(ZERO_KERNEL for _ in range(n)) for _ in range(m)))


def rank_one(
    phi: KernelOperator,
    u: Vector,
    tol: float = DEFAULT_TOL,
) -> KernelOperator:
    """Operator x -> phi(x) * u built as the kernel matrix u_i * phi-kernels.

    Positivity-based calculus assumes u >= 0, so a negative coordinate of u
    raises NegativeU.
    """
    require_rank_one(phi, u, tol)
    row = phi.kernels[0]
    return KernelOperator(tuple(tuple(k.scaled(ui) for k in row) for ui in u.coords))


def require_rank_one(phi: KernelOperator, u: Vector, tol: float) -> None:
    """Raise unless phi(.) * u is a rank-one operator the calculus accepts:
    DimensionMismatch unless phi is a functional, NegativeU unless u >= -tol."""
    if phi.m != 1:
        raise DimensionMismatch("rank-one factor phi must be a functional (one row)")
    if any(c < -tol for c in u.coords):
        raise NegativeU("direction u must be nonnegative")


class IntegralKernelSpec(_Record):
    """Data for quadrature discretization of an integral operator.

    kernel_fn(s, t, r) is the integrand kernel; s_grid are output nodes,
    t_grid input nodes, weights the (strictly positive) quadrature weights,
    one per input node.
    """

    __slots__ = _fields = ("kernel_fn", "s_grid", "t_grid", "weights")

    def __post_init__(self):
        object.__setattr__(self, "s_grid", tuple(float(v) for v in self.s_grid))
        object.__setattr__(self, "t_grid", tuple(float(v) for v in self.t_grid))
        object.__setattr__(self, "weights", tuple(float(v) for v in self.weights))
        if not self.s_grid or not self.t_grid:
            raise ValueError("grids must be nonempty")
        if len(self.weights) != len(self.t_grid):
            raise DimensionMismatch("one weight per input node required")
        if not all(w > 0.0 for w in self.weights):  # NaN fails too
            raise ValueError("quadrature weights must be strictly positive")


def discretize_integral(spec: IntegralKernelSpec) -> KernelOperator:
    """Kernel matrix with entries r -> w_j * K(s_i, t_j, r).

    Raises C0Violation if K(s_i, t_j, 0) or w_j * K(s_i, t_j, 0) != 0
    (within DEFAULT_TOL) at any grid node.
    """
    K = spec.kernel_fn
    for s in spec.s_grid:
        for t, w in zip(spec.t_grid, spec.weights):
            v0 = float(K(s, t, 0.0))
            if not abs(v0) <= DEFAULT_TOL:  # NaN fails too
                raise C0Violation(
                    f"kernel does not vanish at 0 at node (s={s:g}, t={t:g}): {v0!r}"
                )
            if not abs(w * v0) <= DEFAULT_TOL:
                raise C0Violation(
                    f"weighted kernel does not vanish at 0 at node "
                    f"(s={s:g}, t={t:g}, w={w:g}): {w * v0!r}"
                )
    rows = []
    for s in spec.s_grid:
        row = []
        for t, w in zip(spec.t_grid, spec.weights):
            def fn(r: float, s=s, t=t, w=w) -> float:
                return w * float(K(s, t, r))

            row.append(FuncKernel(fn, label=f"{w:g}*K({s:g},{t:g},.)"))
        rows.append(tuple(row))
    return KernelOperator(tuple(rows))


class ValidationReport(_Record):
    """positive: bool; order_bounded_witness: (lo, hi) Vectors;
    orthogonally_additive_ok: bool (see `validate`)."""

    __slots__ = _fields = ("positive", "order_bounded_witness", "orthogonally_additive_ok")


def validate(
    T: KernelOperator,
    box: tuple[Vector, Vector],
    samples: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ValidationReport:
    """Check T over the order interval box = [lo, hi].

    positive: every kernel nonnegative at breakpoint/endpoint/sampled
    arguments inside the box projections (exact for pwl kernels and their
    lattice parts, whose breakpoints are the points their decisions read).
    order_bounded_witness: coordinatewise [min, max] of T over the box,
    exact for pwl kernels (they attain extrema at breakpoints/endpoints).
    orthogonally_additive_ok: T(x) = T(y) + T(x - y) on sampled disjoint splits.
    """
    lo, hi = box
    if lo.dim != T.n or hi.dim != T.n:
        raise DimensionMismatch("box must match the operator input dimension")
    if not lo.leq(hi, 0.0):
        raise ValueError("box must satisfy lo <= hi")
    rng = random.Random(seed)

    col_args: list[list[float]] = []
    for j in range(T.n):
        a, b = lo.coords[j], hi.coords[j]
        args = {a, b}
        for i in range(T.m):
            args.update(x for x in T.kernels[i][j].breakpoint_args() if a < x < b)
        args.update(rng.uniform(a, b) for _ in range(samples))
        col_args.append(sorted(args))

    positive = True
    mins = [0.0] * T.m
    maxs = [0.0] * T.m
    for i in range(T.m):
        lo_sum = 0.0
        hi_sum = 0.0
        for j in range(T.n):
            vals = [T.kernels[i][j](r) for r in col_args[j]]
            if any(v < -tol for v in vals):
                positive = False
            lo_sum += min(vals)
            hi_sum += max(vals)
        mins[i], maxs[i] = lo_sum, hi_sum

    oa_ok = True
    for _ in range(samples):
        x = Vector(tuple(rng.uniform(a, b) for a, b in zip(lo.coords, hi.coords)))
        keep = [rng.random() < 0.5 for _ in range(T.n)]
        y = Vector(tuple(c if k else 0.0 for c, k in zip(x.coords, keep)))
        delta = T(x) - (T(y) + T(x - y))
        if any(abs(d) > tol for d in delta.coords):
            oa_ok = False
            break

    return ValidationReport(
        positive=positive,
        order_bounded_witness=(Vector(tuple(mins)), Vector(tuple(maxs))),
        orthogonally_additive_ok=oa_ok,
    )


def operator_is_positive(T: KernelOperator, tol: float = DEFAULT_TOL) -> bool:
    """Every kernel nonnegative on all of R (exact for pwl/builtin kernels).

    Decided once per tol: T keeps the answer, so a `FuncKernel.fn` must be
    pure.  A kernel step that raises is raised only if the check reaches
    it; T then keeps nothing.
    """
    positive = T._positive.get(tol)
    if positive is None:
        positive = all(k.nonneg_everywhere(tol) for row in T.kernels for k in row)
        T._positive[tol] = positive
    return positive


def require_positive(name: str, T: KernelOperator, tol: float = DEFAULT_TOL) -> None:
    """Raise NotPositive, naming the operator, unless T is positive."""
    if not operator_is_positive(T, tol):
        raise NotPositive(f"operator {name} must be positive")


def operator_leq(S: KernelOperator, T: KernelOperator, tol: float = DEFAULT_TOL) -> bool:
    """S <= T in the operator order, i.e. T - S positive, decided kernelwise.

    Decided once per ordered pair and tol: T keeps the answer under
    (id(S), tol) beside a weak reference to S whose callback drops the
    entry when S is collected, so T keeps no operator alive.  Kernels must
    be pure, and a kernel step that raises is handled as in
    `operator_is_positive`.
    """
    if (S.m, S.n) != (T.m, T.n):
        raise DimensionMismatch("operators must share shape")
    key = (id(S), tol)
    entry = T._leq.get(key)
    if entry is None:
        leq = all(
            kernel_diff_nonneg(sk, tk, tol)
            for srow, trow in zip(S.kernels, T.kernels)
            for sk, tk in zip(srow, trow)
        )
        entry = (weakref.ref(S, _entry_dropper(T, key)), leq)
        T._leq[key] = entry
    return entry[1]


def _entry_dropper(T: KernelOperator, key: tuple[int, float]) -> Callable[[weakref.ref], None]:
    """A weakref callback that drops T's order entry under key.  It holds T
    weakly too: a strong reference would close the cycle T -> entry ->
    weakref -> callback -> T, which only the cycle collector frees."""
    owner = weakref.ref(T)

    def drop(_ref: weakref.ref) -> None:
        T = owner()
        if T is not None:
            T._leq.pop(key, None)

    return drop


def operator_add(S: KernelOperator, T: KernelOperator) -> KernelOperator:
    """S + T kernel by kernel (`kernel_add`).  A pwl sum rounds each
    breakpoint value once, so `operator_leq(S, S + T, 0.0)` can be False for
    a positive T (25 of 300 seeded positive 2x3 pairs); at 1e-12 and at
    DEFAULT_TOL it holds on all of them."""
    if (S.m, S.n) != (T.m, T.n):
        raise DimensionMismatch("operators must share shape")
    return KernelOperator(
        tuple(
            tuple(kernel_add(sk, tk) for sk, tk in zip(srow, trow))
            for srow, trow in zip(S.kernels, T.kernels)
        )
    )


def operator_scale(T: KernelOperator, a: float) -> KernelOperator:
    return KernelOperator(tuple(tuple(k.scaled(a) for k in row) for row in T.kernels))


def positive_part(T: KernelOperator) -> KernelOperator:
    """T+ kernelwise, and T- and |T| below: each kernel's part evaluated
    (`PartKernel`), the lattice part, as fragment suprema split by column."""
    return KernelOperator(tuple(tuple(PartKernel(k, "pos") for k in row) for row in T.kernels))


def negative_part(T: KernelOperator) -> KernelOperator:
    return KernelOperator(tuple(tuple(PartKernel(k, "neg") for k in row) for row in T.kernels))


def modulus(T: KernelOperator) -> KernelOperator:
    return KernelOperator(tuple(tuple(PartKernel(k, "abs") for k in row) for row in T.kernels))
