"""Exact rational references for the fragment tables.

`exact_rows` sums the float addends of every fragment row as
`fractions.Fraction`s, so `float(exact)` is the correctly rounded row with no
float arithmetic in between.  `fsum_rows` is the per-fragment `math.fsum`
loop that `KernelOperator.on_fragments` ran before its rows became exact
subset sums; it is kept here as the reference for values and for errors.
Both list one row per fragment, reading the keep flags of `keep_flags`;
`by_row` lays such a table out as `on_fragments` returns it, one list per
output row in fragment order.

`planted_operators` is a hypothesis strategy for operators whose kernels
return planted values: exact cancellation (a value next to its negation,
or a big value with a small one riding on it), subnormals, both signed
zeros and exponents from 2^-1074 to 2^100.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from uryson.lattice import Vector
from uryson.operators import KernelOperator

SUBNORMALS = (5e-324, -5e-324, 1e-310, -3e-320, 2.2250738585072014e-308 / 3)
EDGES = (0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1.0 + 2.0**-52, 2.0**53, -(2.0**53) - 2.0)


@dataclass(frozen=True)
class PlantedKernel:
    """A kernel that returns `zero` at 0 (and -0.0) and `at` anywhere else."""

    at: float
    zero: float = 0.0

    def __call__(self, r: float) -> float:
        return self.zero if r == 0.0 else self.at


def tables(T: KernelOperator, x: Vector, rest: bool):
    """The kept and dropped addend tables of on_fragments, from the kernels
    themselves (not from the tables the operator keeps)."""
    at_x = [[k(c) for k, c in zip(row, x.coords)] for row in T.kernels]
    at_0 = [[k(0.0) for k in row] for row in T.kernels]
    return (at_0, at_x) if rest else (at_x, at_0)


def keep_flags(frags):
    """keep_flags(frags)[k][j] is True iff fragment k keeps the support
    coordinate x_j: bit b of k keeps frags.supp[b]."""
    # product varies its last factor fastest, so list the coordinates
    # backwards: the first support coordinate then carries bit 0
    choices = [(False, True) if j in frags.supp else (False,) for j in range(frags.x.dim)]
    return [keep[::-1] for keep in product(*reversed(choices))]


def exact_rows(T: KernelOperator, x: Vector, frags, rest: bool = False):
    """Per fragment, the exact row sums of its addends as Fractions."""
    kept, dropped = tables(T, x, rest)
    return [
        tuple(
            sum(Fraction(k if keep_j else d) for d, k, keep_j in zip(d_row, k_row, keep))
            for d_row, k_row in zip(dropped, kept)
        )
        for keep in keep_flags(frags)
    ]


def fsum_rows(T: KernelOperator, x: Vector, frags, rest: bool = False):
    """One fsum per fragment and row, in column order, as an application
    sums; a non-finite row raises like a Vector of it."""
    kept, dropped = tables(T, x, rest)
    out = []
    for keep in keep_flags(frags):
        row = tuple(
            math.fsum(k if keep_j else d for d, k, keep_j in zip(d_row, k_row, keep))
            for d_row, k_row in zip(dropped, kept)
        )
        if not all(map(math.isfinite, row)):
            raise ValueError("vector coordinates must be finite")
        out.append(row)
    return out


def by_row(table):
    """The table transposed: per-fragment rows become per-output-row lists
    (and per-output-row lists become per-fragment lists)."""
    return [list(col) for col in zip(*table)]


def outcome(fn, *args):
    """repr of the result, or the exception's type and message."""
    try:
        return "ok", repr(fn(*args))
    except (ValueError, OverflowError) as exc:
        return "error", type(exc).__name__, str(exc)


_values = st.one_of(
    st.sampled_from(SUBNORMALS + EDGES),
    st.floats(min_value=-1e30, max_value=1e30),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-1074, 100)),
)


@st.composite
def planted_values(draw, count: int) -> list[float]:
    """count values; some repeat an earlier one negated, or with a small
    value added, so that subset sums cancel exactly or nearly."""
    values = []
    for _ in range(count):
        v = draw(_values)
        if values and draw(st.booleans()):
            w = values[draw(st.integers(0, len(values) - 1))]
            v = -w if draw(st.booleans()) else -(w + v)
        values.append(v)
    return values


@st.composite
def planted_operators(draw, max_m: int = 3, max_n: int = 6):
    """(T, x): an m x n operator of PlantedKernels and a probe whose
    coordinates are support values, signed zeros or inside (0, tol]."""
    m, n = draw(st.integers(1, max_m)), draw(st.integers(1, max_n))
    ats = draw(planted_values(m * n))
    zeros = draw(st.lists(st.sampled_from((0.0, -0.0, 5e-324, 1e-12)), min_size=m * n, max_size=m * n))
    T = KernelOperator(
        tuple(
            tuple(PlantedKernel(a, z) for a, z in zip(ats[i * n:(i + 1) * n], zeros[i * n:(i + 1) * n]))
            for i in range(m)
        )
    )
    x = Vector(tuple(draw(st.sampled_from((1.0, -2.5, 0.0, -0.0, 5e-10))) for _ in range(n)))
    return T, x
