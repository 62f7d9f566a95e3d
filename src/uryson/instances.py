"""Seeded random instances for self-checks.

Everything here is deterministic given (seed, tag): each generator owns a
``random.Random`` keyed by that pair, so adding a new check never reshuffles
the instances an existing check sees.  Values live on a coarse grid (multiples
of 0.25 in [-3, 3]) to keep arithmetic well away from float noise.
"""

from __future__ import annotations

import random

from .kernels import ZERO_KERNEL, PwlKernel, ScalarKernel
from .lattice import Vector
from .operators import KernelOperator

__all__ = [
    "rng_for",
    "grid_vector",
    "nonneg_grid_vector",
    "random_pwl",
    "positive_pwl",
    "random_operator",
    "positive_operator",
    "disjoint_positive_pair",
    "perturbed_pair",
    "decreasing_to",
]

GRID_STEP = 0.25
GRID_SPAN = 3.0
_GRID = [round(k * GRID_STEP, 2) for k in range(-12, 13)]
_NEG_GRID = [x for x in _GRID if x < 0]
_POS_GRID = [x for x in _GRID if x > 0]
_LEVELS = [round(0.25 * k, 2) for k in range(1, 13)]  # of a positive_pwl kernel
_MAX_BREAKPOINTS = 5  # of a random_pwl kernel, the origin included
_OVERLAP_SCALE = 0.25  # of the bump perturbed_pair injects


def rng_for(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def grid_vector(rng: random.Random, dim: int) -> Vector:
    return Vector(tuple(rng.choice(_GRID) for _ in range(dim)))


def nonneg_grid_vector(rng: random.Random, dim: int) -> Vector:
    return Vector(tuple(abs(rng.choice(_GRID)) for _ in range(dim)))


def random_pwl(rng: random.Random) -> PwlKernel:
    """A kernel with grid breakpoints through the origin; sign unconstrained."""
    extra = rng.randint(0, _MAX_BREAKPOINTS - 1)
    xs = {0.0}
    while len(xs) < extra + 1:
        x = rng.choice(_GRID)
        if x != 0.0:
            xs.add(x)
    pts = tuple(
        (x, 0.0 if x == 0.0 else rng.choice(_GRID)) for x in sorted(xs)
    )
    return PwlKernel(pts)


def positive_pwl(rng: random.Random) -> PwlKernel:
    """A kernel that is >= 0 everywhere and >= 0.25 on the grid away from 0.

    Values decrease toward 0 from the left and increase from the right, so
    both end extensions stay nonnegative.
    """
    neg_xs = sorted(rng.sample(_NEG_GRID, rng.randint(1, 3)))
    pos_xs = sorted(rng.sample(_POS_GRID, rng.randint(1, 3)))
    if neg_xs[0] != -GRID_SPAN:
        neg_xs.insert(0, -GRID_SPAN)
    if pos_xs[-1] != GRID_SPAN:
        pos_xs.append(GRID_SPAN)
    neg_vals = sorted((rng.choice(_LEVELS) for _ in neg_xs), reverse=True)
    pos_vals = sorted(rng.choice(_LEVELS) for _ in pos_xs)
    pts = (
        tuple(zip(neg_xs, neg_vals))
        + ((0.0, 0.0),)
        + tuple(zip(pos_xs, pos_vals))
    )
    return PwlKernel(pts)


def random_operator(rng: random.Random, m: int, n: int) -> KernelOperator:
    return KernelOperator(
        tuple(tuple(random_pwl(rng) for _ in range(n)) for _ in range(m))
    )


def positive_operator(rng: random.Random, m: int, n: int) -> KernelOperator:
    return KernelOperator(
        tuple(tuple(positive_pwl(rng) for _ in range(n)) for _ in range(m))
    )


def disjoint_positive_pair(
    rng: random.Random, m: int, n: int
) -> tuple[KernelOperator, KernelOperator]:
    """Two positive operators whose kernel supports never overlap.

    Each matrix cell is assigned to one side (or neither), so the pointwise
    meet vanishes identically.  On a 1x1 shape one side is the zero operator
    (which is disjoint to everything).
    """
    while True:
        owners = [[rng.choice("stz") for _ in range(n)] for _ in range(m)]
        flat = [o for row in owners for o in row]
        if len(flat) == 1 or ("s" in flat and "t" in flat):
            break
    s_rows: list[tuple[ScalarKernel, ...]] = []
    t_rows: list[tuple[ScalarKernel, ...]] = []
    for row in owners:
        s_rows.append(
            tuple(positive_pwl(rng) if o == "s" else ZERO_KERNEL for o in row)
        )
        t_rows.append(
            tuple(positive_pwl(rng) if o == "t" else ZERO_KERNEL for o in row)
        )
    return KernelOperator(tuple(s_rows)), KernelOperator(tuple(t_rows))


def perturbed_pair(
    rng: random.Random, m: int, n: int
) -> tuple[KernelOperator, KernelOperator]:
    """A disjoint pair with one overlap injected, so the meet is nonzero."""
    while True:
        S, T = disjoint_positive_pair(rng, m, n)
        cells = [
            (i, j)
            for i in range(m)
            for j in range(n)
            if not S.kernels[i][j].is_zero()
        ]
        if cells:
            break
    i, j = rng.choice(cells)
    bump = positive_pwl(rng).scaled(_OVERLAP_SCALE)
    rows = [list(r) for r in T.kernels]
    rows[i][j] = bump
    return S, KernelOperator(tuple(tuple(r) for r in rows))


def decreasing_to(x: Vector, *, steps: int = 6) -> list[Vector]:
    """A sequence decreasing coordinatewise to ``x`` (x + 2^-k on the side)."""
    ones = Vector.ones(x.dim)
    return [x + ones.scale(2.0 ** -k) for k in range(steps)] + [x]
