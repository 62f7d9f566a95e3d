"""Benchmark-owned inputs and reference values.

Inputs are plain data generated from the workload seed: a kernel is a tuple
of (x, y) breakpoints, an operator a tuple of kernel rows, a probe a tuple of
floats.  The generators follow the semantics of ``uryson.instances`` (grid
breakpoints, positive kernels, disjoint and perturbed pairs) but live here, so
both commits of a comparison see byte-identical inputs whatever the library's
own generators do.

The reference values are the kernelwise closed forms of the programs the
library solves by enumeration.  They evaluate the breakpoint data directly and
call nothing in ``uryson``.
"""

from __future__ import annotations

import math
import random

GRID_STEP = 0.25
GRID_SPAN = 3.0
GRID = [round(k * GRID_STEP, 2) for k in range(-12, 13)]
LEVELS = [round(0.25 * k, 2) for k in range(1, 13)]
ZERO = ((0.0, 0.0),)

TOL = 1e-9  # library default tolerance, used by every program the workloads call


# --------------------------------------------------------------------------
# generation

def positive_kernel(rng: random.Random) -> tuple:
    """Nonnegative pwl kernel on grid breakpoints, zero only at 0.

    On nonzero grid arguments its value is at least 0.25 * 0.25 / 3, so grid
    probes never land in (0, tol] -- the condition under which the masking
    and rank-one closed forms equal the epsilon programs.
    """
    neg = sorted(rng.sample([x for x in GRID if x < 0], rng.randint(1, 3)))
    pos = sorted(rng.sample([x for x in GRID if x > 0], rng.randint(1, 3)))
    if neg[0] != -GRID_SPAN:
        neg.insert(0, -GRID_SPAN)
    if pos[-1] != GRID_SPAN:
        pos.append(GRID_SPAN)
    neg_vals = sorted((rng.choice(LEVELS) for _ in neg), reverse=True)
    pos_vals = sorted(rng.choice(LEVELS) for _ in pos)
    return tuple(zip(neg, neg_vals)) + ((0.0, 0.0),) + tuple(zip(pos, pos_vals))


def signed_kernel(rng: random.Random) -> tuple:
    """Pwl kernel through the origin with grid breakpoints of either sign."""
    xs = {0.0}
    for _ in range(rng.randint(2, 4)):
        xs.add(rng.choice([x for x in GRID if x != 0.0]))
    return tuple((x, 0.0 if x == 0.0 else rng.choice(GRID)) for x in sorted(xs))


def scaled(kernel: tuple, a: float) -> tuple:
    return tuple((x, a * y) for x, y in kernel)


def positive_op(rng: random.Random, m: int, n: int) -> tuple:
    return tuple(tuple(positive_kernel(rng) for _ in range(n)) for _ in range(m))


def _row_pattern(rng: random.Random, n: int, shares: str) -> list[str]:
    """A seeded arrangement of n cells split evenly among the owners in shares.

    Every row gets the same number of cells per owner, so the work an op does
    (zero kernels evaluate faster) does not vary with the seed."""
    row = [shares[k * len(shares) // n] for k in range(n)]
    rng.shuffle(row)
    return row


def sparse_positive_op(rng: random.Random, m: int, n: int) -> tuple:
    """Positive operator with a third of each row's cells zero (seeded places)."""
    return tuple(
        tuple(ZERO if o == "z" else positive_kernel(rng) for o in _row_pattern(rng, n, "zkk"))
        for _ in range(m)
    )


def disjoint_pair(rng: random.Random, m: int, n: int) -> tuple[tuple, tuple]:
    """(S, T) positive with no cell nonzero in both: a third of each row's cells
    belongs to S, a third to T, and the rest to neither."""
    owners = [_row_pattern(rng, n, "stz") for _ in range(m)]
    S = tuple(tuple(positive_kernel(rng) if o == "s" else ZERO for o in row) for row in owners)
    T = tuple(tuple(positive_kernel(rng) if o == "t" else ZERO for o in row) for row in owners)
    return S, T


def perturbed_pair(rng: random.Random, m: int, n: int) -> tuple[tuple, tuple]:
    """A disjoint pair with a scaled positive bump injected into T on one of
    S's nonzero cells, so the pointwise meet is nonzero on full-support probes."""
    S, T = disjoint_pair(rng, m, n)
    cells = [(i, j) for i in range(m) for j in range(n) if S[i][j] != ZERO]
    i, j = rng.choice(cells)
    rows = [list(r) for r in T]
    rows[i][j] = scaled(positive_kernel(rng), 0.25)
    return S, tuple(tuple(r) for r in rows)


def grid_probe(rng: random.Random, n: int, support: int | None = None) -> tuple:
    """Probe with nonzero grid coordinates on a seeded support of the given
    size (all n coordinates by default) and zeros elsewhere."""
    supp = set(rng.sample(range(n), n if support is None else support))
    return tuple(
        rng.choice(LEVELS) * rng.choice((-1.0, 1.0)) if j in supp else 0.0
        for j in range(n)
    )


def operator_sum(A: tuple, B: tuple) -> tuple:
    """Kernelwise sum on the union of breakpoints (exact for pwl data)."""
    def add(p, q):
        xs = sorted({x for x, _ in p} | {x for x, _ in q})
        return tuple((x, kernel_at(p, x) + kernel_at(q, x)) for x in xs)

    return tuple(tuple(add(p, q) for p, q in zip(ra, rb)) for ra, rb in zip(A, B))


# --------------------------------------------------------------------------
# evaluation and closed forms

def kernel_at(points: tuple, r: float) -> float:
    """Piecewise-linear interpolation, extended with the end segments' slopes."""
    if len(points) == 1:
        return 0.0
    if r <= points[0][0]:
        (x0, y0), (x1, y1) = points[0], points[1]
    elif r >= points[-1][0]:
        (x0, y0), (x1, y1) = points[-2], points[-1]
    else:
        k = next(k for k in range(1, len(points)) if points[k][0] >= r)
        (x0, y0), (x1, y1) = points[k - 1], points[k]
    return y0 + (y1 - y0) * (r - x0) / (x1 - x0)


def addends(op: tuple, x: tuple) -> list[list[float]]:
    return [[kernel_at(k, c) for k, c in zip(row, x)] for row in op]


def apply(op: tuple, x: tuple) -> list[float]:
    return [math.fsum(row) for row in addends(op, x)]


def rk_value(kind: str, T: tuple, x: tuple, S: tuple | None = None) -> list[float]:
    """Riesz-Kantorovich value at x, optimized column by column."""
    tv = addends(T, x)
    sv = addends(S, x) if S is not None else tv
    pick = {
        "join": lambda a, b: max(a, b),
        "meet": lambda a, b: min(a, b),
        "pos": lambda a, b: max(a, 0.0),
        "neg": lambda a, b: max(-a, 0.0),
        "abs": lambda a, b: abs(a),
    }[kind]
    return [math.fsum(pick(a, b) for a, b in zip(tr, sr)) for tr, sr in zip(tv, sv)]


def masked_band(S: tuple, T: tuple, x: tuple) -> list[float]:
    """Principal band of S applied to T at x: keep T's addends where S's are nonzero."""
    return [
        math.fsum(t for s, t in zip(sr, tr) if s > TOL)
        for sr, tr in zip(addends(S, x), addends(T, x))
    ]


def rank_one_parts(phi: tuple, u: tuple, T: tuple, x: tuple) -> tuple[list[float], list[float]]:
    """(band, complement) of T for the band of phi(.)*u at x."""
    live = [kernel_at(k, c) > TOL for k, c in zip(phi[0], x)]
    band, comp = [], []
    for ui, row in zip(u, addends(T, x)):
        inside = math.fsum(t for t, on in zip(row, live) if on)
        outside = math.fsum(t for t, on in zip(row, live) if not on)
        if ui > TOL:
            band.append(inside)
            comp.append(outside)
        else:
            band.append(0.0)
            comp.append(math.fsum(row))
    return band, comp


def close(a, b, tol: float) -> bool:
    a, b = list(a), list(b)
    return len(a) == len(b) and all(abs(p - q) <= tol for p, q in zip(a, b))
