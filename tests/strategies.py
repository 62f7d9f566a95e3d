"""Shared generators of the differential tests, and the one driver that
compares the library with `reference` on them.

A `Case` holds the operands of every entry point: a positive pair (S, T)
(disjoint or perturbed, sometimes with a `HUGE` cell in each), S2 = S plus
another positive operator for the two-member set (S, S2), two mixed
operators (W, V) of pwl, builtin, zero and callable kernels for the RK kinds,
the tables and the order, a functional phi with dead columns, a functional
psi of either sign, a direction u, a probe x on `PROBE_GRID`, a schedule and
a tol.
`seeded_case` draws one from a seed and `cases` is its hypothesis strategy.
`seeded_family` and `families` draw the arguments of `order_limit_witness`.
`assert_matches_reference` compares every entry point by repr, errors
included, on fresh copies of the operators (cold) and again with the tables
and decisions the first call kept.

The planted strategies give kernels planted values: exact cancellation, a
big value with a small one riding on it, subnormals, both signed zeros and
exponents from 2^-1074 to 2^100.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

from hypothesis import strategies as st

import reference as ref
from uryson.calculus import RK_KINDS, check_disjoint_iff, disjoint_witness, rk_eval
from uryson.instances import (
    disjoint_positive_pair, perturbed_pair, positive_pwl, random_operator, random_pwl, rng_for,
)
from uryson.kernels import (
    DEFAULT_TOL, ZERO_KERNEL, BuiltinKernel, FuncKernel, PwlKernel, kernel_diff_nonneg,
)
from uryson.lattice import EpsSchedule, IndexedFamily, Mask, Vector, fragments
from uryson.operators import KernelOperator, operator_add, operator_is_positive, operator_leq
from uryson.projections import (
    band_set_profile, project_band_set, project_band_set_complement, project_functional,
    project_principal, project_rank_one,
)

TOLS = (0.0, DEFAULT_TOL, 0.25)
SCHEDULES = (
    EpsSchedule(),
    EpsSchedule(max_steps=3),
    EpsSchedule(eps0=4.0, factor=0.25, max_steps=6),
    EpsSchedule(eps0=2.0, factor=0.75, max_steps=12),
)
# grid points, zeros of both signs, and coordinates in (0, tol] for each tol
# of TOLS: outside the support, but still part of x - y
PROBE_GRID = (
    0.0, -0.0, 5e-10, 1e-9, -1e-9, 2e-9, 0.2, 0.25,
    -2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.5,
)
DIRECTION_GRID = (0.0, 0.5, 1.0, 2.0)
# positive, and 1e308 at +-1: one such entry takes on_fragments to its
# application fallback, and two of them overflow T(y) + S(x - y)
HUGE = PwlKernel(((-1.0, 1e308), (0.0, 0.0), (1.0, 1e308)))


def outcome(fn, *args, **kwargs):
    """("ok", repr of the result), or ("error", exception class, message)."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as exc:  # compared by class and message
        return "error", type(exc).__name__, str(exc)


# -- kernels and operators ----------------------------------------------------------


def mixed_kernel(rng):
    """A pwl, builtin or callable kernel; callables may have f(0) up to tol."""
    kind = rng.randrange(5)
    if kind == 0:
        return random_pwl(rng)
    if kind == 1:
        return BuiltinKernel(rng.choice(("abs", "id", "relu")), rng.choice((0.5, -1.0, 2.0)))
    if kind == 2:
        lo, hi = rng.choice((-1.0, -0.25, 0.0)), rng.choice((0.0, 0.75, 2.0))
        return BuiltinKernel("clamp", rng.choice((1.0, -3.0)), (lo, hi))
    if kind == 3:
        return ZERO_KERNEL
    off, a = rng.choice((0.0, 1e-9, -7e-10)), rng.choice((0.3, -1.25))
    return FuncKernel(lambda r, off=off, a=a: off + a * r * r + r / 3.0, label="quad")


def mixed_operator(rng, m, n):
    return KernelOperator(tuple(tuple(mixed_kernel(rng) for _ in range(n)) for _ in range(m)))


def with_kernel(T, i, j, k):
    """T with kernel k at row i, column j."""
    return KernelOperator(
        tuple(tuple(k if (r, c) == (i, j) else old for c, old in enumerate(row))
              for r, row in enumerate(T.kernels))
    )


def fresh(arg):
    """An operator equal to arg that keeps no table or decision yet (and a
    tuple of such); anything else as it is."""
    if isinstance(arg, KernelOperator):
        return KernelOperator(arg.kernels)
    if isinstance(arg, tuple) and arg and isinstance(arg[0], KernelOperator):
        return tuple(map(fresh, arg))
    return arg


# -- cases --------------------------------------------------------------------------


Case = namedtuple("Case", "S T S2 W V phi psi u x sched tol")


def seeded_case(seed, m, n, tag="reference"):
    rng = rng_for(seed, tag)
    pair = disjoint_positive_pair if seed % 2 else perturbed_pair
    S, T = pair(rng, m, n)
    S2 = operator_add(S, pair(rng, m, n)[0])
    if rng.random() < 0.2:
        # a huge cell in each: the tables fall back to applications, and
        # T(y) + S(x - y) may overflow
        i, j = rng.randrange(m), rng.randrange(n)
        S, S2 = (with_kernel(op, i, j, HUGE) for op in (S, S2))
        T = with_kernel(T, i, (j + 1) % n, HUGE)
    W, V = mixed_operator(rng, m, n), mixed_operator(rng, m, n)
    # dead columns make phi vanish on some fragments, so limit sets vary
    phi = KernelOperator(
        (tuple(positive_pwl(rng) if rng.random() < 0.6 else ZERO_KERNEL for _ in range(n)),)
    )
    psi = random_operator(rng, 1, n)
    u = Vector(tuple(rng.choice(DIRECTION_GRID) for _ in range(m)))
    x = Vector(tuple(rng.choice(PROBE_GRID) for _ in range(n)))
    return Case(S, T, S2, W, V, phi, psi, u, x, rng.choice(SCHEDULES), rng.choice(TOLS))


def pair_case(S, T, x, tol, sched=EpsSchedule()):
    """A case built from one pair alone: every other operand is S or T."""
    row = KernelOperator(S.kernels[:1])
    return Case(S, T, S, T, S, row, KernelOperator(T.kernels[:1]), Vector.ones(T.m), x, sched, tol)


@st.composite
def cases(draw, max_m, max_n):
    m, n = draw(st.integers(1, max_m)), draw(st.integers(1, max_n))
    case = seeded_case(draw(st.integers(0, 2**20)), m, n)
    return case._replace(
        x=Vector(tuple(draw(st.sampled_from(PROBE_GRID)) for _ in range(n))),
        sched=draw(st.sampled_from(SCHEDULES)),
        tol=draw(st.sampled_from(TOLS)),
    )


# -- order-limit families -----------------------------------------------------------

# the probe grid and +-1e308, whose differences overflow
FAMILY_GRID = PROBE_GRID + (1e308, -1e308)
FAMILY_EPS = (0.25, 0.5, 1.0, 4.0, 1e-12, 0.0, math.inf)
UNIT_GRID = (1.0, 1.0, 2.0, 1e-12, 0.0)


def _grid_vector(rng, dim):
    return Vector(tuple(rng.choice(FAMILY_GRID) for _ in range(dim)))


def seeded_family(seed):
    """(seq, x, eps, u, tol) for order_limit_witness: dim 1-4 and 1-6 items,
    each a grid vector, x plus a step 2^-k, or (rarely) a mask or a vector
    of another dimension; eps and u may break their rules."""
    rng = rng_for(seed, "order-limit")
    dim = rng.randint(1, 4)
    x = _grid_vector(rng, dim)
    items = []
    for k in range(rng.randint(1, 6)):
        draw = rng.random()
        if draw < 0.03:
            items.append(Mask.full(dim))
        elif draw < 0.06:
            items.append(Vector.ones(dim + 1))
        elif draw < 0.5:
            items.append(x + Vector(tuple(rng.choice((-1.0, 0.0, 1.0)) * 2.0**-k for _ in range(dim))))
        else:
            items.append(_grid_vector(rng, dim))
    u = Vector(tuple(rng.choice(UNIT_GRID) for _ in range(dim)))
    seq = IndexedFamily(tuple(str(k) for k in range(len(items))), tuple(items))
    return seq, x, rng.choice(FAMILY_EPS), u, rng.choice(TOLS)


@st.composite
def families(draw):
    """(seq, x, eps, u, tol) as `seeded_family`, items drawn from the grid
    and from x itself."""
    dim = draw(st.integers(1, 4))
    vectors = st.tuples(*[st.sampled_from(FAMILY_GRID)] * dim).map(Vector)
    x = draw(vectors)
    items = draw(st.lists(st.one_of(vectors, st.just(x)), min_size=1, max_size=6))
    u = draw(st.tuples(*[st.sampled_from(UNIT_GRID)] * dim).map(Vector))
    seq = IndexedFamily(tuple(str(k) for k in range(len(items))), tuple(items))
    return seq, x, draw(st.sampled_from(FAMILY_EPS)), u, draw(st.sampled_from(TOLS))


# -- the driver ---------------------------------------------------------------------


def on_fragments(op, x, rest, tol):
    return op.on_fragments(fragments(x, tol=tol), rest)


def entry_points(c):
    """(library function, its reference, arguments, keywords) for every entry
    point the driver compares on case c."""
    kw = {"tol": c.tol}
    for kind in RK_KINDS:
        other = c.V if kind in ("join", "meet") else None
        yield rk_eval, ref.rk_eval, (kind, c.W, c.x, other), kw
    for op in (c.W, c.T):
        for rest in (False, True):
            yield on_fragments, ref.table, (op, c.x, rest, c.tol), {}
    yield operator_is_positive, ref.operator_is_positive, (c.W, c.tol), {}
    yield operator_leq, ref.operator_leq, (c.W, c.V, c.tol), {}
    for lo, hi in zip(c.W.kernels[0], c.V.kernels[0]):
        yield kernel_diff_nonneg, ref.kernel_diff_nonneg, (lo, hi, c.tol), {}
    ones = Vector.ones(c.T.m)
    for A, B in ((c.S, c.T), (c.T, c.S)):
        yield disjoint_witness, ref.disjoint_witness, (A, B, c.x, 0.5, ones), kw
    xs = [c.x, Vector(tuple(reversed(c.x.coords))).scale(0.5)]
    for eps in (0.5, 1.0):
        yield check_disjoint_iff, ref.check_disjoint_iff, (c.S, c.T, xs, eps), kw
    A = (c.S, c.S2)
    yield project_band_set, ref.project_band_set, (A, c.T, c.x, c.sched), kw
    yield project_band_set_complement, ref.project_band_set_complement, (A, c.T, c.x, c.sched), kw
    yield project_principal, ref.project_principal, (c.S, c.T, c.x, c.sched), kw
    for sense in ("band", "complement"):
        yield band_set_profile, ref.band_set_profile, (c.S, c.T, c.x, c.sched, sense), kw
    yield project_rank_one, ref.project_rank_one, (c.phi, c.u, c.T, c.x, c.sched), kw
    for target in (KernelOperator(c.T.kernels[:1]), c.psi):
        yield project_functional, ref.project_functional, (c.phi, target, c.x, c.sched), kw


def assert_matches_reference(case):
    """Each entry point matches the reference twice on fresh operators: cold,
    then with what the first call kept."""
    for library, reference, args, kwargs in entry_points(case):
        want = outcome(reference, *args, **kwargs)
        cold = [fresh(a) for a in args]
        for _ in ("cold", "kept"):
            assert outcome(library, *cold, **kwargs) == want, (library.__name__, args)


# -- planted kernels ----------------------------------------------------------------

SUBNORMALS = (5e-324, -5e-324, 1e-310, -3e-320, 2.2250738585072014e-308 / 3)
EDGES = (0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1.0 + 2.0**-52, 2.0**53, -(2.0**53) - 2.0)


@dataclass(frozen=True)
class PlantedKernel:
    """A kernel that returns `zero` at 0 (and -0.0) and `at` anywhere else."""

    at: float
    zero: float = 0.0

    def __call__(self, r):
        return self.zero if r == 0.0 else self.at


_values = st.one_of(
    st.sampled_from(SUBNORMALS + EDGES),
    st.floats(min_value=-1e30, max_value=1e30),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-1074, 100)),
)


@st.composite
def planted_values(draw, count):
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
def planted_operators(draw, max_m=3, max_n=6):
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
