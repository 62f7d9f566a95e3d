import math
import random

import pytest

import reference as ref
from uryson.kernels import (
    DEFAULT_TOL,
    ZERO_KERNEL,
    BuiltinKernel,
    FuncKernel,
    PartKernel,
    PwlKernel,
    kernel_add,
    kernel_diff_nonneg,
)
from uryson.calculus import rk_eval
from uryson.lattice import vec
from uryson.operators import KernelOperator, modulus, positive_part

HAT = PwlKernel(((-2.0, 2.0), (-1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (3.0, 2.0)))
# the parts from their definition, -0.0 read as 0.0
MAXIMA = {"pos": lambda v: max(v, 0.0) + 0.0, "neg": lambda v: max(-v, 0.0) + 0.0, "abs": abs}


def test_pwl_interpolates_and_extends():
    assert HAT(0.0) == 0.0
    assert HAT(0.5) == 0.5
    assert HAT(2.0) == 1.5  # between (1,1) and (3,2)
    assert HAT(5.0) == 3.0  # linear extension with the last slope
    assert HAT(-3.0) == 3.0  # linear extension with the first slope
    assert HAT.first_slope == -1.0
    assert HAT.last_slope == 0.5


def test_pwl_validation():
    with pytest.raises(ValueError, match="vanish at 0"):
        PwlKernel(((1.0, 2.0),))
    with pytest.raises(ValueError, match="strictly increasing"):
        PwlKernel(((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="finite"):
        PwlKernel(((0.0, math.inf),))


def test_pwl_algebra_is_exact():
    other = PwlKernel(((-1.0, 0.5), (0.0, 0.0), (2.0, 1.0)))
    s = kernel_add(HAT, other)
    d = kernel_add(HAT, other.scaled(-1.0))
    for r in (-3.0, -1.5, -1.0, -0.25, 0.0, 0.3, 1.0, 2.0, 2.5, 4.0):
        assert s(r) == HAT(r) + other(r)
        assert d(r) == HAT(r) - other(r)


def test_pos_part_splits_kernel():
    signed = PwlKernel(((-1.0, -1.0), (0.0, 0.0), (1.0, 2.0)))
    p = PartKernel(signed, "pos")
    n = PartKernel(signed, "neg")
    mod = modulus(KernelOperator(((signed,),)))
    for r in (-5.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0):
        assert p(r) == max(signed(r), 0.0)
        assert n(r) == max(-signed(r), 0.0)
        assert p(r) - n(r) == signed(r)
        assert mod(vec(r)).coords == (abs(signed(r)),)


def test_pos_part_inserts_crossings():
    # the sign change at r = 2 is not a breakpoint of the input; decisions
    # read it, with the part's value pinned to 0.0, and one unit past each end
    k = PwlKernel(((0.0, 0.0), (1.0, 1.0), (3.0, -1.0)))
    p = PartKernel(k, "pos")
    assert p(2.0) == 0.0
    for r in (0.5, 1.5, 2.0, 2.5, 3.0, 4.0):
        assert p(r) == max(k(r), 0.0)
    assert p.breakpoint_args() == (-1.0, 0.0, 1.0, 2.0, 3.0, 4.0)
    assert PartKernel(k, "neg").breakpoint_args() == (-1.0, 0.0, 1.0, 2.0, 3.0, 4.0)
    assert not p.is_zero() and p.nonneg_everywhere(0.0)
    rebuilt = PwlKernel(((-1.0, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.0)))
    assert kernel_diff_nonneg(p, rebuilt, 0.0) and kernel_diff_nonneg(rebuilt, p, 0.0)


@pytest.mark.parametrize("points,side", [
    (((-2.0, 1e-12), (-1.0, -1.0), (0.0, 0.0)), -1.0),
    (((0.0, 0.0), (1.0, -1.0), (2.0, 1e-12)), 1.0),
], ids=["left", "right"])
def test_parts_keep_the_end_slope_past_a_crossing_in_the_end_segment(points, side):
    # the end value is positive and the extension stays positive, but the
    # end segment crosses 0: the piece from the end to the rounded crossing
    # must not set the extension's slope
    T = KernelOperator(((PwlKernel(points),),))
    for far in (3.0, 1002.0):
        x = vec(side * far)
        assert repr(positive_part(T)(x)) == repr(rk_eval("pos", T, x).value)
        assert repr(modulus(T)(x)) == repr(rk_eval("abs", T, x).value)
    assert positive_part(T)(vec(side * 3.0)).coords == (1.0000000000020002,)


@pytest.mark.parametrize("points", [
    ((0.0, 0.0), (1e-300, -3.0), (1.0, 1e308)),  # the value one unit out overflows
    ((-1e300, 5e-324), (-1.0, -1.0), (0.0, 0.0)),  # one unit out rounds onto the end
    ((-1.0, 1e-20), (-0.5, 1.0), (0.0, 0.0)),  # the crossing past -1 rounds onto it
], ids=["overflow", "collapse", "crossing-on-end"])
def test_pos_part_adds_no_anchor_that_is_not_a_float_past_the_end(points):
    p = PartKernel(PwlKernel(points), "pos")
    for x, y in points:
        assert p(x) == max(y, 0.0)
    assert all(math.isfinite(x) for x in p.breakpoint_args())
    assert p.nonneg_everywhere(0.0)


@pytest.mark.parametrize("points,probes", [
    # one unit past 2e17 rounds onto the end
    (((0.0, 0.0), (1e17, -1.0), (2e17, 0.0)), (3e17, 4e17)),
    # one unit past the crossing at 2^53 + 2 rounds two units away
    (((0.0, 0.0), (2.0**53 - 2, -2.0), (2.0**53, -1.0)), (2.0**54, 2.0**55)),
    # the crossing rounds onto the positive end value
    (((-1e300, 1e-300), (-1.0, 2.0), (0.0, 0.0)), (-1.5e300, -4e300)),
    # a step of |x| past the crossing near 1e308 overflows, so one float is taken
    (((0.0, 0.0), (1e300, -1.0), (1e308, -1e-10)), (1.5e308, 1.7e308)),
], ids=["unit-step-collapses", "unit-step-doubles", "crossing-on-end", "far-step-overflows"])
def test_pos_part_keeps_far_ends_and_their_slopes(points, probes):
    k = PwlKernel(points)
    p = PartKernel(k, "pos")
    for x, y in points:
        assert p(x) == max(y, 0.0)
    for r in probes:
        assert repr(p(r)) == repr(max(k(r), 0.0))


def test_pos_part_of_an_overflowing_extension_reads_the_clamped_value():
    # the last slope is inf, so the kernel reads +-inf past its ends; the
    # part reads the kernel's value clamped at 0 and needs no anchor
    k = PwlKernel(((-1e300, 5e-324), (-1e-300, -1e300), (0.0, 0.0)))
    p = PartKernel(k, "pos")
    for r in (-2e300, -1e300, -1e-300, -1e-301, 0.0, 1e-300, 1.0):
        assert repr(p(r)) == repr(max(k(r), 0.0))
    assert p(1.0) == math.inf and p.nonneg_everywhere(0.0)


def _end_case(rng, left_sign, left_slope, right_sign, right_slope):
    """A pwl kernel with 2-4 breakpoints on each side of 0, on a grid or off
    it, whose ends have the given value signs and outward slope signs (each
    -1, 0 or +1), and end values of every size from 1e-13 to 4."""
    grid = rng.random() < 0.5

    def side(sign, slope):
        # (|x|, y) from 0 outward; the last pair is the end
        count = rng.randint(2, 4)
        if grid:
            xs = sorted(rng.sample([k / 2.0 for k in range(1, 9)], count))
            ys = [float(rng.randint(-4, 4)) for _ in range(count - 2)]
        else:
            xs = sorted(rng.uniform(0.01, 4.0) for _ in range(count))
            ys = [rng.uniform(-4.0, 4.0) for _ in range(count - 2)]
        end = sign * 10.0 ** rng.uniform(-13.0, 0.6)  # down to 1e-13: crossings near the end
        return list(zip(xs, ys + [end - slope * rng.uniform(0.1, 4.0), end]))

    left = [(-x, y) for x, y in reversed(side(left_sign, left_slope))]
    return PwlKernel((*left, (0.0, 0.0), *side(right_sign, right_slope)))


def test_parts_are_pointwise_maxima():
    """On 3000 seeded kernels, every sign of each end value and of each
    extension's slope, and one kernel whose rebuilt positive part used to
    read 2.998 at -2e15: both parts and the modulus equal max(+-k, 0) and
    |k| by repr at k's breakpoints, at random probes and 1000 units out, and
    are nonnegative everywhere at tol 0."""
    rng = random.Random(24)
    signs = (-1.0, 0.0, 1.0)
    combos = [(a, b, c, d) for a in signs for b in signs for c in signs for d in signs]
    far = PwlKernel(((-1e15, 1.0), (-1.0, -1.0), (0.0, 0.0)))
    assert PartKernel(far, "pos")(-2e15) == far(-2e15) == 3.000000000000002
    cases = [(far, [-2e15, -1.5e15, 5.0])]
    for case in range(3000):
        k = _end_case(rng, *combos[case % len(combos)])
        cases.append((k, [rng.uniform(-6.0, 6.0) for _ in range(8)] + [-1e3, 1e3]))
    for k, probes in cases:
        for kind, want in MAXIMA.items():
            part = PartKernel(k, kind)
            for r in [x for x, _ in k.points] + probes:
                assert repr(part(r)) == repr(want(k(r))), (k, kind, r)
            assert part.nonneg_everywhere(0.0), (k, kind)


# -- part decisions against exact arithmetic ------------------------------------------

NUDGES = (1e-12, 5e-10, 2e-9, 1e-6)


def _seeded_pwl(rng, grid):
    """0-4 breakpoints on each side of 0: on the half grid with integer
    values, or uniform in (0.01, 5) with values uniform in (-3, 3)."""

    def side():
        count = rng.randint(0, 4)
        if grid:
            xs = sorted(rng.sample([j / 2.0 for j in range(1, 11)], count))
            return [(x, float(rng.randint(-3, 3))) for x in xs]
        xs = sorted(rng.uniform(0.01, 5.0) for _ in range(count))
        return [(x, rng.uniform(-3.0, 3.0)) for x in xs]

    return PwlKernel((*[(-x, y) for x, y in reversed(side())], (0.0, 0.0), *side()))


def _through_part(k, kind, rng):
    """The pwl kernel through k's part at k's breakpoints, its crossings
    (0.0) and one unit past each end, one value nudged half the time."""
    rule, pts = MAXIMA[kind], k.points
    out = [(pts[0][0] - 1.0, rule(k(pts[0][0] - 1.0)))]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        out.append((x0, rule(y0)))
        if (y0 > 0.0 > y1) or (y0 < 0.0 < y1):
            xc = x0 - y0 * (x1 - x0) / (y1 - y0)
            if x0 < xc < x1:
                out.append((xc, 0.0))
    out += [(pts[-1][0], rule(pts[-1][1])), (pts[-1][0] + 1.0, rule(k(pts[-1][0] + 1.0)))]
    i = rng.randrange(len(out))
    if rng.random() < 0.5 and out[i][0] != 0.0:
        out[i] = (out[i][0], out[i][1] + rng.choice((-1.0, 1.0)) * rng.choice(NUDGES))
    return PwlKernel(out)


# (k, kind, h): the base crosses 0 past an end, and the crossing rounds onto
# the end, so the part must read 0.0 one float out
PLANTED_PARTS = [
    (PwlKernel(((-1.0, 1e-20), (-0.5, 1.0), (0.0, 0.0))), "pos", ZERO_KERNEL),
    (PwlKernel(((0.0, 0.0), (0.5, 1.0), (1.0, 1e-20))), "pos", ZERO_KERNEL),
    (PwlKernel(((-1.0, -1e-20), (-0.5, -1.0), (0.0, 0.0))), "neg", ZERO_KERNEL),
    (PwlKernel(((-1e300, 1e-300), (-1.0, 2.0), (0.0, 0.0))), "abs", ZERO_KERNEL),
]


def test_part_decisions_match_exact_arithmetic():
    """On the planted pairs and 1500 seeded grid and off-grid pairs (h, k),
    with h drawn apart from k, through k's part or zero: the order of h and
    each part both ways at tol 0 and DEFAULT_TOL, and is_zero, equal the
    exact decisions of `reference`.  Against a nonzero h a float decision can differ where the
    exact one changes within 1e-12 of the tol, a tie that rounding decides;
    there the order is not compared.  Against zero it always is: a part is
    0.0 at its crossings, so its order with zero is exact."""
    rng = random.Random(26)
    compared = 0
    drawn = []
    for _ in range(1500):
        grid = rng.random() < 0.5
        k, kind = _seeded_pwl(rng, grid), rng.choice(("pos", "neg", "abs"))
        pick = rng.randrange(4)
        h = (_seeded_pwl(rng, grid), _through_part(k, kind, rng), ZERO_KERNEL)[min(pick, 2)]
        drawn.append((k, kind, h))
    for k, kind, h in PLANTED_PARTS + drawn:
        part = PartKernel(k, kind)
        assert part.is_zero() == ref.exact_is_zero(part), (k, kind)
        for low, high in ((h, part), (part, h)):
            margin = ref.order_margin(low, high)
            for tol in (0.0, DEFAULT_TOL):
                if h.is_zero() or abs(tol - margin) > 1e-12:
                    compared += 1
                    assert kernel_diff_nonneg(low, high, tol) == (tol >= margin), (low, high, tol)
    assert compared > 4500 + 4 * len(PLANTED_PARTS)


def _reads(k, x):
    """k(x), or 0.0 where k is a part and x a zero crossing of its base
    between or past the base's breakpoints, which the part's decisions read
    as 0.0."""
    if isinstance(k, PartKernel) and x not in dict(k.base.points) and abs(k.base(x)) < 1e-12:
        return 0.0
    return k(x)


def test_sums_with_parts_are_pwl_kernels_decided_exactly():
    """A sum a + b of a lattice part a (pos, neg or abs, scaled or not) and a
    pwl kernel or another part is a PwlKernel.  At each of its points it reads
    a(r) + b(r) by repr (-0.0 read as 0.0), and its order with a drawn h, both ways at tol 1e-9,
    is the exact decision of `reference` on h and a + b, except where that
    changes within 1e-12 of the tol (a tie that rounding decides)."""
    rng = random.Random(29)
    tol, compared = 1e-9, 0
    for case in range(800):
        grid = rng.random() < 0.5

        def part():
            scale = rng.choice((1.0, 0.5, -2.0)) if case % 2 else 1.0
            return PartKernel(_seeded_pwl(rng, grid), rng.choice(tuple(MAXIMA)), scale)

        a, b = part(), (part() if rng.random() < 0.5 else _seeded_pwl(rng, grid))
        total = kernel_add(a, b)
        assert isinstance(total, PwlKernel), (a, b)
        for x, y in total.points:
            assert repr(y + 0.0) == repr(_reads(a, x) + _reads(b, x) + 0.0), (a, b, x)
        h = _seeded_pwl(rng, grid)
        for low, high in (((h, total), (h, (a, b))), ((total, h), ((a, b), h))):
            margin = ref.order_margin(*high)
            if abs(tol - margin) > 1e-12:
                compared += 1
                assert kernel_diff_nonneg(*low, tol) == (tol >= margin), (a, b, h)
    assert compared > 1500


def test_parts_of_a_callable_kernel_are_callable_maxima():
    f = FuncKernel(lambda r: r * r - r, label="q")
    pos, neg = PartKernel(f, "pos"), PartKernel(f, "neg")
    assert pos.to_pwl() is None and neg.to_pwl() is None
    assert pos.breakpoint_args() == () and not pos.is_zero()
    for r in (-2.0, 0.0, 0.25, 0.5, 1.0, 3.0):
        assert pos(r) == max(f(r), 0.0)
        assert neg(r) == max(-f(r), 0.0)
    # sampled, so a NaN sample is not positive
    assert pos.nonneg_everywhere(0.0) and neg.nonneg_everywhere(0.0)
    nan = PartKernel(FuncKernel(lambda r: math.nan if r < -1.0 else r), "pos")
    assert math.isnan(nan(-2.0)) and not nan.nonneg_everywhere()


def test_nonneg_everywhere_sees_extensions():
    # nonnegative at every breakpoint, negative on the left extension
    trap = PwlKernel(((-2.0, 0.25), (-1.0, 0.5), (0.0, 0.0), (1.0, 1.0)))
    assert not trap.nonneg_everywhere()
    assert min(trap(r) for r in (-10.0,)) < 0
    assert PwlKernel(((-1.0, 1.0), (0.0, 0.0), (1.0, 1.0))).nonneg_everywhere()


def test_builtin_kernels():
    assert BuiltinKernel("abs")(-2.0) == 2.0
    assert BuiltinKernel("id")(-2.0) == -2.0
    assert BuiltinKernel("relu")(-2.0) == 0.0
    assert BuiltinKernel("relu")(2.0) == 2.0
    clamp = BuiltinKernel("clamp", params=(-1.0, 2.0))
    assert clamp(-5.0) == -1.0
    assert clamp(1.5) == 1.5
    assert clamp(9.0) == 2.0
    assert BuiltinKernel("abs", scale=0.5)(-2.0) == 1.0


def test_builtin_validation():
    with pytest.raises(ValueError, match="unknown builtin"):
        BuiltinKernel("sinh")
    with pytest.raises(ValueError, match="two parameters"):
        BuiltinKernel("clamp", params=(1.0,))
    with pytest.raises(ValueError, match="lo <= 0 <= hi"):
        BuiltinKernel("clamp", params=(1.0, 2.0))
    with pytest.raises(ValueError, match="no parameters"):
        BuiltinKernel("abs", params=(1.0,))


def test_builtin_to_pwl_matches():
    for k in (
        BuiltinKernel("abs"),
        BuiltinKernel("id", scale=-2.0),
        BuiltinKernel("relu"),
        BuiltinKernel("clamp", scale=3.0, params=(-1.0, 2.0)),
    ):
        p = k.to_pwl()
        for r in (-10.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0):
            assert p(r) == pytest.approx(k(r), abs=1e-12)


def test_func_kernel_requires_origin():
    for fn in (lambda r: r + 1.0, lambda r: math.inf * r):  # inf * 0 is nan
        with pytest.raises(ValueError, match="vanish at 0"):
            FuncKernel(fn)
    f = FuncKernel(lambda r: r * r, label="square")
    assert f(3.0) == 9.0
    assert f.scaled(2.0)(3.0) == 18.0
    assert f.to_pwl() is None


def test_func_kernel_scalings_match_nested_products():
    """2000 scalings keep the values and label of nested multiplication,
    a * (... * (a1 * fn(r))), built without nesting a call per factor."""
    rng = random.Random(11)
    base = FuncKernel(lambda r: r * r - r / 3.0, label="quad")
    factors = [rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.25) for _ in range(2000)]
    k, label = base, base.label
    for a in factors:
        k, label = k.scaled(a), f"{a:g}*({label})"
    assert k.descriptor() == {"form": "callable", "label": label}
    for r in (-7.5, -1.0, -1e-300, 0.0, 0.1, 2.0, 1e150):
        want = base.fn(r)
        for a in factors:
            want = a * want
        assert repr(k(r)) == repr(want)


def test_func_kernel_scaling_checks_the_scaled_origin():
    small = FuncKernel(lambda r: r + 2e-10)
    with pytest.raises(ValueError, match="vanish at 0 \\(got 2e-08\\)"):
        small.scaled(100.0)


def test_zero_kernel():
    assert ZERO_KERNEL(17.0) == 0.0
    assert ZERO_KERNEL.is_zero()
    assert not HAT.is_zero()


def test_generic_kernel_helpers():
    a = BuiltinKernel("relu")
    b = FuncKernel(lambda r: abs(r))
    s = kernel_add(a, b)
    assert s(-2.0) == 2.0
    assert s(2.0) == 4.0
    assert kernel_diff_nonneg(a, b)  # |r| - relu(r) >= 0 on samples
    signed = BuiltinKernel("id")
    assert PartKernel(signed, "pos")(-3.0) == 0.0
    assert PartKernel(signed, "neg")(-3.0) == 3.0
