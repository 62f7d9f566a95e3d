import math
import random

import pytest

from uryson.kernels import (
    ZERO_KERNEL,
    BuiltinKernel,
    FuncKernel,
    PwlKernel,
    kernel_add,
    kernel_diff_nonneg,
    kernel_neg_part,
    kernel_pos_part,
)

HAT = PwlKernel(((-2.0, 2.0), (-1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (3.0, 2.0)))


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
    s = HAT.add(other)
    d = HAT.sub(other)
    for r in (-3.0, -1.5, -1.0, -0.25, 0.0, 0.3, 1.0, 2.0, 2.5, 4.0):
        assert s(r) == HAT(r) + other(r)
        assert d(r) == HAT(r) - other(r)


def test_pos_part_splits_kernel():
    signed = PwlKernel(((-1.0, -1.0), (0.0, 0.0), (1.0, 2.0)))
    p = signed.pos_part()
    n = signed.neg_part()
    for r in (-5.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0):
        assert p(r) == max(signed(r), 0.0)
        assert n(r) == max(-signed(r), 0.0)
        assert p(r) - n(r) == signed(r)
        assert signed.abs_kernel()(r) == abs(signed(r))


def test_pos_part_inserts_crossings():
    # the sign change at r = 2 is not a breakpoint of the input
    k = PwlKernel(((0.0, 0.0), (1.0, 1.0), (3.0, -1.0)))
    p = k.pos_part()
    assert p(2.0) == 0.0
    for r in (0.5, 1.5, 2.0, 2.5, 3.0, 4.0):
        assert p(r) == max(k(r), 0.0)
    assert 2.0 in [b for b, _ in p.points]


def test_nonneg_everywhere_sees_extensions():
    # nonnegative at every breakpoint, negative on the left extension
    trap = PwlKernel(((-2.0, 0.25), (-1.0, 0.5), (0.0, 0.0), (1.0, 1.0)))
    assert not trap.nonneg_everywhere()
    assert min(trap(r) for r in (-10.0,)) < 0
    assert PwlKernel(((-1.0, 1.0), (0.0, 0.0), (1.0, 1.0))).nonneg_everywhere()


def test_min_max_on_interval():
    lo, hi = HAT.min_max_on(-2.0, 3.0)
    assert (lo, hi) == (0.0, 2.0)
    with pytest.raises(ValueError):
        HAT.min_max_on(1.0, -1.0)


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
    assert kernel_pos_part(signed)(-3.0) == 0.0
    assert kernel_neg_part(signed)(-3.0) == 3.0
