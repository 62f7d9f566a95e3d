"""Pointwise lattice calculus.

The fragment-enumeration path (`rk_eval`) is checked against the closed-form
coordinatewise path (`rk_eval_separable`); the two are independent
implementations of the same formulas, so agreement is the main oracle here.
Hand cases are frozen from direct arithmetic.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uryson.calculus import (
    RK_KINDS,
    check_disjoint_iff,
    check_modulus_bound,
    disjoint_witness,
    rk_eval,
    rk_eval_separable,
    witness_products,
)
from uryson.errors import NotDisjoint, NotPositive, SupportTooLarge
from uryson.kernels import BuiltinKernel, FuncKernel, PwlKernel, ZERO_KERNEL
from uryson.lattice import Vector, is_partition_of_unity, vec
from uryson.operators import KernelOperator, positive_part

ABS = BuiltinKernel("abs")
ID = BuiltinKernel("id")
HAT = PwlKernel(((-2.0, 2.0), (-1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (3.0, 2.0)))
GATE = BuiltinKernel("clamp", params=(-1.0, 2.0))


def test_meet_and_join_of_scaled_abs():
    # t(r) = |r|, s(r) = 2|r| at r = 3: the meet picks the cross terms
    T = KernelOperator(((ABS,),))
    S = KernelOperator(((BuiltinKernel("abs", scale=2.0),),))
    x = vec(3.0)
    assert rk_eval("meet", T, x, S).value.coords == (3.0,)
    assert rk_eval("join", T, x, S).value.coords == (6.0,)


def test_parts_of_identity_kernel():
    T = KernelOperator(((ID,),))
    x = vec(-2.0)
    assert rk_eval("pos", T, x).value.coords == (0.0,)
    assert rk_eval("neg", T, x).value.coords == (2.0,)
    assert rk_eval("abs", T, x).value.coords == (2.0,)


def test_argwitness_fragments_are_complementary():
    T = KernelOperator(((ID, HAT), (GATE, ID)))
    S = KernelOperator(((HAT, ABS), (ID, GATE)))
    x = vec(1.5, -2.5)
    r = rk_eval("join", T, x, S)
    for frag, comp in r.argwitness:
        assert (frag + comp).isclose(x)


def test_argwitness_prefers_lowest_bitmask():
    # both fragments attain the same value; the empty fragment wins ties
    T = KernelOperator(((ZERO_KERNEL,),))
    r = rk_eval("pos", T, vec(2.0))
    assert r.argwitness[0][0].coords == (0.0,)


def test_kind_validation():
    T = KernelOperator(((ABS,),))
    with pytest.raises(ValueError, match="unknown kind"):
        rk_eval("sup", T, vec(1.0))
    with pytest.raises(ValueError, match="second operator"):
        rk_eval("meet", T, vec(1.0))
    with pytest.raises(ValueError, match="single operator"):
        rk_eval("abs", T, vec(1.0), T)


def test_support_cap():
    T = KernelOperator(((ABS,) * 8,))
    with pytest.raises(SupportTooLarge):
        rk_eval("pos", T, Vector.ones(8), cap_support=6)


_KERNEL_POOL = (ABS, ID, HAT, GATE, BuiltinKernel("relu"), ZERO_KERNEL,
                BuiltinKernel("abs", scale=0.5), BuiltinKernel("id", scale=-1.5))
_kernel = st.sampled_from(_KERNEL_POOL)
_coord = st.sampled_from([-2.5, -1.0, -0.25, 0.0, 0.5, 1.0, 3.0])


def _op_strategy(m, n):
    return st.lists(
        st.lists(_kernel, min_size=n, max_size=n).map(tuple),
        min_size=m,
        max_size=m,
    ).map(lambda rows: KernelOperator(tuple(rows)))


_shape = st.tuples(st.integers(1, 3), st.integers(1, 3))
_case = _shape.flatmap(
    lambda mn: st.tuples(
        _op_strategy(*mn),
        _op_strategy(*mn),
        st.lists(_coord, min_size=mn[1], max_size=mn[1]).map(
            lambda cs: Vector(tuple(cs))
        ),
    )
)


@given(_case, st.sampled_from(RK_KINDS))
def test_enumeration_matches_separable(case, kind):
    T, S, x = case
    second = S if kind in ("join", "meet") else None
    enum = rk_eval(kind, T, x, second)
    sep = rk_eval_separable(kind, T, x, second)
    assert enum.value.isclose(sep)


def test_separable_parts_keep_nan_as_enumeration_does():
    # t(r) is NaN for r < -1: the parts read NaN there, as rk_eval's
    # fragment rows do, so both refuse the probe
    nan_left = FuncKernel(lambda r: math.nan if r < -1.0 else r, label="nan")
    T, x = KernelOperator(((nan_left, ABS),)), vec(-2.0, 1.0)
    for kind in ("pos", "neg", "abs"):
        for fn in (rk_eval, rk_eval_separable):
            with pytest.raises(ValueError, match="^vector coordinates must be finite$"):
                fn(kind, T, x)
    with pytest.raises(ValueError, match="^vector coordinates must be finite$"):
        positive_part(T)(x)
    assert rk_eval_separable("pos", T, vec(-0.5, 1.0)).coords == (1.0,)


@given(_case)
def test_join_meet_sum_identity(case):
    T, S, x = case
    lhs = rk_eval("join", T, x, S).value + rk_eval("meet", T, x, S).value
    assert lhs.isclose(T(x) + S(x))


@given(_case)
def test_parts_decompose_operator_value(case):
    T, _, x = case
    p = rk_eval("pos", T, x).value
    n = rk_eval("neg", T, x).value
    a = rk_eval("abs", T, x).value
    assert (p - n).isclose(T(x))
    assert (p + n).isclose(a)
    assert T(x).abs().leq(a)


@given(_case)
def test_modulus_bound(case):
    T, _, x = case
    assert check_modulus_bound(T, x)


def _demo_pair():
    S = KernelOperator(
        ((BuiltinKernel("abs", scale=0.5), ZERO_KERNEL), (ZERO_KERNEL, HAT))
    )
    D = KernelOperator(((ZERO_KERNEL, HAT), (HAT, ZERO_KERNEL)))
    return S, D


def test_disjoint_witness_masks_partition():
    S, D = _demo_pair()
    x = vec(1.0, -2.0)
    w = disjoint_witness(S, D, x, 1.0, Vector.ones(2))
    assert is_partition_of_unity(w.masks)
    assert w.masks.labels == ("1", "2")
    assert [m.indices() for m in w.masks.items] == [(0,), (1,)]
    assert [f.coords for f in w.frags.items] == [(1.0, 0.0), (0.0, -2.0)]
    products = witness_products(S, D, x, w)
    assert all(p.coords == (0.0, 0.0) for p in products)


def test_disjoint_witness_requires_disjointness():
    T = KernelOperator(((ABS, BuiltinKernel("abs", scale=0.5)), (HAT, ABS)))
    S = KernelOperator(
        ((BuiltinKernel("abs", scale=0.5), ZERO_KERNEL), (ZERO_KERNEL, HAT))
    )
    with pytest.raises(NotDisjoint, match="pointwise meet is nonzero"):
        disjoint_witness(S, T, vec(1.0, -2.0), 1.0, Vector.ones(2))


def test_disjoint_witness_requires_positive_operators():
    S = KernelOperator(((ID,),))
    with pytest.raises(NotPositive):
        disjoint_witness(S, S, vec(1.0), 1.0, Vector.ones(1))


def test_eps_and_steps_inputs_are_checked():
    S, D = _demo_pair()
    x, u = vec(1.0, -2.0), Vector.ones(2)
    for eps, message in ((0.0, "must be positive"), (-math.inf, "must be positive"),
                         (math.nan, "must be finite"), (math.inf, "must be finite")):
        with pytest.raises(ValueError, match="eps " + message):
            disjoint_witness(S, D, x, eps, u)
        with pytest.raises(ValueError, match="eps " + message):
            check_disjoint_iff(S, D, [x], eps)


def test_check_disjoint_iff_on_disjoint_pair():
    S, D = _demo_pair()
    xs = [vec(1.0, -2.0), vec(0.5, 0.75), vec(-1.5, 0.0)]
    rep = check_disjoint_iff(S, D, xs, 1.0)
    assert rep["all_disjoint"]
    assert rep["all_ok"]
    for entry in rep["probes"]:
        assert entry["disjoint"]
        assert entry["forward"]["bounds_ok"]
        assert all(c["witness_exists"] for c in entry["converse"])


def test_check_disjoint_iff_on_overlapping_pair():
    # shared kernel support: the meet is strictly positive, and the
    # fragment witness must disappear once eps is small enough
    S = KernelOperator(((ABS,),))
    T = KernelOperator(((BuiltinKernel("abs", scale=2.0),),))
    rep = check_disjoint_iff(S, T, [vec(3.0)], 1.0)
    assert not rep["all_disjoint"]
    assert rep["all_ok"]
    probe = rep["probes"][0]
    assert probe["meet"] == [3.0]
    assert probe["forward"] is None
    assert not probe["converse"][-1]["witness_exists"]
