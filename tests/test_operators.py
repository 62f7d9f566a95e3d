"""Kernel-matrix operators: evaluation, order structure, and quadrature
discretization.  Evaluation is additive over disjoint fragments by
construction, and the lattice parts act kernel by kernel."""

import inspect
import math

import pytest

from strategies import mixed_operator, outcome
from uryson.calculus import rk_eval_separable
from uryson.errors import C0Violation, DimensionMismatch, NegativeU
from uryson.instances import positive_operator, rng_for
from uryson.kernels import BuiltinKernel, PwlKernel
from uryson.lattice import Vector, fragments, vec
from uryson.operators import (
    IntegralKernelSpec,
    KernelOperator,
    discretize_integral,
    functional_value,
    modulus,
    negative_part,
    operator_add,
    operator_is_positive,
    operator_leq,
    operator_scale,
    positive_part,
    rank_one,
    validate,
    zero_operator,
)
from uryson.projections import project_rank_one

ABS = BuiltinKernel("abs")
ID = BuiltinKernel("id")
HAT = PwlKernel(((-2.0, 2.0), (-1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (3.0, 2.0)))


def test_evaluate_sums_rows():
    T = KernelOperator(((ABS, BuiltinKernel("abs", scale=0.5)), (HAT, ABS)))
    assert T(vec(1.0, -2.0)).coords == (2.0, 3.0)
    assert T.m == 2 and T.n == 2


def test_all_abs_square():
    T = KernelOperator(((ABS, ABS), (ABS, ABS)))
    assert T(vec(1.0, -2.0)).coords == (3.0, 3.0)


def test_kernel_values_matrix():
    T = KernelOperator(((ABS, ID),))
    assert T.kernel_values(vec(1.0, -2.0)) == [[1.0, -2.0]]


def test_shape_validation():
    with pytest.raises(ValueError):
        KernelOperator(((ABS,), (ABS, ABS)))
    with pytest.raises(DimensionMismatch):
        KernelOperator(((ABS, ABS),))(vec(1.0))


def test_orthogonal_additivity_on_fragments():
    T = KernelOperator(((HAT, ABS), (ID, HAT)))
    x = vec(1.5, -2.5)
    for y in fragments(x):
        lhs = T(y) + T(x - y)
        assert lhs.isclose(T(x))


def test_functional_value():
    phi = KernelOperator(((ABS, ABS),))
    assert functional_value(phi, vec(1.0, -2.0)) == 3.0
    with pytest.raises(DimensionMismatch):
        functional_value(KernelOperator(((ABS,), (ABS,))), vec(1.0))


def test_zero_operator():
    Z = zero_operator(2, 3)
    assert Z(vec(1.0, 2.0, 3.0)).coords == (0.0, 0.0)


def test_rank_one_structure():
    phi = KernelOperator(((ABS, HAT),))
    R = rank_one(phi, vec(1.0, 2.0))
    x = vec(1.0, -2.0)
    expected = functional_value(phi, x)
    assert R(x).coords == (expected, 2.0 * expected)


def test_rank_one_rejections():
    phi = KernelOperator(((ABS, ABS),))
    with pytest.raises(NegativeU, match="nonnegative"):
        rank_one(phi, vec(1.0, -1.0))
    with pytest.raises(DimensionMismatch, match="one row"):
        rank_one(KernelOperator(((ABS,), (ABS,))), vec(1.0, 1.0))


@pytest.mark.parametrize("build", [
    lambda phi, u: rank_one(phi, u),
    lambda phi, u: project_rank_one(phi, u, KernelOperator(((ABS,),) * u.dim), vec(1.0)),
], ids=["rank_one", "project_rank_one"])
def test_rank_one_factor_and_direction_have_one_rule(build):
    with pytest.raises(NegativeU, match="^direction u must be nonnegative$"):
        build(KernelOperator(((ABS,),)), vec(1.0, -1.0))
    with pytest.raises(DimensionMismatch, match="^rank-one factor phi must be a functional"):
        build(KernelOperator(((ABS,), (ABS,))), vec(1.0, 1.0))


def test_order_and_positivity():
    S = KernelOperator(((ABS,),))
    T = KernelOperator(((BuiltinKernel("abs", scale=2.0),),))
    assert operator_is_positive(S)
    assert operator_leq(S, T)
    assert not operator_leq(T, S)
    assert not operator_is_positive(KernelOperator(((ID,),)))
    with pytest.raises(DimensionMismatch):
        operator_leq(S, zero_operator(2, 2))


def test_a_sum_lies_above_each_positive_summand_at_the_default_tol():
    # the pwl sum rounds each breakpoint value once: at tol 0, 25 of these
    # 300 pairs have S + T an ulp below S somewhere
    for seed in range(300):
        rng = rng_for(seed, "leq")
        S, T = positive_operator(rng, 2, 3), positive_operator(rng, 2, 3)
        assert operator_leq(S, operator_add(S, T))
        assert operator_leq(S, operator_add(S, T), 1e-12)


def test_arithmetic_pointwise():
    S = KernelOperator(((ABS, HAT),))
    T = KernelOperator(((HAT, ID),))
    x = vec(0.75, -1.25)
    assert operator_add(S, T)(x).isclose(S(x) + T(x))
    assert operator_scale(S, -2.0)(x).isclose(S(x).scale(-2.0))


def test_lattice_parts_kernelwise():
    T = KernelOperator(((ID, HAT), (ID, ID)))
    x = vec(1.0, -2.0)
    p = positive_part(T)(x)
    n = negative_part(T)(x)
    a = modulus(T)(x)
    assert (p - n).isclose(T(x))
    assert (p + n).isclose(a)
    assert operator_is_positive(positive_part(T))
    assert operator_is_positive(negative_part(T))


def test_lattice_parts_equal_the_separable_form():
    """On seeded operators of pwl, builtin and callable kernels, T+, T- and
    |T| at a probe equal rk_eval_separable's value by repr, errors too."""
    rng = rng_for(26, "parts")
    for _ in range(400):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        T = mixed_operator(rng, m, n)
        x = Vector(tuple(rng.choice((0.0, -0.0, 0.25, -1.5, 2.0, 1e3, rng.uniform(-5.0, 5.0)))
                         for _ in range(n)))
        for kind, part in (("pos", positive_part), ("neg", negative_part), ("abs", modulus)):
            assert outcome(part(T), x) == outcome(rk_eval_separable, kind, T, x), (T, x, kind)


def test_validate_report():
    T = KernelOperator(((ABS, HAT), (HAT, ABS)))
    box = (vec(-2.0, -2.0), vec(2.0, 2.0))
    rep = validate(T, box, samples=32, seed=1)
    assert rep.positive
    assert rep.orthogonally_additive_ok
    lo_w, hi_w = rep.order_bounded_witness
    assert lo_w.leq(hi_w)
    signed = KernelOperator(((ID, ID),))
    assert not validate(signed, (vec(-1.0, -1.0), vec(1.0, 1.0))).positive
    with pytest.raises(ValueError, match="lo <= hi"):
        validate(T, (vec(1.0, 1.0), vec(-1.0, -1.0)))
    with pytest.raises(DimensionMismatch):
        validate(T, (vec(-1.0), vec(1.0)))


def test_integral_spec_validation():
    with pytest.raises(DimensionMismatch, match="one weight per input node"):
        IntegralKernelSpec(lambda s, t, r: s * t * r, (1.0,), (1.0, 2.0), (1.0,))
    for w in (0.0, math.nan):
        with pytest.raises(ValueError, match="strictly positive"):
            IntegralKernelSpec(lambda s, t, r: s * t * r, (1.0,), (1.0,), (w,))
    with pytest.raises(ValueError, match="nonempty"):
        IntegralKernelSpec(lambda s, t, r: s * t * r, (), (1.0,), (1.0,))


def test_discretize_integral_values():
    # T(x)_i = sum_j w_j * s_i * t_j * x_j, here with unit weights
    spec = IntegralKernelSpec(
        lambda s, t, r: s * t * r, (1.0, 2.0), (0.5, 1.0), (1.0, 1.0)
    )
    U = discretize_integral(spec)
    assert U(vec(1.0, -2.0)).coords == (-1.5, -3.0)
    # single-node quadrature: 3 * 1.5 * 1 * 1
    one = discretize_integral(
        IntegralKernelSpec(lambda s, t, r: s * t * r, (3.0,), (1.5,), (1.0,))
    )
    assert one(vec(1.0)).coords == (4.5,)


def test_discretize_integral_is_orthogonally_additive():
    spec = IntegralKernelSpec(
        lambda s, t, r: s * math.sin(t * r) * r, (1.0, 2.0), (0.5, 1.0), (0.25, 0.75)
    )
    U = discretize_integral(spec)
    x = vec(1.0, -2.0)
    for y in fragments(x):
        assert (U(y) + U(x - y)).isclose(U(x))


def test_discretize_integral_c0_violation():
    spec = IntegralKernelSpec(lambda s, t, r: s * t + r, (1.0,), (2.0,), (1.0,))
    with pytest.raises(C0Violation, match="vanish"):
        discretize_integral(spec)
    nan_at_0 = IntegralKernelSpec(lambda s, t, r: math.inf * r, (1.0,), (2.0,), (1.0,))
    with pytest.raises(C0Violation, match="vanish.*nan"):
        discretize_integral(nan_at_0)


def test_discretize_integral_checks_each_weighted_entry_at_0():
    # K(1, t, 0) = 1e-10 lies within tol at both nodes, but the entry of
    # weight 100 reads 1e-08 at 0
    spec = IntegralKernelSpec(lambda s, t, r: r + 1e-10, (1.0,), (0.5, 1.0), (1.0, 100.0))
    message = r"^weighted kernel does not vanish at 0 at node \(s=1, t=1, w=100\): 1e-08$"
    with pytest.raises(C0Violation, match=message):
        discretize_integral(spec)
    ok = IntegralKernelSpec(lambda s, t, r: r + 1e-10, (1.0,), (0.5, 1.0), (1.0, 5.0))
    assert discretize_integral(ok).kernels[0][1](0.0) == 5e-10


def test_discretize_integral_checks_at_the_tol_of_its_entries():
    # each entry is a FuncKernel that checks itself at DEFAULT_TOL, so the
    # node checks take no tol of their own: a weighted entry the size of
    # 1e-8 is a C0Violation, never the entry's plain ValueError
    assert list(inspect.signature(discretize_integral).parameters) == ["spec"]
    spec = IntegralKernelSpec(lambda s, t, r: r + 1e-9, (1.0,), (1.0,), (10.0,))
    with pytest.raises(C0Violation, match=r"^weighted kernel .* \(s=1, t=1, w=10\): 1e-08$"):
        discretize_integral(spec)
