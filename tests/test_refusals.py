"""Library refusals: each entry point named here raises its error class with
its message on inputs of the wrong shape or an empty family."""

import pytest

from uryson.errors import DimensionMismatch
from uryson.kernels import BuiltinKernel, PwlKernel
from uryson.lattice import (
    EpsSchedule, IndexedFamily, Mask, Vector, is_partition_of_unity, order_limit_witness,
)
from uryson.operators import KernelOperator, operator_add
from uryson.projections import band_set_profile, project_rank_one

ABS = BuiltinKernel("abs")
T = KernelOperator(((ABS, ABS), (ABS, ABS)))
PHI = KernelOperator(((ABS, ABS),))
X = Vector((1.0, 2.0))

REFUSALS = {
    "rank-one-direction-dim": (
        lambda: project_rank_one(PHI, Vector((1.0, 1.0, 1.0)), T, X),
        DimensionMismatch, "direction dim 3 vs output dim 2",
    ),
    "profile-sense": (
        lambda: band_set_profile(T, T, X, EpsSchedule(), sense="x"),
        ValueError, "sense must be 'band' or 'complement'",
    ),
    "add-across-shapes": (lambda: operator_add(T, PHI), DimensionMismatch, "operators must share shape"),
    "empty-operator": (lambda: KernelOperator(()), ValueError, "operator needs at least one kernel"),
    "empty-pwl": (lambda: PwlKernel(()), ValueError, "kernel needs at least one breakpoint"),
    "empty-mask": (lambda: Mask(()), ValueError, "mask must have at least one coordinate"),
    "mask-and-across-dims": (
        lambda: Mask((1, 0)) & Mask((1, 0, 1)), DimensionMismatch, "mask dim 2 vs 3",
    ),
    "mask-apply-across-dims": (
        lambda: Mask((1, 0)).apply(Vector((1.0, 2.0, 3.0))),
        DimensionMismatch, "mask dim 2 vs vector dim 3",
    ),
    # refused whether or not the first two masks overlap
    "partition-mixed-dims": (
        lambda: is_partition_of_unity([Mask((1, 0)), Mask((0, 0, 1))]),
        DimensionMismatch, "masks must share a dimension",
    ),
    "partition-mixed-dims-overlapping": (
        lambda: is_partition_of_unity([Mask((1, 0)), Mask((1, 0)), Mask((0, 0, 1))]),
        DimensionMismatch, "masks must share a dimension",
    ),
    "order-limit-empty-family": (
        lambda: order_limit_witness(IndexedFamily((), ()), X, 0.5, Vector.ones(2)),
        ValueError, "sequence must be nonempty",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
