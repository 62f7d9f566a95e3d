import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from strategies import families, outcome, seeded_family
from uryson.calculus import disjoint_witness
from uryson.errors import (
    DimensionMismatch,
    NotConverged,
    NotPositiveUnit,
    SupportTooLarge,
)
from uryson.kernels import ZERO_KERNEL
from uryson.lattice import (
    IndexedFamily,
    Mask,
    Vector,
    all_masks,
    fragments,
    is_disjoint,
    is_fragment,
    is_partition_of_unity,
    order_limit_witness,
    principal_mask,
    principal_projection_sup_form,
    vec,
)
from uryson.operators import KernelOperator

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def vectors_of(dim):
    return st.lists(finite, min_size=dim, max_size=dim).map(lambda cs: Vector(tuple(cs)))


same_dim_pairs = st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.tuples(vectors_of(d), vectors_of(d))
)


def test_vector_basics():
    x = vec(1.0, -2.0, 0.0)
    assert x.dim == 3
    assert x.support() == (0, 1)
    assert (x + x).coords == (2.0, -4.0, 0.0)
    assert (-x).coords == (-1.0, 2.0, 0.0)
    assert x.scale(0.5).coords == (0.5, -1.0, 0.0)
    assert Vector.zero(2).coords == (0.0, 0.0)
    assert Vector.ones(2).coords == (1.0, 1.0)


def test_vector_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Vector(())
    with pytest.raises(ValueError):
        vec(float("nan"))
    with pytest.raises(DimensionMismatch):
        vec(1.0) + vec(1.0, 2.0)


@given(same_dim_pairs)
def test_join_plus_meet_is_sum(pair):
    v, w = pair
    assert (v.join(w) + v.meet(w)).isclose(v + w)


@given(same_dim_pairs)
def test_lattice_ops_agree_with_methods(pair):
    v, w = pair
    pairs = list(zip(v.coords, w.coords))
    assert v.join(w).coords == tuple(max(a, b) for a, b in pairs)
    assert v.meet(w).coords == tuple(min(a, b) for a, b in pairs)
    assert v.abs().coords == tuple(abs(a) for a in v.coords)
    assert v.pos_part().coords == tuple(max(a, 0.0) for a in v.coords)
    assert v.neg_part().coords == tuple(max(-a, 0.0) for a in v.coords)


@given(vectors_of(4))
def test_parts_decompose(v):
    assert (v.pos_part() - v.neg_part()).isclose(v)
    assert (v.pos_part() + v.neg_part()).isclose(v.abs())
    assert is_disjoint(v.pos_part(), v.neg_part())
    assert Vector.zero(4).leq(v.abs())


def test_fragments_enumeration_order():
    # bit i of the enumeration index switches coordinate i on
    assert [f.coords for f in fragments(vec(1.0, -2.0))] == [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.0, -2.0),
        (1.0, -2.0),
    ]


def test_fragments_skip_zero_coordinates():
    assert len(fragments(vec(1.0, 0.0, 3.0))) == 4


def test_fragments_cap():
    with pytest.raises(SupportTooLarge):
        fragments(Vector.ones(6), cap=5)


@given(vectors_of(3))
def test_fragment_pairs_partition(x):
    for y in fragments(x):
        assert is_fragment(y, x)
        assert is_fragment(x - y, x)
        assert is_disjoint(y, x - y)
        assert (y + (x - y)).isclose(x)


def test_mask_constructors():
    m = Mask.from_indices(3, (0, 2))
    assert m.indices() == (0, 2)
    assert m.bitmask() == 0b101
    assert Mask.full(3).is_full
    assert Mask.empty(3).is_empty
    assert m.apply(vec(1.0, 2.0, 3.0)).coords == (1.0, 0.0, 3.0)


def test_mask_boolean_laws_exhaustive():
    # small enough to check the whole algebra
    masks = all_masks(3)
    assert len(masks) == 8
    full, empty = Mask.full(3), Mask.empty(3)
    for a in masks:
        assert (a & a.complement()) == empty
        assert (a | a.complement()) == full
        assert a.complement().complement() == a
        for b in masks:
            assert (a & b).complement() == (a.complement() | b.complement())
            assert a.leq(b) == ((a & b) == a)
            assert (a & b).bits == tuple(p and q for p, q in zip(a.bits, b.bits))
            assert (a | b).bits == tuple(p or q for p, q in zip(a.bits, b.bits))
            assert a.complement().bits == tuple(not p for p in a.bits)
            assert a.leq(b) == all(q for p, q in zip(a.bits, b.bits) if p)


def test_partition_of_unity():
    a = Mask.from_indices(3, (0,))
    b = Mask.from_indices(3, (1, 2))
    assert is_partition_of_unity([a, b])
    assert not is_partition_of_unity([a, a])
    assert not is_partition_of_unity([a])
    assert not is_partition_of_unity([])


def test_principal_mask_and_band_project():
    f = vec(1.0, 0.0, -2.0)
    rho = principal_mask(f)
    assert rho.indices() == (0, 2)
    assert rho.apply(vec(5.0, 6.0, 7.0)).coords == (5.0, 0.0, 7.0)


def test_sup_form_matches_mask_projection():
    f = vec(1.0, 0.0)
    g = vec(3.0, 4.0)
    assert principal_projection_sup_form(f, g) == principal_mask(f).apply(g)


# keep |f| coordinates away from tiny magnitudes: the sup form needs ~g/|f|
# doubling steps, so unconstrained floats would make this test unbounded
_sup_form_coord = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
_sup_form_vec = st.lists(_sup_form_coord, min_size=3, max_size=3).map(
    lambda cs: Vector(tuple(cs))
)


@given(_sup_form_vec, _sup_form_vec)
def test_sup_form_property(f, g):
    g = g.abs()
    assert principal_projection_sup_form(f, g) == principal_mask(f).apply(g)


def test_sup_form_requires_nonneg():
    with pytest.raises(ValueError):
        principal_projection_sup_form(vec(1.0), vec(-1.0))


def test_indexed_family_validation():
    with pytest.raises(ValueError):
        IndexedFamily(("a", "a"), (Mask.full(1), Mask.full(1)))
    with pytest.raises(ValueError):
        IndexedFamily(("a",), ())
    fam = IndexedFamily(("a", "b"), (Mask.full(2), Mask.empty(2)))
    assert fam.get("b").is_empty
    assert list(fam.pairs())[0][0] == "a"


def _family(vectors):
    return IndexedFamily(tuple(str(i) for i in range(len(vectors))), tuple(vectors))


def test_order_limit_witness_partitions():
    x = vec(1.0, -2.0)
    seq = [x + Vector.ones(2).scale(2.0 ** -k) for k in range(6)] + [x]
    fam = order_limit_witness(_family(seq), x, eps=0.25, u=Vector.ones(2))
    assert is_partition_of_unity(fam)
    # both coordinates settle at the same step: 2^-2 <= 0.25
    assert fam.labels == ("2",)
    assert [m.indices() for m in fam.items] == [(0, 1)]


def test_order_limit_witness_coordinatewise_rates():
    x = vec(0.0, 0.0)
    seq = [vec(2.0 ** -k, 4.0 ** -k) for k in range(8)] + [x]
    fam = order_limit_witness(_family(seq), x, eps=0.1, u=Vector.ones(2))
    assert is_partition_of_unity(fam)
    assert len(fam) == 2  # the faster coordinate settles strictly earlier


def test_order_limit_witness_not_converged():
    x = vec(1.0, -2.0)
    stuck = _family([x + Vector.ones(2)] * 3)
    with pytest.raises(NotConverged):
        order_limit_witness(stuck, x, eps=0.5, u=Vector.ones(2))


@pytest.mark.parametrize("witness", [
    lambda x, u: order_limit_witness(_family([x]), x, eps=0.5, u=u),
    lambda x, u: disjoint_witness(
        KernelOperator(((ZERO_KERNEL,),) * x.dim), KernelOperator(((ZERO_KERNEL,),) * x.dim),
        vec(1.0), 0.5, u,
    ),
], ids=["order_limit_witness", "disjoint_witness"])
def test_regulating_unit_has_one_rule(witness):
    x = vec(1.0, 2.0)
    with pytest.raises(NotPositiveUnit, match="^regulating unit must be strictly positive$"):
        witness(x, vec(1.0, 1e-12))
    with pytest.raises(DimensionMismatch, match="^unit dim 3 vs 2$"):
        witness(x, vec(1.0, 1.0, 1.0))


def test_order_limit_witness_matches_reference_on_seeded_families():
    reached = set()
    for seed in range(2000):
        args = seeded_family(seed)
        want = outcome(ref.order_limit_witness, *args)
        assert outcome(order_limit_witness, *args) == want, args
        reached.add(want[1] if want[0] == "error" else "ok")
    # witnesses, NotConverged and every validation error
    assert reached == {"ok", "NotConverged", "ValueError", "DimensionMismatch", "NotPositiveUnit"}


@given(families())
def test_order_limit_witness_matches_reference(args):
    assert outcome(order_limit_witness, *args) == outcome(ref.order_limit_witness, *args)


def test_order_limit_witness_rejects_degenerate_unit():
    x = vec(1.0)
    with pytest.raises(NotPositiveUnit):
        order_limit_witness(_family([x]), x, eps=0.5, u=vec(0.0))
    with pytest.raises(ValueError):
        order_limit_witness(_family([x]), x, eps=0.0, u=vec(1.0))
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be finite"):
            order_limit_witness(_family([x]), x, eps=eps, u=vec(1.0))
