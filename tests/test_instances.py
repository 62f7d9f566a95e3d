"""Seeded instance generators used by the self-check suite."""

import hashlib

from uryson.calculus import rk_eval
from uryson.instances import (
    GRID_STEP,
    decreasing_to,
    disjoint_positive_pair,
    grid_vector,
    nonneg_grid_vector,
    perturbed_pair,
    positive_operator,
    positive_pwl,
    random_operator,
    random_pwl,
    rng_for,
)
from uryson.lattice import Vector, vec
from uryson.operators import operator_is_positive


def test_rng_is_tagged_and_deterministic():
    a = rng_for(7, "x").random()
    b = rng_for(7, "x").random()
    c = rng_for(7, "y").random()
    d = rng_for(8, "x").random()
    assert a == b
    assert a != c
    assert a != d


def test_grid_vectors_live_on_the_grid():
    rng = rng_for(0, "grid")
    for _ in range(20):
        v = grid_vector(rng, 3)
        assert all(abs(c / GRID_STEP - round(c / GRID_STEP)) < 1e-12 for c in v.coords)
        assert all(-3.0 <= c <= 3.0 for c in v.coords)
    w = nonneg_grid_vector(rng, 3)
    assert Vector.zero(3).leq(w)


def test_random_pwl_is_reproducible():
    k1 = random_pwl(rng_for(5, "k"))
    k2 = random_pwl(rng_for(5, "k"))
    assert k1.points == k2.points
    assert k1(0.0) == 0.0


def test_positive_pwl_really_is():
    for i in range(25):
        k = positive_pwl(rng_for(i, "pos"))
        assert k.nonneg_everywhere()


def test_positive_operator_really_is():
    for i in range(10):
        T = positive_operator(rng_for(i, "op"), 2, 2)
        assert operator_is_positive(T)


def test_random_operator_shape():
    T = random_operator(rng_for(3, "shape"), 3, 2)
    assert (T.m, T.n) == (3, 2)


def test_disjoint_pair_has_zero_meet():
    for i in range(10):
        S, T = disjoint_positive_pair(rng_for(i, "dis"), 2, 2)
        x = grid_vector(rng_for(i, "dis-probe"), 2)
        meet = rk_eval("meet", S, x, T).value
        assert meet.isclose(Vector.zero(2))


def test_disjoint_pair_single_cell():
    # a 1x1 matrix cannot split its only cell, so one side must be zero
    S, T = disjoint_positive_pair(rng_for(0, "one"), 1, 1)
    x = vec(1.5)
    meet = rk_eval("meet", S, x, T).value
    assert meet.isclose(Vector.zero(1))


def test_perturbed_pair_is_not_disjoint():
    # the injected overlap must show up at some single-coordinate probe
    for i in range(10):
        S, T = perturbed_pair(rng_for(i, "pert"), 2, 2)
        hit = False
        for j in range(2):
            x = vec(*(3.0 if jj == j else 0.0 for jj in range(2)))
            meet = rk_eval("meet", S, x, T).value
            hit = hit or any(c > 1e-9 for c in meet.coords)
        assert hit


def test_decreasing_to_ends_at_target():
    x = vec(1.0, -2.0)
    seq = decreasing_to(x, steps=4)
    assert seq[-1] == x
    assert len(seq) == 5
    for earlier, later in zip(seq, seq[1:]):
        assert later.leq(earlier)
        assert x.leq(earlier)


# sha256 (first 16 hex digits) of the repr of three draws per generator at
# each (seed, tag) in _PINNED_PAIRS, recorded before any refactor of the
# generators: a change that shifts the random stream shows up here.
_PINNED_PAIRS = ((0, "pin"), (7, "suite"), (12345, "x"))
_PINNED_DRAWS = {
    "grid_vector": (lambda rng: grid_vector(rng, 3), "9dd39b96e8a89505"),
    "nonneg_grid_vector": (lambda rng: nonneg_grid_vector(rng, 3), "8c80c72748a2d97e"),
    "random_pwl": (random_pwl, "f8477bfabd1e3400"),
    "positive_pwl": (positive_pwl, "9cbb03975db35c34"),
    "random_operator": (lambda rng: random_operator(rng, 2, 3), "b7d9e04a381c19b6"),
    "positive_operator": (lambda rng: positive_operator(rng, 2, 2), "bf5d3a7bb52a7d25"),
    "disjoint_positive_pair": (
        lambda rng: disjoint_positive_pair(rng, 2, 3),
        "390ed28d99118de4",
    ),
    "perturbed_pair": (lambda rng: perturbed_pair(rng, 2, 2), "8fb27e3a1e199178"),
    "decreasing_to": (
        lambda rng: decreasing_to(grid_vector(rng, 2), steps=3),
        "78ee7131f24d280c",
    ),
}


def test_generator_draws_are_pinned():
    for name, (draw, want) in _PINNED_DRAWS.items():
        rngs = [rng_for(seed, tag) for seed, tag in _PINNED_PAIRS]
        text = repr([[draw(rng) for _ in range(3)] for rng in rngs])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, name
