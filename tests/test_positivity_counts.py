"""How often each entry point decides positivity and the operator order.

Each entry point checks its operators once: T positive, every generator
positive, and for a generating set every pair's internal upper bound.  The
counts are pinned on one seeded instance (m = 4, |supp x| = 6), with no
clock, so that routing an entry point through another one's checks (which
would repeat them) fails here.
"""

import pytest

import uryson
from uryson.calculus import disjoint_witness
from uryson.instances import disjoint_positive_pair, positive_operator, rng_for
from uryson.lattice import Vector
from uryson.operators import operator_add, operator_is_positive, operator_leq
from uryson.projections import (
    band_set_profile,
    project_band_set,
    project_band_set_complement,
    project_functional,
    project_principal,
    project_rank_one,
)

MODULES = [getattr(uryson, name) for name in ("calculus", "operators", "projections")]


@pytest.fixture
def count_checks(monkeypatch):
    counts = {"positive": 0, "leq": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn, key in ((operator_is_positive, "positive"), (operator_leq, "leq")):
        wrapped = counted(fn, key)
        for module in MODULES:
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapped)

    def run(fn, *args):
        counts.update(positive=0, leq=0)
        fn(*args)
        return counts["positive"], counts["leq"]

    return run


def test_order_checks_per_entry_point(count_checks):
    rng = rng_for(4, "order-checks")
    S, T = disjoint_positive_pair(rng, 4, 6)
    S2, _ = disjoint_positive_pair(rng, 4, 6)
    phi, psi = positive_operator(rng, 1, 6), positive_operator(rng, 1, 6)
    u = Vector((1.0, 0.0, 2.0, 0.5))
    x = Vector((1.0, -0.5, 1.5, 2.5, -1.0, 0.5))
    assert len(x.support()) == 6
    assert operator_is_positive(psi)

    for band in (project_band_set, project_band_set_complement):
        assert count_checks(band, (S,), T, x) == (2, 0)
        # two members and T positive; the pair's upper bound is sought among
        # both members, two order checks each
        assert count_checks(band, (S, operator_add(S, S2)), T, x) == (3, 4)
    assert count_checks(project_principal, S, T, x) == (2, 0)
    assert count_checks(project_rank_one, phi, u, T, x) == (2, 0)
    assert count_checks(project_functional, phi, psi, x) == (2, 0)
    assert count_checks(band_set_profile, S, T, x) == (2, 0)
    assert count_checks(disjoint_witness, S, T, x, 0.5, Vector.ones(4)) == (2, 0)
