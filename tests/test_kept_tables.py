"""Kept kernel tables: each kernel is evaluated once per operator and probe.

A `KernelOperator` keeps its zero table kernels[i][j](0.0) and the addend
table of its last probe, matched by identity.  The counts below need no
clock: on a fresh pair every entry point evaluates each kernel once at x_j
and once at 0, a second call with the same probe object evaluates none, and
a new probe evaluates m*n per operator.  Kept tables must never change a
result: signed zeros tell equal probes apart, and a pickle or copy of an
operator carries its kernels only.
"""

import copy
import pickle
from collections import Counter

import pytest

from uryson.calculus import check_disjoint_iff, rk_eval
from uryson.instances import disjoint_positive_pair, rng_for
from uryson.kernels import BuiltinKernel, PwlKernel
from uryson.lattice import Vector, fragments
from uryson.operators import KernelOperator, operator_leq
from uryson.projections import project_band_set, project_principal

X = Vector((1.0, -0.5, 1.5, 2.5, -1.0, 0.5))
PROGRAMS = {
    "band_set": (2, lambda S, T, x: project_band_set((S,), T, x)),
    "principal": (2, lambda S, T, x: project_principal(S, T, x)),
    "disjoint_iff": (2, lambda S, T, x: check_disjoint_iff(S, T, [x], 1.0)),
    "rk_pos": (1, lambda S, T, x: rk_eval("pos", T, x)),
    # T(y) and T(x - y) from one table read both ways
    "rk_abs": (1, lambda S, T, x: rk_eval("abs", T, x)),
}


@pytest.fixture
def evaluations(monkeypatch):
    """run(fn, *args) -> the arguments of every PwlKernel call fn made."""
    seen = []
    original = PwlKernel.__call__

    def counted(self, r):
        seen.append(r)
        return original(self, r)

    monkeypatch.setattr(PwlKernel, "__call__", counted)

    def run(fn, *args):
        seen.clear()
        fn(*args)
        return list(seen)

    return run


def fresh_pair():
    return disjoint_positive_pair(rng_for(4, "applications"), 4, 6)


@pytest.mark.parametrize("name", PROGRAMS)
def test_each_kernel_once_at_the_probe_and_once_at_zero(evaluations, name):
    ops, program = PROGRAMS[name]
    S, T = fresh_pair()
    cells = T.m * T.n
    args = evaluations(program, S, T, X)
    # per operator: every column's x_j on each row, and 0.0 for every cell
    assert Counter(args) == Counter(list(X.coords) * T.m * ops + [0.0] * cells * ops)


@pytest.mark.parametrize("name", PROGRAMS)
def test_same_probe_evaluates_nothing_and_a_new_probe_m_times_n(evaluations, name):
    ops, program = PROGRAMS[name]
    S, T = fresh_pair()
    first = evaluations(program, S, T, X)
    assert len(first) == 2 * T.m * T.n * ops
    assert evaluations(program, S, T, X) == []
    # an equal probe is a new probe: only its table is evaluated
    again = Vector(X.coords)
    assert evaluations(program, S, T, again) == list(X.coords) * T.m * ops
    assert evaluations(program, S, T, again) == []


def signed_zero_operator():
    kernels = (BuiltinKernel("abs"), BuiltinKernel("id"), BuiltinKernel("clamp", 1.0, (0.0, 1.0)))
    return KernelOperator(tuple((k, kernels[i - 1]) for i, k in enumerate(kernels)))


def results(T, x):
    frags = fragments(x)
    tables = (T.on_fragments(frags), T.on_fragments(frags, rest=True))
    return repr((T(x), T.kernel_values(x), tables))


def test_identity_key_holds_under_signed_zeros():
    neg, pos = Vector((-0.0, 1.0)), Vector((0.0, 1.0))
    assert neg == pos
    assert results(signed_zero_operator(), neg) != results(signed_zero_operator(), pos)
    for probes in ((neg, pos), (pos, neg)):
        T = signed_zero_operator()
        for x in probes + probes:
            assert results(T, x) == results(signed_zero_operator(), x)


def test_kernel_values_are_fresh_lists():
    T = signed_zero_operator()
    x = Vector((2.0, -3.0))
    rows = T.kernel_values(x)
    rows[0][0] = 99.0
    rows.append([])
    assert T.kernel_values(x) == [[2.0, 0.0], [2.0, 3.0], [1.0, -3.0]]


def test_pickle_and_copy_carry_kernels_only():
    rng = rng_for(7, "kept-pickle")
    S, T = disjoint_positive_pair(rng, 3, 4)
    x = Vector((1.0, -0.5, 2.0, 0.0))
    before = (operator_leq(S, T), T(x), T.on_fragments(fragments(x), rest=True))
    assert T._leq and T._at_0 is not None and T._at_x is not None
    for twin in (pickle.loads(pickle.dumps(T)), copy.copy(T), copy.deepcopy(T)):
        assert twin == T and twin is not T and hash(twin) == hash(T)
        assert (twin._positive, twin._leq, twin._at_0, twin._at_x) == ({}, {}, None, None)
        assert repr(twin) == repr(T)
        after = (operator_leq(S, twin), twin(x), twin.on_fragments(fragments(x), rest=True))
        assert repr(after) == repr(before)


def test_fallback_rows_read_the_kept_tables(evaluations):
    # a finite table past the 2^1020 guard: its rows are fsum'd per fragment
    # from the kept tables at x and at 0, so x stays the kept probe
    k = PwlKernel(((-1.0, -1e308), (0.0, 0.0), (1.0, 1e308)))
    T = KernelOperator(((k, k),))
    x = Vector((1.0, -1.0))
    frags = fragments(x)
    assert sorted(evaluations(T.on_fragments, frags)) == [-1.0, 0.0, 0.0, 1.0]
    for rest in (False, True, False):
        assert evaluations(T.on_fragments, frags, rest) == []
    assert T.on_fragments(frags) == [[0.0, 1e308, -1e308, 0.0]]
    assert T.on_fragments(frags, rest=True) == [[0.0, -1e308, 1e308, 0.0]]
