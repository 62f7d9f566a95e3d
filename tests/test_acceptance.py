"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test also stands alone as a plain pass/fail under ``pytest``.
Identity checks run at 1e-9, projection contracts at 1e-7, and the two
batch criteria carry a 10-second runtime budget.
"""

import importlib.resources
import itertools
import json
import time
from pathlib import Path

import pytest

from uryson.calculus import (
    check_disjoint_iff,
    check_modulus_bound,
    disjoint_witness,
    rk_eval,
    rk_eval_separable,
    witness_products,
)
from uryson.cli import main as cli_main
from uryson.dsl import parse_model, render
from uryson.errors import C0Violation, NotConverged
from uryson.instances import (
    decreasing_to,
    disjoint_positive_pair,
    grid_vector,
    perturbed_pair,
    positive_operator,
    positive_pwl,
    random_operator,
    rng_for,
)
from uryson.kernels import BuiltinKernel, PwlKernel, ZERO_KERNEL
from uryson.lattice import (
    IndexedFamily,
    Mask,
    Vector,
    all_masks,
    is_partition_of_unity,
    order_limit_witness,
    principal_mask,
    vec,
)
from uryson.operators import (
    IntegralKernelSpec,
    KernelOperator,
    discretize_integral,
    rank_one,
    validate,
)
from uryson.projections import (
    masking_oracle,
    project_band_set,
    project_band_set_complement,
    project_functional,
    project_principal,
    project_rank_one,
)

IDENT_TOL = 1e-9
PROJ_TOL = 1e-7
TIME_BUDGET = 10.0

DEMO = str(importlib.resources.files("uryson") / "demo.ury")


def _verdict(number, name, failures, extra=""):
    status = "PASS" if not failures else f"FAIL ({failures[0]})"
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert not failures, failures[0]


def _away_probe(rng, dim):
    levels = [0.25 * k for k in range(2, 13)]
    return Vector(
        tuple(rng.choice(levels) * rng.choice((-1.0, 1.0)) for _ in range(dim))
    )


def _sparse_positive(rng, m, n):
    rows = [
        [positive_pwl(rng) if rng.random() < 0.6 else ZERO_KERNEL for _ in range(n)]
        for _ in range(m)
    ]
    return KernelOperator(tuple(tuple(row) for row in rows))


def _instance_batch(seed, count):
    rng = rng_for(seed, "acceptance-rk")
    batch = []
    for _ in range(count):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        T = random_operator(rng, m, n)
        S = random_operator(rng, m, n)
        probes = [grid_vector(rng, n) for _ in range(5)]
        batch.append((T, S, probes))
    return batch


BATCH = _instance_batch(0, 100)


def test_criterion_01_lattice_identities_on_random_pairs():
    failures = []
    start = time.monotonic()
    cases = 0
    for T, S, probes in BATCH:
        for x in probes:
            cases += 1
            join = rk_eval("join", T, x, S).value
            meet = rk_eval("meet", T, x, S).value
            pos = rk_eval("pos", T, x).value
            neg = rk_eval("neg", T, x).value
            absv = rk_eval("abs", T, x).value
            tx = T(x)
            if not (join + meet).isclose(tx + S(x), IDENT_TOL):
                failures.append(f"join+meet != T(x)+S(x) at {x.coords}")
            if not (pos - neg).isclose(tx, IDENT_TOL):
                failures.append(f"pos-neg != T(x) at {x.coords}")
            if not absv.isclose(pos + neg, IDENT_TOL):
                failures.append(f"abs != pos+neg at {x.coords}")
            if not tx.abs().leq(absv, IDENT_TOL):
                failures.append(f"|T(x)| > |T|(x) at {x.coords}")
            if failures:
                break
        if failures:
            break
    elapsed = time.monotonic() - start
    if elapsed >= TIME_BUDGET:
        failures.append(f"runtime {elapsed:.2f}s exceeds {TIME_BUDGET}s")
    _verdict(1, "lattice identities (100 pairs x 5 probes)", failures,
             f"{cases} cases, {elapsed:.2f}s")


def test_criterion_02_enumeration_matches_separable_form():
    failures = []
    cases = 0
    for T, S, probes in BATCH:
        for x in probes:
            for kind in ("join", "meet"):
                cases += 1
                enum = rk_eval(kind, T, x, S).value
                if not enum.isclose(rk_eval_separable(kind, T, x, S), IDENT_TOL):
                    failures.append(f"{kind} mismatch at {x.coords}")
            for kind in ("pos", "neg", "abs"):
                cases += 1
                enum = rk_eval(kind, T, x).value
                if not enum.isclose(rk_eval_separable(kind, T, x), IDENT_TOL):
                    failures.append(f"{kind} mismatch at {x.coords}")
            if not check_modulus_bound(T, x):
                failures.append(f"modulus bound fails at {x.coords}")
            if failures:
                break
        if failures:
            break
    _verdict(2, "fragment enumeration == separable closed form", failures,
             f"{cases} comparisons")


def test_criterion_03_disjointness_witnesses():
    failures = []
    start = time.monotonic()
    rng = rng_for(0, "acceptance-disjoint")
    for k in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        S, T = disjoint_positive_pair(rng, m, n)
        x = _away_probe(rng, n)
        eps, u = 1.0, Vector.ones(m)
        w = disjoint_witness(S, T, x, eps, u)
        if not is_partition_of_unity(w.masks):
            failures.append(f"witness masks not a partition (case {k})")
            break
        bound = u.scale(eps)
        for p in witness_products(S, T, x, w):
            if p.coords != (0.0,) * m:
                failures.append(f"witness product not exactly zero (case {k})")
            if not p.leq(bound, 0.0):
                failures.append(f"witness product above eps*u (case {k})")
        if failures:
            break
    rng2 = rng_for(0, "acceptance-perturbed")
    hits = 0
    for k in range(50):
        if failures:
            break
        m, n = rng2.randint(1, 3), rng2.randint(1, 3)
        S, T = perturbed_pair(rng2, m, n)
        overlap_probe = None
        for j in range(n):
            x = Vector(tuple(3.0 if jj == j else 0.0 for jj in range(n)))
            if any(c > IDENT_TOL for c in rk_eval("meet", S, x, T).value.coords):
                overlap_probe = x
                break
        if overlap_probe is None:
            failures.append(f"perturbed pair {k} shows no overlap")
            break
        hits += 1
        rep = check_disjoint_iff(S, T, [overlap_probe], 1.0)
        entry = rep["probes"][0]
        if entry["disjoint"]:
            failures.append(f"perturbed pair {k} reported disjoint")
        elif entry["converse"][-1]["witness_exists"]:
            failures.append(
                f"witness survives below the perturbation scale (pair {k})"
            )
        elif not entry["ok"]:
            failures.append(f"two-sided check inconsistent on pair {k}")
    elapsed = time.monotonic() - start
    if elapsed >= TIME_BUDGET:
        failures.append(f"runtime {elapsed:.2f}s exceeds {TIME_BUDGET}s")
    _verdict(3, "disjoint witnesses + perturbed refutations", failures,
             f"50+{hits} pairs, {elapsed:.2f}s")


def test_criterion_04_projection_decomposition_and_idempotence():
    failures = []
    rng = rng_for(0, "acceptance-proj")
    checked = 0
    for k in range(25):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        S = _sparse_positive(rng, m, n)
        T = positive_operator(rng, m, n)
        x = _away_probe(rng, n)
        tx = T(x)
        band = project_band_set((S,), T, x)  # default schedule: 40 halvings
        comp = project_band_set_complement((S,), T, x)
        checked += 1
        if not (band.value + comp.value).isclose(tx, PROJ_TOL):
            failures.append(f"band+complement != T(x) (case {k})")
            break
        if not Vector.zero(m).leq(band.value, PROJ_TOL):
            failures.append(f"band below zero (case {k})")
            break
        if not band.value.leq(tx, PROJ_TOL):
            failures.append(f"band above T(x) (case {k})")
            break
        own = project_band_set((T,), T, x)
        if not own.value.isclose(tx, PROJ_TOL):
            failures.append(f"projection onto own band not identity (case {k})")
            break
        A, B = disjoint_positive_pair(rng, m, n)
        z = project_band_set((A,), B, x)
        if not z.value.isclose(Vector.zero(m), PROJ_TOL):
            failures.append(f"projection of disjoint operator nonzero (case {k})")
            break
    _verdict(4, "band decomposition, idempotence, order, stabilization",
             failures, f"{checked} instances")


def test_criterion_05_masking_oracle_equivalence():
    failures = []
    rng = rng_for(0, "acceptance-oracle")
    for k in range(50):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        S = _sparse_positive(rng, m, n)
        T = positive_operator(rng, m, n)
        x = _away_probe(rng, n)
        oracle = masking_oracle(S, T, x)
        band = project_band_set((S,), T, x).value
        if not band.isclose(oracle, PROJ_TOL):
            failures.append(
                f"band {band.coords} != oracle {oracle.coords} (case {k})"
            )
            break
        comp = project_band_set_complement((S,), T, x).value
        if not comp.isclose(T(x) - oracle, PROJ_TOL):
            failures.append(f"complement disagrees with oracle (case {k})")
            break
    _verdict(5, "masking oracle equivalence (50 pairs)", failures)


def test_criterion_06_formula_cross_consistency():
    failures = []
    rng = rng_for(0, "acceptance-consistency")
    for k in range(20):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        S = _sparse_positive(rng, m, n)
        T = positive_operator(rng, m, n)
        x = _away_probe(rng, n)
        pr = project_principal(S, T, x)
        if not pr.complement_alt.value.isclose(pr.complement.value, PROJ_TOL):
            failures.append(f"complement routes disagree (case {k})")
            break
        phi = KernelOperator((tuple(positive_pwl(rng) for _ in range(n)),))
        u = Vector(tuple(float(rng.randint(0, 2)) for _ in range(m)))
        if all(c == 0.0 for c in u.coords):
            u = Vector.ones(m)
        rr = project_rank_one(phi, u, T, x)
        pp = project_principal(rank_one(phi, u), T, x)
        if not rr.band.isclose(pp.band.value, PROJ_TOL):
            failures.append(f"rank-one band != principal route (case {k})")
            break
        if not rr.complement.isclose(pp.complement.value, PROJ_TOL):
            failures.append(f"rank-one complement != principal route (case {k})")
            break
        if m == 1:
            f_val = project_functional(phi, T, x)
            if abs(f_val - rr.band.coords[0]) > PROJ_TOL or abs(
                f_val - project_rank_one(phi, vec(1.0), T, x).band.coords[0]
            ) > PROJ_TOL:
                failures.append(f"functional route disagrees (case {k})")
                break
    # hand-derived case: phi vanishes inside [-1, 1] and is alive outside
    gap = PwlKernel(((-2.0, 1.0), (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 1.0)))
    phi = KernelOperator(((gap,),))
    T1 = KernelOperator(((BuiltinKernel("abs"),),))
    if project_functional(phi, T1, vec(0.5)) != 0.0:
        failures.append("hand case (pi_phi T)(0.5) != 0")
    if project_functional(phi, T1, vec(2.0)) != 2.0:
        failures.append("hand case (pi_phi T)(2) != 2")
    _verdict(6, "projection formulas cross-consistent + hand case", failures)


def test_criterion_07_boolean_algebra_and_principal_masks():
    failures = []
    cases = 0
    for m in range(1, 5):
        masks = all_masks(m)
        empty, full = Mask.empty(m), Mask.full(m)
        for a, b in itertools.product(masks, repeat=2):
            cases += 1
            if (a & b) != (b & a) or (a | b) != (b | a):
                failures.append(f"commutativity fails at m={m}")
            if (a & b).complement() != (a.complement() | b.complement()):
                failures.append(f"De Morgan fails at m={m}")
        for a, b, c in itertools.product(masks, repeat=3):
            if (a & (b | c)) != ((a & b) | (a & c)):
                failures.append(f"distributivity fails at m={m}")
                break
        for a in masks:
            cases += 1
            if (a & a.complement()) != empty or (a | a.complement()) != full:
                failures.append(f"complement laws fail at m={m}")
            if (a & a) != a or (a | a) != a:
                failures.append(f"idempotence fails at m={m}")
        # principal masks over sign/support patterns
        for pattern in itertools.product((0.0, 0.5, 1.0), repeat=m):
            f = Vector(pattern)
            for pattern2 in itertools.product((0.0, 1.0), repeat=m):
                g = Vector(pattern2)
                cases += 1
                if principal_mask(f) & principal_mask(g) != principal_mask(f.meet(g)):
                    failures.append(f"mask of meet fails at m={m}")
        for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=m):
            g = Vector(pattern)
            cases += 1
            if principal_mask(g).apply(g) != g:
                failures.append(f"projection onto own band fails at m={m}")
        if failures:
            break
    _verdict(7, "Boolean mask algebra exhaustive (m <= 4)", failures,
             f"{cases} identities")


def test_criterion_08_order_limit_witnesses():
    failures = []
    rng = rng_for(0, "acceptance-limits")
    eps = 0.25
    for k in range(20):
        dim = rng.randint(1, 4)
        x = grid_vector(rng, dim)
        seq = decreasing_to(x, steps=rng.randint(4, 8))
        fam = IndexedFamily(tuple(str(i) for i in range(len(seq))), tuple(seq))
        u = Vector.ones(dim)
        w = order_limit_witness(fam, x, eps=eps, u=u)
        if not is_partition_of_unity(w):
            failures.append(f"witness not a partition of unity (case {k})")
            break
        for label, mask in w.pairs():
            for b in range(int(label), len(seq)):
                dev = mask.apply((seq[b] - x).abs())
                if not dev.leq(u.scale(eps), IDENT_TOL):
                    failures.append(f"masked deviation above eps*u (case {k})")
                    break
        if failures:
            break
    stuck = IndexedFamily(("0", "1", "2"), tuple([vec(2.0, 2.0)] * 3))
    try:
        order_limit_witness(stuck, vec(0.0, 0.0), eps=0.5, u=Vector.ones(2))
        failures.append("NotConverged not raised on constant off-target sequence")
    except NotConverged:
        pass
    _verdict(8, "order-limit witnesses (20 sequences + refusal)", failures)


def test_criterion_09_integral_discretization():
    failures = []
    import math

    specs = [
        IntegralKernelSpec(
            lambda s, t, r: s * t * r, (1.0, 2.0), (0.5, 1.0), (1.0, 1.0)
        ),
        IntegralKernelSpec(
            lambda s, t, r: s * math.sin(t * r) * r,
            (1.0, 1.5, 2.0),
            (0.5, 1.0),
            (0.25, 0.75),
        ),
        IntegralKernelSpec(
            lambda s, t, r: abs(r) * math.exp(-s * t), (0.5,), (1.0, 2.0, 3.0),
            (0.2, 0.3, 0.5),
        ),
    ]
    rng = rng_for(0, "acceptance-integral")
    for idx, spec in enumerate(specs):
        U = discretize_integral(spec)
        box = (Vector.ones(U.n).scale(-2.0), Vector.ones(U.n).scale(2.0))
        rep = validate(U, box, samples=64, seed=idx)
        if not rep.orthogonally_additive_ok:
            failures.append(f"discretized operator {idx} not orthogonally additive")
            break
        for _ in range(10):
            x = grid_vector(rng, U.n)
            y = Vector(
                tuple(c if rng.random() < 0.5 else 0.0 for c in x.coords)
            )
            if not (U(y) + U(x - y)).isclose(U(x), IDENT_TOL):
                failures.append(f"fragment additivity fails for operator {idx}")
                break
        if failures:
            break
    try:
        discretize_integral(
            IntegralKernelSpec(lambda s, t, r: s * t + r, (1.0,), (2.0,), (1.0,))
        )
        failures.append("C0Violation not raised for K(s,t,0) != 0")
    except C0Violation:
        pass
    _verdict(9, "integral discretization additive + C0 guard", failures)


def test_criterion_10_cli_round_trip_and_determinism(capsys, tmp_path):
    failures = []
    demo_text = Path(DEMO).read_text(encoding="utf-8")
    model = parse_model(demo_text)
    if parse_model(render(model)) != model:
        failures.append("parse/print round trip changed the model")

    code_a = cli_main(["run", DEMO, "project", "S", "T", "x1"])
    out_a = capsys.readouterr().out
    code_b = cli_main(["run", DEMO, "project", "S", "T", "x1"])
    out_b = capsys.readouterr().out
    if code_a != 0 or code_b != 0:
        failures.append("project command did not exit 0")
    if out_a != out_b:
        failures.append("reports not byte-identical for fixed seed")
    try:
        json.loads(out_a)
    except json.JSONDecodeError:
        failures.append("report is not valid JSON")

    suite_code = cli_main(["suite", DEMO])
    suite_out = capsys.readouterr().out
    if suite_code != 0:
        failures.append(f"suite exited {suite_code} on the shipped demo")
    elif not json.loads(suite_out)["result"]["suite"]["ok"]:
        failures.append("suite report not ok")
    with capsys.disabled():
        _verdict(10, "CLI round trip, determinism, demo suite", failures)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
