"""Benchmark for uryson: one closed-loop client, one process, seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists): calculus_wide,
projection_tall, suite_demo, cli_demo.

--trace 0 measures the end-to-end metrics.  After set-up it runs whole passes
of the workload's fixed op list while the next pass is expected to end within
--seconds, and at least one.  The timings pool every op of every pass.
Set-up is timed in windows: one before the first pass, and one between ops
every SETUP_EVERY_S seconds, left out of the pass times.  Every op and set-up
follows a calibration tick (Calibrator), and its time is scaled by the
machine's speed at that moment, which takes the drift of a shared machine
out of the metrics.  setup_s is the median of all scaled set-ups.  Each op is
checked against the benchmark's own reference values outside the timed
region.

--trace 1 measures the per-layer metrics: one untraced pass, then one pass
with every layer boundary wrapped (tracing.py).  Counts are per op of the
pass; the spans and a per-shape time breakdown go to perfbench/out/.

The last line of stdout is the JSON result; the lines before it print every
metric by name with its unit.  The program is imported from src/ of the
checkout this file sits in; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_WINDOW_S = 0.25  # set-up time per window of set-up samples
SETUP_EVERY_S = 4.0  # least time from the end of one window to the start of the next
STARTUP_SAMPLES = 5
CAL_NEAREST = 15  # calibration ticks whose median speed normalizes one sample
# Median time of one calibration tick, in process and as a bare child, on the
# machine the baseline was measured on (shared 2-vCPU VM, Python 3.11.7).  They
# only set the scale: normalized times read as that machine's at its median speed.
CAL_NOMINAL_S = {"in_process": 0.00045, "child": 0.055}

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SUITE_CHECK_IDS = (
    "calculus-disjoint-witness", "calculus-meet-zero-iff", "calculus-modulus-bound",
    "calculus-rk-identities", "calculus-separable-oracle", "lattice-band-sup-form",
    "lattice-boolean-axioms", "lattice-fragments", "lattice-identities",
    "lattice-order-limit-witness", "lattice-principal-meet", "model-roundtrip",
    "operators-fragment-additive", "operators-integral-oa", "operators-positivity",
    "operators-rank-one", "projections-consistency", "projections-decomposition",
    "projections-idempotence", "projections-monotone", "projections-oracle",
    "projections-order",
)
PER_LAYER = {  # name -> unit; counts and times are per op of the traced pass
    "kernels.eval_calls": "count/op",
    "kernels.self_ms": "ms/op",
    "kernels.pwl_built": "count/op",
    "kernels.to_pwl_calls": "count/op",
    "operators.apply_calls": "count/op",
    "operators.self_ms": "ms/op",
    "operators.positivity_checks": "count/op",
    "operators.positivity_ms": "ms/op",
    "lattice.fragments_enumerated": "count/op",
    "lattice.masks_enumerated": "count/op",
    "lattice.self_ms": "ms/op",
    "calculus.calls": "count/op",
    "calculus.self_ms": "ms/op",
    "calculus.witness_ratio": "ratio",
    "projections.calls": "count/op",
    "projections.self_ms": "ms/op",
    "projections.schedule_steps": "count/op",
    "projections.pairs_tested": "count/op",
    "projections.feasible_ratio": "ratio",
    "dsl.parse_ms": "ms/op",
    "dsl.build_ms": "ms/op",
    "report.dumps_ms": "ms/op",
    "report.bytes_out": "B/op",
    "cli.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms/op",
    **{f"suite.check_ms.{cid}": "ms" for cid in SUITE_CHECK_IDS},
    "trace.overhead_ms": "ms/op",
}


class Calibrator:
    """Fixed benchmark-owned work, timed next to every op and set-up.

    A shared virtual machine's speed can drift by a fifth within seconds, and
    the program's ops drift with it.  The median of the ticks nearest a sample measures the
    machine's speed at that moment, and dividing by it takes the drift out.
    An in-process tick runs the reference formulas on fixed inputs, pure
    Python like the library, with the garbage collector off so that the
    program's heap does not change its time.  For a workload whose ops are
    child processes, a tick is a bare ``python -c pass`` child, which slows
    with process start-up as the ops do.
    """

    def __init__(self, child: bool = False):
        self.kind = "child" if child else "in_process"
        rng = random.Random("perfbench:calibration")
        self.S, self.T = ref.disjoint_pair(rng, 3, 8)
        self.probes = [ref.grid_probe(rng, 8) for _ in range(8)]
        self.ticks: list[tuple[float, float]] = []  # (midpoint, seconds), in time order

    def tick(self) -> None:
        if self.kind == "child":
            t0 = perf_counter()
            _run_bare_child("pass")
            t1 = perf_counter()
        else:
            gc.disable()
            try:
                t0 = perf_counter()
                for x in self.probes:
                    ref.rk_value("join", self.T, x, self.S)
                    ref.apply(self.T, x)
                t1 = perf_counter()
            finally:
                gc.enable()
        self.ticks.append(((t0 + t1) / 2, t1 - t0))

    def factor(self, mid: float) -> float:
        """Nominal tick time over the median tick among the CAL_NEAREST around time mid."""
        i = bisect.bisect(self.ticks, (mid,))
        lo = max(0, min(i - CAL_NEAREST // 2, len(self.ticks) - CAL_NEAREST))
        near = [s for _, s in self.ticks[lo:lo + CAL_NEAREST]]
        return CAL_NOMINAL_S[self.kind] / statistics.median(near)

    def median_ms(self) -> float:
        return statistics.median(s for _, s in self.ticks) * 1e3


class Pass:
    """Samples and outcomes of one pass over the op list."""

    def __init__(self, between=None, calibrator=None):
        self.samples: list[tuple] = []  # (op, seconds)
        self.mids: list[float] = []  # each sample's midpoint on the perf_counter clock
        self.outcomes: list[tuple] = []  # (op, outcome)
        self.paused = 0.0  # seconds in between() and calibration, left out of the wall time
        self._between = between
        self._calibrator = calibrator

    def record(self, op, seconds: float, outcome) -> None:
        self.mids.append(perf_counter() - seconds / 2)
        self.samples.append((op, seconds))
        self.outcomes.append((op, outcome))

    def tick(self) -> None:
        """Called by the workload right before it starts timing an op."""
        if self._calibrator is not None:
            t0 = perf_counter()
            self._calibrator.tick()
            self.paused += perf_counter() - t0

    def between_ops(self) -> None:
        """Called by the workload where the next op has not started yet."""
        if self._between is not None:
            t0 = perf_counter()
            self._between()
            self.paused += perf_counter() - t0


def run_pass(wl, tracer=None, between=None, calibrator=None) -> tuple[Pass, float, int]:
    """One timed pass; returns it with its wall time and its failed-op count."""
    p = Pass(between, calibrator)
    t0 = perf_counter()
    wl.run_pass(p, tracer)
    wall = perf_counter() - t0 - p.paused
    try:
        verdicts = wl.verify(p.outcomes)
    except Exception:  # a result of an unexpected shape fails the whole pass
        traceback.print_exc()
        verdicts = []
    failed = verdicts.count(False) + (len(wl.ops) - len(verdicts))  # unattempted ops fail
    return p, wall, failed


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SetupTimer:
    """Times set-up in windows spread over the run.  A window repeats set-up
    until it has taken SETUP_WINDOW_S; windows start at least SETUP_EVERY_S
    apart.  Every set-up follows a calibration tick."""

    def __init__(self, wl, seed: int, calibrator: Calibrator):
        self.wl, self.seed, self.calibrator = wl, seed, calibrator
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.due = 0.0

    def window(self, first: bool = False) -> None:
        # the first set-up builds wl's op list; later ones build a fresh
        # instance, so that the op list a pass is running stays as it is
        target = self.wl if first else type(self.wl)()
        spent = 0.0
        while spent < SETUP_WINDOW_S:
            self.calibrator.tick()
            t0 = perf_counter()
            target.setup(self.seed)
            t1 = perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))
            spent += t1 - t0
            target = type(self.wl)()
        self.calibrator.tick()
        del target
        gc.collect()  # the discarded instances' cycles are not left for a timed op to collect
        self.due = perf_counter() + SETUP_EVERY_S

    def between_ops(self) -> None:
        if perf_counter() >= self.due:
            self.window()


def measure(wl, seed: int, seconds: float) -> dict:
    calibrator = Calibrator(child=wl.name == "cli_demo")
    setup = SetupTimer(wl, seed, calibrator)
    setup.window(first=True)

    latencies, mids, wall, attempted, failed = [], [], 0.0, 0, 0
    while True:
        p, pass_wall, pass_failed = run_pass(wl, between=setup.between_ops, calibrator=calibrator)
        latencies += [s for _, s in p.samples]
        mids += p.mids
        wall += pass_wall
        attempted += len(wl.ops)
        failed += pass_failed
        if wall + pass_wall > seconds:  # the next pass would overrun
            break

    # every time is scaled to the machine's median speed at the moment it was taken
    norm = [s * calibrator.factor(t) for s, t in zip(latencies, mids)]
    norm_wall = wall * sum(norm) / sum(latencies)
    setups = [s * calibrator.factor(t) for t, s in setup.samples]
    raw_setups = [s for _, s in setup.samples]

    who = resource.RUSAGE_CHILDREN if wl.name == "cli_demo" else resource.RUSAGE_SELF
    p90 = percentile(norm, 90)
    values = {
        "ops_per_s": len(norm) / norm_wall,
        "op_ms_p50": statistics.median(norm) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    print(f"# {wl.name} seed={seed}: {len(norm)} op samples over {wall:.3f} s "
          f"({sum(s > p90 for s in norm)} beyond p90), {attempted} attempted, {failed} failed; "
          f"{len(setups)} set-ups; {len(calibrator.ticks)} {calibrator.kind} calibration ticks, median "
          f"{calibrator.median_ms():.4f} ms (nominal {CAL_NOMINAL_S[calibrator.kind] * 1e3:.4f} ms)")
    print(f"# not normalized: ops_per_s = {len(latencies) / wall:.4f} 1/s, "
          f"op_ms_p50 = {statistics.median(latencies) * 1e3:.4f} ms, "
          f"op_ms_p90 = {percentile(latencies, 90) * 1e3:.4f} ms, "
          f"setup_s = {statistics.median(raw_setups):.5f} s")
    print(f"# fail_frac = {failed / attempted:.6f} ratio")
    return {"attempted": attempted, "failed": failed, "values": values, "units": END_TO_END}


def _run_bare_child(code: str) -> None:
    from workloads import child_env

    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                   check=True, capture_output=True, timeout=120)


def _median_child_ms(code: str) -> float:
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = perf_counter()
        _run_bare_child(code)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def measure_traced(wl, seed: int) -> dict:
    import tracing
    from workloads import OUT

    wl.setup(seed)
    wl.in_process = True  # cli_demo: both passes call cli.main in process
    plain, plain_wall, plain_failed = run_pass(wl)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        _, traced_wall, traced_failed = run_pass(wl, tracer)
    finally:
        tracer.uninstall()

    n = len(wl.ops)
    c, calls = tracer.counts, tracer.calls
    self_ms = {k: v * 1e3 for k, v in tracer.self_s.items()}

    def layer_ms(layer: str) -> float:
        return sum(v for k, v in self_ms.items() if k.startswith(layer + ".")) / n

    def layer_calls(layer: str) -> float:
        return sum(v for k, v in calls.items() if k.startswith(layer + ".")) / n

    values = {
        "kernels.eval_calls": calls["kernels.eval"] / n,
        "kernels.self_ms": layer_ms("kernels"),
        "kernels.pwl_built": calls["kernels.pwl_built"] / n,
        "kernels.to_pwl_calls": calls["kernels.to_pwl"] / n,
        "operators.apply_calls": calls["operators.apply"] / n,
        "operators.self_ms": self_ms.get("operators.apply", 0.0) / n,
        "operators.positivity_checks": calls["operators.positivity"] / n,
        "operators.positivity_ms": tracer.total_s["operators.positivity"] * 1e3 / n,
        "lattice.fragments_enumerated": c["lattice.fragments_enumerated"] / n,
        "lattice.masks_enumerated": c["lattice.masks_enumerated"] / n,
        "lattice.self_ms": layer_ms("lattice"),
        "calculus.calls": layer_calls("calculus"),
        "calculus.self_ms": layer_ms("calculus"),
        "calculus.witness_ratio": c["calculus.witness_fragments"] / max(c["calculus.fragments_enumerated"], 1),
        "projections.calls": layer_calls("projections"),
        "projections.self_ms": layer_ms("projections"),
        "projections.schedule_steps": c["projections.schedule_steps"] / n,
        "projections.pairs_tested": c["projections.pairs_tested"] / n,
        "projections.feasible_ratio": c["projections.feasible_sum"] / max(c["projections.feasible_den"], 1),
        "dsl.parse_ms": self_ms.get("dsl.parse", 0.0) / n,
        "dsl.build_ms": self_ms.get("dsl.build", 0.0) / n,
        "report.dumps_ms": self_ms.get("report.dumps", 0.0) / n,
        "report.bytes_out": c["report.bytes_out"] / n,
        "cli.startup_ms": 0.0,
        "cli.import_ms": 0.0,
        "cli.main_ms": 0.0,
        "trace.overhead_ms": (traced_wall - plain_wall) * 1e3 / n,
    }
    by_kind: dict = {}  # untraced op times; one suite_demo op is one check call
    for op, s in plain.samples:
        by_kind.setdefault(op.kind, []).append(s * 1e3)
    for cid in SUITE_CHECK_IDS:
        values[f"suite.check_ms.{cid}"] = statistics.fmean(by_kind.get(cid, [0.0]))
    if wl.name == "cli_demo":
        startup = _median_child_ms("pass")
        values["cli.startup_ms"] = startup
        values["cli.import_ms"] = _median_child_ms("import uryson.cli") - startup
        values["cli.main_ms"] = plain_wall * 1e3 / n

    # scaling detail (not gated): untraced op time by shape
    by_shape: dict = {}
    for op, s in plain.samples:
        by_shape.setdefault(op.shape, []).append(s * 1e3)
    shapes = {
        shape: {"ops": len(v), "median_ms": statistics.median(v), "total_ms": sum(v)}
        for shape, v in by_shape.items()
    }
    op_list = [[op.kind, op.shape] for op in wl.ops]
    inputs_digest = hashlib.sha256(repr([op.data for op in wl.ops]).encode()).hexdigest()
    counts = {k: v for k, v in sorted((calls + c).items())}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{wl.name}-seed{seed}.json")
    with open(OUT / f"trace-{wl.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed, "ops": op_list, "inputs_digest": inputs_digest,
                   "counts": counts,
                   "shapes": shapes, "untraced_s": plain_wall, "traced_s": traced_wall}, fh, indent=1)
    for shape, row in shapes.items():
        print(f"# shape {shape}: {row['ops']} ops, median {row['median_ms']:.3f} ms, "
              f"total {row['total_ms']:.1f} ms")
    print(f"# traced pass {traced_wall:.3f} s vs untraced {plain_wall:.3f} s; "
          f"spans and counts in {OUT.relative_to(ROOT)}/")
    attempted = 2 * n
    failed = plain_failed + traced_failed
    print(f"# fail_frac = {failed / attempted:.6f} ratio")
    return {"attempted": attempted, "failed": failed, "values": values, "units": PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not (ROOT / "src" / "uryson" / "__init__.py").is_file():
        print(f"error: no uryson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("URYSON_SEED", None)  # it would override the model seeds in process too
    from workloads import WORKLOADS  # imports uryson from src/

    if ns.workload not in WORKLOADS:
        print(f"error: unknown workload {ns.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[ns.workload]()
    res = measure_traced(wl, ns.seed) if ns.trace else measure(wl, ns.seed, ns.seconds)
    metrics = {}
    for name, unit in res["units"].items():
        value = res["values"][name]
        print(f"{name} = {value!r} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
