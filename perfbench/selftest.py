"""Self-test of the benchmark's tracing: wrappers catch every call, the
predicted zeros hold, and counts repeat exactly.

    python3 perfbench/selftest.py

For each workload it makes three traced runs (``run.py --trace 1``) in fresh
processes: two with the same seed and one with the next seed.  It checks that

* every run is correct;
* each per-layer metric in PREDICTIONS is non-zero on the workload meant to
  exercise it, and each metric in ZEROS is exactly 0 where the design says
  no such work happens;
* the two same-seed runs give identical op lists, inputs and counts;
* the other seed gives different inputs but the same op count and mix of
  (op kind, shape).

Exits 1 and lists the failures if any check fails.  Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter

from run import HERE, ROOT, SUITE_CHECK_IDS

# per-layer metrics that must be non-zero on the workload meant to exercise
# them (README.md gives the end-to-end metric each should move)
PREDICTIONS = {
    "calculus_wide": (
        "kernels.eval_calls", "kernels.self_ms", "operators.apply_calls", "operators.self_ms",
        "lattice.fragments_enumerated", "lattice.self_ms",
        "calculus.calls", "calculus.self_ms", "calculus.witness_ratio",
    ),
    "projection_tall": (
        "kernels.eval_calls", "kernels.self_ms", "operators.apply_calls", "operators.self_ms",
        "lattice.masks_enumerated", "projections.calls", "projections.self_ms",
        "projections.schedule_steps", "projections.pairs_tested", "projections.feasible_ratio",
    ),
    "suite_demo": (
        "kernels.pwl_built", "kernels.to_pwl_calls",
        "operators.positivity_checks", "operators.positivity_ms",
        *(f"suite.check_ms.{cid}" for cid in SUITE_CHECK_IDS),
    ),
    "cli_demo": (
        "operators.positivity_checks", "operators.positivity_ms",
        "dsl.parse_ms", "dsl.build_ms", "report.dumps_ms", "report.bytes_out",
        "cli.startup_ms", "cli.import_ms", "cli.main_ms",
    ),
}
ZEROS = {
    "calculus_wide": ("lattice.masks_enumerated", "projections.calls"),
    "projection_tall": ("calculus.calls",),
}
SEED = 1  # the same-seed pair runs SEED; the other seed is SEED + 1
# exact per-op counts and ratios; the *_ms metrics are timings and vary
COUNT_UNITS = ("count/op", "ratio", "B/op")


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"trace-{workload}-seed{seed}.json").read_text())
    return result, detail


def check_workload(workload: str, seed: int) -> list[str]:
    problems = []
    (r1, d1), (r2, d2), (r3, d3) = (
        traced_run(workload, seed), traced_run(workload, seed), traced_run(workload, seed + 1)
    )
    for r, s in ((r1, seed), (r2, seed), (r3, seed + 1)):
        if not r["correct"] or r["failed"]:
            problems.append(f"seed {s}: {r['failed']} of {r['attempted']} ops failed")
    metrics = r1["metrics"]
    for name in PREDICTIONS[workload]:
        if not metrics[name]["value"] > 0:
            problems.append(f"{name} should be non-zero, is {metrics[name]['value']}")
    for name in ZEROS.get(workload, ()):
        if metrics[name]["value"] != 0:
            problems.append(f"{name} should be 0, is {metrics[name]['value']}")
    exact = [k for k, v in metrics.items() if v["unit"] in COUNT_UNITS]
    for name in exact:
        if metrics[name]["value"] != r2["metrics"][name]["value"]:
            problems.append(f"{name} differs between same-seed runs")
    if d1["counts"] != d2["counts"]:
        diff = sorted(k for k in set(d1["counts"]) | set(d2["counts"])
                      if d1["counts"].get(k) != d2["counts"].get(k))
        problems.append(f"counts differ between same-seed runs: {diff}")
    if d1["ops"] != d2["ops"] or d1["inputs_digest"] != d2["inputs_digest"]:
        problems.append("op list or inputs differ between same-seed runs")
    if d1["inputs_digest"] == d3["inputs_digest"]:
        problems.append("another seed gave the same inputs")
    if Counter(map(tuple, d1["ops"])) != Counter(map(tuple, d3["ops"])):
        problems.append("another seed changed the op count or shape mix")
    return problems


def main() -> int:
    failures = 0
    for workload in PREDICTIONS:
        problems = check_workload(workload, SEED)
        failures += len(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  - {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
