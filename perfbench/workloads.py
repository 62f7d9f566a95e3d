"""The four workloads: seeded inputs, a fixed op list, and per-op checks.

Every workload builds its whole op list from the seed during set-up, so a pass
does the same work on both commits of a comparison.  An op's outcome is its
return value or the exception it raised; ``verify`` judges a pass's outcomes
against ``reference`` and returns one verdict per op.  A domain error counts
as a success only where the reference predicts it.
"""

from __future__ import annotations

import functools
import io
import json
import os
import random
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import reference as ref
from uryson import calculus, cli, dsl, projections, report, suite
from uryson.errors import NotDisjoint
from uryson.kernels import PwlKernel
from uryson.lattice import Vector
from uryson.operators import KernelOperator

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WARM_UP_SEED = 0  # warm-up inputs are the same for every --seed, so set-up work is too


@dataclass
class Op:
    kind: str
    shape: str
    call: Callable[[], Any] | None  # None where run_pass drives the op itself
    data: dict = field(default_factory=dict)  # what verify needs


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{tag}")


def _lib_op(data: tuple) -> KernelOperator:
    return KernelOperator(tuple(tuple(PwlKernel(k) for k in row) for row in data))


def _is_fragment(y, x) -> bool:
    return all(a == 0.0 or a == b for a, b in zip(y, x))


def _partition_of_unity(index_sets: list, m: int) -> bool:
    seen = [i for s in index_sets for i in s]
    return sorted(seen) == list(range(m))


def _timed_pass(ops: list[Op], p, tracer) -> None:
    for op in ops:
        p.tick()
        t0 = perf_counter()
        try:
            with tracer.span(f"op.{op.kind}") if tracer else nullcontext():
                out = op.call()
        except Exception as exc:  # an op's error is its outcome; verify judges it
            out = exc
        p.record(op, perf_counter() - t0, out)
        p.between_ops()


class Workload:
    name = ""
    ops: list[Op]
    in_process = False  # cli_demo only: call cli.main in process instead of a child

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, p, tracer=None) -> None:
        """Run every op once, calling p.tick right before timing it, p.record
        after it, and p.between_ops wherever the run may do untimed work."""
        _timed_pass(self.ops, p, tracer)

    def verify(self, outcomes: list) -> list[bool]:
        raise NotImplementedError


# --------------------------------------------------------------------------

class CalculusWide(Workload):
    """Riesz-Kantorovich values and disjointness on wide 3 x n pairs."""

    name = "calculus_wide"
    # (n, pairs); pairs alternate disjoint/perturbed, starting with disjoint.
    # A pair's seven ops take about 0.08, 0.37 and 1.5 s at n = 8, 10, 12, so
    # each shape has about a third of a pass; p50 falls among the n = 8 ops
    # and p90 among the n = 10 ops, inside a cluster of similar latencies.
    SHAPES = ((8, 22), (10, 5), (12, 1))
    M = 3
    EPS = 1.0

    def setup(self, seed: int) -> None:
        rng = _rng(seed, self.name)
        self.ops = []
        for n, count in self.SHAPES:
            for k in range(count):
                disjoint = k % 2 == 0
                S, T = (ref.disjoint_pair if disjoint else ref.perturbed_pair)(rng, self.M, n)
                x = ref.grid_probe(rng, n)
                lS, lT, lx = _lib_op(S), _lib_op(T), Vector(x)
                u = Vector((1.0,) * self.M)
                d = {"S": S, "T": T, "x": x, "disjoint": disjoint, "key": len(self.ops)}
                shape = f"n={n}"
                calls = [
                    ("rk_join", lambda lT=lT, lx=lx, lS=lS: calculus.rk_eval("join", lT, lx, lS)),
                    ("rk_meet", lambda lT=lT, lx=lx, lS=lS: calculus.rk_eval("meet", lT, lx, lS)),
                    ("rk_pos", lambda lT=lT, lx=lx: calculus.rk_eval("pos", lT, lx)),
                    ("rk_neg", lambda lT=lT, lx=lx: calculus.rk_eval("neg", lT, lx)),
                    ("rk_abs", lambda lT=lT, lx=lx: calculus.rk_eval("abs", lT, lx)),
                    ("disjoint_witness",
                     lambda lS=lS, lT=lT, lx=lx, u=u: calculus.disjoint_witness(lS, lT, lx, self.EPS, u)),
                    ("check_disjoint_iff",
                     lambda lS=lS, lT=lT, lx=lx: calculus.check_disjoint_iff(lS, lT, [lx], self.EPS)),
                ]
                self.ops += [Op(kind, shape, call, d) for kind, call in calls]
        rng.shuffle(self.ops)  # spread each shape over the pass, and so over machine-speed drift
        # warm-up: every op kind once, on a small pair outside the timed list
        warm = _rng(WARM_UP_SEED, self.name)
        S, T = ref.disjoint_pair(warm, self.M, 4)
        lS, lT, lx = _lib_op(S), _lib_op(T), Vector(ref.grid_probe(warm, 4))
        for kind in ("join", "meet"):
            calculus.rk_eval(kind, lT, lx, lS)
        for kind in ("pos", "neg", "abs"):
            calculus.rk_eval(kind, lT, lx)
        calculus.disjoint_witness(lS, lT, lx, self.EPS, Vector((1.0,) * self.M))
        calculus.check_disjoint_iff(lS, lT, [lx], self.EPS)

    def verify(self, outcomes: list) -> list[bool]:
        by_key: dict = {}
        verdicts = []
        for op, out in outcomes:
            d = op.data
            S, T, x = d["S"], d["T"], d["x"]
            if op.kind.startswith("rk_"):
                kind = op.kind[3:]
                binary = kind in ("join", "meet")
                want = ref.rk_value(kind, T, x, S if binary else None)
                ok = (
                    not isinstance(out, Exception)
                    and ref.close(out.value.coords, want, 1e-9)
                    and all(
                        _is_fragment(y.coords, x)
                        and ref.close((y + z).coords, x, 0.0)
                        for y, z in out.argwitness
                    )
                )
                if ok and binary:
                    by_key.setdefault(d["key"], {})[kind] = out.value.coords
            elif op.kind == "disjoint_witness":
                if not d["disjoint"]:
                    ok = isinstance(out, NotDisjoint)
                elif isinstance(out, Exception):
                    ok = False
                else:
                    index_sets = [m.indices() for m in out.masks.items]
                    products_ok = True
                    for idx, frag in zip(index_sets, out.frags.items):
                        y = frag.coords
                        z = tuple(a - b for a, b in zip(x, y))
                        prod = [a + b for a, b in zip(ref.apply(T, y), ref.apply(S, z))]
                        products_ok &= _is_fragment(y, x) and all(
                            prod[i] <= self.EPS + ref.TOL for i in idx
                        )
                    ok = products_ok and _partition_of_unity(index_sets, self.M)
            else:  # check_disjoint_iff
                meet = ref.rk_value("meet", T, x, S)
                ok = (
                    isinstance(out, dict)
                    and out["all_ok"] is True
                    and out["all_disjoint"] is d["disjoint"]
                    and ref.close(out["probes"][0]["meet"], meet, 1e-9)
                )
            verdicts.append(ok)
        # join + meet = T(x) + S(x), on the program's own two outputs
        for i, (op, out) in enumerate(outcomes):
            if op.kind in ("rk_join", "rk_meet") and verdicts[i]:
                pair = by_key.get(op.data["key"], {})
                if len(pair) == 2:
                    total = [a + b for a, b in zip(ref.apply(op.data["T"], op.data["x"]),
                                                   ref.apply(op.data["S"], op.data["x"]))]
                    summed = [a + b for a, b in zip(pair["join"], pair["meet"])]
                    verdicts[i] = ref.close(summed, total, 1e-9)
        return verdicts


# --------------------------------------------------------------------------

class ProjectionTall(Workload):
    """Band programs of sparse positive S on tall m x 6 operators."""

    name = "projection_tall"
    N = 6
    # (m, |supp x|, instances): the 2^m mask and 2^|supp x| fragment ladder.
    # With these counts p50 falls among the one-member programs at (4,6) and
    # (6,4), and p90 among the two-member and principal programs at (6,6)
    # and (8,4), each inside a cluster of similar latencies.  (8,6) is left
    # out: one instance took a third of a pass, and its work varies by a
    # fifth with the seed, so ops_per_s moved with --seed.
    # One pass holds about 20 s of work at nominal speed, so a run is one
    # pass: the work of single instances varies by a quarter with the seed,
    # and a longer op list averages it over more of them.
    SHAPES = ((4, 4, 8), (4, 6, 12), (6, 4, 12), (6, 6, 8), (8, 4, 8))
    U_LEVELS = (0.0, 0.5, 1.0, 2.0)

    def setup(self, seed: int) -> None:
        rng = _rng(seed, self.name)
        self.ops = []
        for m, supp, count in self.SHAPES:
            for _ in range(count):
                self.ops += self._instance(rng, m, supp, key=len(self.ops))
        # warm-up: every op kind once, on a small instance outside the timed list
        for op in self._instance(_rng(WARM_UP_SEED, self.name), 4, 4, key=-1):
            op.call()
        rng.shuffle(self.ops)  # spread each shape over the pass, and so over machine-speed drift

    def _instance(self, rng: random.Random, m: int, supp: int, key: int) -> list[Op]:
        """The seven ops on one seeded m x N instance probed at |supp x| = supp."""
        S = ref.sparse_positive_op(rng, m, self.N)
        S2 = ref.operator_sum(S, ref.sparse_positive_op(rng, m, self.N))
        T = ref.positive_op(rng, m, self.N)
        phi = ref.sparse_positive_op(rng, 1, self.N)
        psi = ref.positive_op(rng, 1, self.N)
        u = tuple(rng.choice(self.U_LEVELS) for _ in range(m - 1)) + (1.0,)
        x = ref.grid_probe(rng, self.N, supp)
        lS, lS2, lT = _lib_op(S), _lib_op(S2), _lib_op(T)
        lphi, lpsi, lu, lx = _lib_op(phi), _lib_op(psi), Vector(u), Vector(x)
        d = {"S": S, "S2": S2, "T": T, "phi": phi, "psi": psi, "u": u, "x": x, "key": key}
        shape = f"m={m},supp={supp}"
        calls = [
            ("band_1", lambda: projections.project_band_set((lS,), lT, lx)),
            ("complement_1", lambda: projections.project_band_set_complement((lS,), lT, lx)),
            ("band_2", lambda: projections.project_band_set((lS, lS2), lT, lx)),
            ("complement_2", lambda: projections.project_band_set_complement((lS, lS2), lT, lx)),
            ("principal", lambda: projections.project_principal(lS, lT, lx)),
            ("rank_one", lambda: projections.project_rank_one(lphi, lu, lT, lx)),
            ("functional", lambda: projections.project_functional(lphi, lpsi, lx)),
        ]
        return [Op(kind, shape, call, d) for kind, call in calls]

    def verify(self, outcomes: list) -> list[bool]:
        verdicts = []
        parts: dict = {}
        for op, out in outcomes:
            d = op.data
            T, x = d["T"], d["x"]
            tx = ref.apply(T, x)
            if isinstance(out, Exception):
                verdicts.append(False)
                continue
            if op.kind in ("band_1", "complement_1", "band_2", "complement_2"):
                gen = d["S"] if op.kind.endswith("_1") else d["S2"]
                band = ref.masked_band(gen, T, x)
                want = band if op.kind.startswith("band") else [a - b for a, b in zip(tx, band)]
                ok = ref.close(out.value.coords, want, 1e-7)
                parts.setdefault((d["key"], op.kind[-1]), []).append(out.value.coords)
            elif op.kind == "principal":
                band = ref.masked_band(d["S"], T, x)
                comp = [a - b for a, b in zip(tx, band)]
                ok = (
                    ref.close(out.band.value.coords, band, 1e-7)
                    and ref.close(out.complement.value.coords, comp, 1e-7)
                    and ref.close(out.complement_alt.value.coords, comp, 1e-7)
                )
            elif op.kind == "rank_one":
                band, comp = ref.rank_one_parts(d["phi"], d["u"], T, x)
                ok = ref.close(out.band.coords, band, 1e-7) and ref.close(
                    out.complement.coords, comp, 1e-7
                )
            else:  # functional
                ok = abs(out - ref.masked_band(d["phi"], d["psi"], x)[0]) <= 1e-7
            verdicts.append(ok)
        # band + complement = T(x) on the program's own two outputs
        for i, (op, out) in enumerate(outcomes):
            if op.kind[:-2] in ("band", "complement") and verdicts[i]:
                pair = parts.get((op.data["key"], op.kind[-1]), [])
                if len(pair) == 2:
                    total = [a + b for a, b in zip(*pair)]
                    verdicts[i] = ref.close(total, ref.apply(op.data["T"], op.data["x"]), 1e-7)
        return verdicts


# --------------------------------------------------------------------------

class SuiteDemo(Workload):
    """The self-check suite on demo.ury, as the CLI's suite verb runs it: each
    suite run parses the model, runs the 22 checks and writes the report as
    JSON.  One op is the parse, one check or the report."""

    name = "suite_demo"
    # suite runs per pass, each with its own derived seed.  A check's work
    # varies by about a quarter with the suite seed; twenty seeds keep the
    # percentiles from moving with --seed.  With the parse and the report,
    # 13 of the 24 ops of a suite run take under 5 ms, so p50 falls inside the
    # cluster of 4-5 ms checks, not in the gap above it.
    RUNS = 20
    WARM_UP_SUITE_SEED = 999  # never one of the seed * 1000 + k (k < RUNS) timed seeds

    def setup(self, seed: int) -> None:
        self.text = (ROOT / "src" / "uryson" / "demo.ury").read_text(encoding="utf-8")
        model = dsl.parse_model(self.text)
        self.seeds = [seed * 1000 + k for k in range(self.RUNS)]
        self.check_ids = [cid for cid, _ in sorted(suite.CHECKS)]
        self.rows_ok: dict = {}
        self.ops = [
            Op(kind, "demo", None, {"seed": s})
            for s in self.seeds for kind in ("parse", *self.check_ids, "report")
        ]
        suite.run_suite(model, self.WARM_UP_SUITE_SEED)

    def run_pass(self, p, tracer=None) -> None:
        ops = {(op.data["seed"], op.kind): op for op in self.ops}
        original = suite.CHECKS
        self.rows_ok = {}

        def timed(kind, fn, *args):
            op = ops[(args[-1], kind)]  # the suite seed is the last argument
            p.tick()
            t0 = perf_counter()
            try:
                out = fn(*args)
            except Exception as exc:
                p.record(op, perf_counter() - t0, exc)
                raise
            p.record(op, perf_counter() - t0, out)
            return out

        timed_checks = tuple((cid, functools.partial(timed, cid, fn)) for cid, fn in original)
        for s in self.seeds:
            try:
                model = timed("parse", lambda text, _: dsl.parse_model(text), self.text, s)
            except Exception:
                continue  # the parse is recorded; the suite run goes unattempted
            suite.CHECKS = timed_checks
            try:
                with tracer.span("op.run_suite") if tracer else nullcontext():
                    result = suite.run_suite(model, s)
            except Exception:
                result = None  # the raising check is recorded; the rest go unattempted
            finally:
                suite.CHECKS = original
            if result is not None:
                rows = {r["id"]: r for r in result["checks"]}
                for cid in self.check_ids:
                    self.rows_ok[(s, cid)] = rows.get(cid, {}).get("ok") is True
                try:
                    timed("report", lambda r, _: report.dumps({"suite": r}), result, s)
                except Exception:
                    pass  # recorded as the report op's outcome
            p.between_ops()  # between suite runs, where CHECKS is the library's own

    def verify(self, outcomes: list) -> list[bool]:
        # a parse is right when every check of its suite run passes on the
        # parsed model; a report when it reads back as that passing run
        verdicts = []
        for op, out in outcomes:
            s = op.data["seed"]
            if isinstance(out, Exception):
                verdicts.append(False)
            elif op.kind == "parse":
                verdicts.append(all(self.rows_ok.get((s, cid), False) for cid in self.check_ids))
            elif op.kind == "report":
                back = json.loads(out)["suite"]
                verdicts.append(back["ok"] is True and back["seed"] == s
                                and sorted(r["id"] for r in back["checks"]) == self.check_ids)
            else:
                verdicts.append(out[1] is None and self.rows_ok.get((s, op.kind), False))
        return verdicts


# --------------------------------------------------------------------------

# demo.ury transcribed as breakpoint data, for the CLI reference values
_ABS = ((-1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
_HALF = ((-1.0, 0.5), (0.0, 0.0), (1.0, 0.5))
_HAT = ((-2.0, 2.0), (-1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (3.0, 2.0))
_RELU = ((-1.0, 0.0), (0.0, 0.0), (1.0, 1.0))
_GATE = ((-2.0, -1.0), (-1.0, -1.0), (0.0, 0.0), (2.0, 2.0), (3.0, 2.0))
DEMO = {
    "ops": {
        "T": ((_ABS, _HALF), (_HAT, _ABS)),
        "S": ((_HALF, ref.ZERO), (ref.ZERO, _HAT)),
        "D": ((ref.ZERO, _HAT), (_HAT, ref.ZERO)),
        "W": ((_GATE, _RELU), (_GATE, _RELU)),
        "phi": ((_ABS, _ABS),),
        "psi": ((_RELU, _RELU),),
    },
    "u": (1.0, 2.0),
    "probes": {"x1": (1.0, -2.0), "x2": (0.5, 0.75), "x3": (-1.5, 0.0)},
}


def _seeded_model(rng: random.Random, m: int = 3, n: int = 6) -> dict:
    S = ref.sparse_positive_op(rng, m, n)
    D = tuple(
        tuple(ref.positive_kernel(rng) if k == ref.ZERO else ref.ZERO for k in row) for row in S
    )
    return {
        "ops": {
            "T": ref.positive_op(rng, m, n),
            "S": S,
            "D": D,
            "W": tuple(tuple(ref.signed_kernel(rng) for _ in range(n)) for _ in range(m)),
            "phi": ref.sparse_positive_op(rng, 1, n),
            "psi": ref.positive_op(rng, 1, n),
        },
        "u": tuple(rng.choice((0.0, 1.0, 2.0)) for _ in range(m - 1)) + (1.0,),
        "probes": {
            "x1": ref.grid_probe(rng, n),
            "x2": ref.grid_probe(rng, n, n - 2),
            "x3": ref.grid_probe(rng, n),
        },
        "seed": rng.randint(1, 10**6),
    }


def _render(model: dict) -> str:
    """Model text in the .ury language: one kernel line per distinct kernel."""
    names: dict = {}
    lines = []
    n = len(model["ops"]["T"][0])
    m = len(model["ops"]["T"])
    lines += [f"space E {n}", f"space F {m}"]

    def kname(points):
        if points not in names:
            names[points] = f"k{len(names)}"
            pts = " ".join(f"({x!r},{y!r})" for x, y in points)
            lines.append(f"kernel {names[points]} pwl {pts}")
        return names[points]

    for op, rows in model["ops"].items():
        cells = "; ".join(" ".join(kname(k) for k in row) for row in rows)
        lines.append(f"op {op} {len(rows)}x{len(rows[0])} [{cells}]")
    lines.append("op R rank1 phi u=(" + ",".join(repr(c) for c in model["u"]) + ")")
    for p, x in model["probes"].items():
        lines.append(f"probe {p} = (" + ",".join(repr(c) for c in x) + ")")
    lines.append(f"set seed {model['seed']}")
    return "\n".join(lines) + "\n"


def _commands(probe: str) -> list[tuple[str, list[str]]]:
    return [
        ("eval", ["T", probe]),
        ("eval", ["T", "--all"]),
        ("join", ["T", "S", probe]),
        ("meet", ["T", "S", probe]),
        ("pos", ["W", probe]),
        ("neg", ["W", probe]),
        ("abs", ["W", probe]),
        ("disjoint", ["S", "D"]),
        ("witness", ["S", "D", probe]),
        ("project", ["S", "T", probe]),
        ("project-complement", ["S", "T", probe]),
        ("project-rank1", ["R", "T", probe]),
        ("project-functional", ["phi", "psi", probe]),
        ("oracle", ["S", "T", probe]),
    ]


def child_env() -> dict:
    """Environment for CLI children: the checkout's sources on the path, and no
    URYSON_SEED, which would override the model seed and change the reports."""
    env = {k: v for k, v in os.environ.items() if k != "URYSON_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "uryson.cli", *argv],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
    )
    return proc.returncode, proc.stdout


def run_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class CliDemo(Workload):
    """One `python -m uryson.cli run ...` child at a time, on demo.ury and on a
    seeded 3 x 6 model.  A traced pass calls ``cli.main`` in process instead."""

    name = "cli_demo"
    CYCLES = 4

    def setup(self, seed: int) -> None:
        rng = _rng(seed, self.name)
        seeded = _seeded_model(rng)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"cli_demo-seed{seed}.ury"
        path.write_text(_render(seeded), encoding="utf-8")
        dsl.parse_model(path.read_text(encoding="utf-8"))  # the written model must load
        models = {"demo": (str(ROOT / "src" / "uryson" / "demo.ury"), DEMO), "seeded": (str(path), seeded)}
        self.ops = []
        for c in range(self.CYCLES):
            probe = ("x1", "x2", "x3")[c % 3]
            for label, (mpath, spec) in models.items():
                for verb, args in _commands(probe):
                    argv = ["run", mpath, verb, *args]
                    self.ops.append(Op(verb, label, None, {"argv": argv, "spec": spec, "verb": verb, "args": args}))
            # suite on demo.ury only: on the seeded model it takes about 7 s
            self.ops.append(Op("suite", "demo", None, {"argv": ["run", models["demo"][0], "suite"],
                                                       "verb": "suite"}))
            # T and S of demo.ury overlap: exit 1 with a not_disjoint JSON error
            error_argv = ["run", models["demo"][0], "witness", "T", "S", "x1"]
            self.ops.append(Op("error", "demo", None, {"argv": error_argv, "verb": "error"}))
        run_child(["run", models["demo"][0], "eval", "T", "x1"])  # warm-up child

    def run_pass(self, p, tracer=None) -> None:
        runner = run_in_process if self.in_process else run_child
        for op in self.ops:
            op.call = functools.partial(runner, op.data["argv"])
        _timed_pass(self.ops, p, tracer)

    def verify(self, outcomes: list) -> list[bool]:
        return [_cli_ok(op.data, out) for op, out in outcomes]


def _cli_ok(d: dict, out) -> bool:
    if isinstance(out, Exception):
        return False
    code, text = out
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    verb = d["verb"]
    if verb == "error":
        return code == 1 and doc.get("error", {}).get("code") == "not_disjoint"
    if code != 0:
        return False
    res = doc["result"]
    if verb == "suite":
        return res["suite"]["ok"] is True
    spec, args = d["spec"], d["args"]
    ops, probes = spec["ops"], spec["probes"]
    if verb == "eval" and args[1] == "--all":
        return [r["probe"] for r in res["table"]] == list(probes) and all(
            ref.close(r["value"], ref.apply(ops["T"], probes[r["probe"]]), 1e-9) for r in res["table"]
        )
    x = probes.get(args[-1])
    T = ops["T"]
    if verb == "eval":
        return ref.close(res["value"], ref.apply(T, x), 1e-9)
    if verb in ("join", "meet"):
        return ref.close(res["value"], ref.rk_value(verb, T, x, ops["S"]), 1e-9)
    if verb in ("pos", "neg", "abs"):
        return ref.close(res["value"], ref.rk_value(verb, ops["W"], x), 1e-9)
    if verb == "disjoint":
        rep = res["report"]
        return rep["all_disjoint"] is True and rep["all_ok"] is True and all(
            ref.close(p["meet"], [0.0] * len(T), 1e-9) for p in rep["probes"]
        )
    if verb == "witness":
        S, D = ops["S"], ops["D"]
        ok = res["bound_ok"] is True and _partition_of_unity(res["masks"], len(T))
        for idx, y in zip(res["masks"], res["fragments"]):
            z = [a - b for a, b in zip(x, y)]
            prod = [a + b for a, b in zip(ref.apply(D, y), ref.apply(S, z))]
            ok = ok and _is_fragment(y, x) and all(prod[i] <= res["eps"] * res["u"][i] + ref.TOL for i in idx)
        return ok
    band = ref.masked_band(ops["S"], T, x)
    if verb in ("project", "oracle"):
        return ref.close(res["value"], band, 1e-7)
    if verb == "project-complement":
        return ref.close(res["value"], [a - b for a, b in zip(ref.apply(T, x), band)], 1e-7)
    if verb == "project-rank1":
        rb, rc = ref.rank_one_parts(ops["phi"], spec["u"], T, x)
        return ref.close(res["band"], rb, 1e-7) and ref.close(res["complement"], rc, 1e-7)
    if verb == "project-functional":
        return abs(res["value"] - ref.masked_band(ops["phi"], ops["psi"], x)[0]) <= 1e-7
    return False


WORKLOADS = {w.name: w for w in (CalculusWide, ProjectionTall, SuiteDemo, CliDemo)}
