"""In-memory tracing of uryson's module boundaries, installed from outside.

The library imports names directly (``from .lattice import fragments``), so a
wrapper must replace the function object in every ``uryson`` module namespace
that holds it; ``Tracer.patch_function`` scans them all by identity.  Methods are
wrapped on their class, which every instance and caller sees.

Boundary calls (calculus, projections, lattice enumeration, positivity, dsl,
report, benchmark ops) record a span: name, start, end and the
enclosing span.  The hot inner calls -- kernel and operator application --
only add to per-name counts and self time, since one span per call would cost
more than the call.  A frame's self time is its duration minus the time of the
traced frames it encloses.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()  # per wrapped name
        self.counts: Counter = Counter()  # work sizes read from arguments and results
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [child_seconds, span_id, or -1 for a hot call]
        self._depth: Counter = Counter()  # open frames per layer
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _enter(self, layer: str) -> list:
        self._depth[layer] += 1
        frame = [0.0, len(self.spans)]
        self.spans.append(None)  # reserved; filled on exit
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        self._depth[layer] -= 1
        dur = t1 - t0
        self.self_s[name] += dur - frame[0]
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += dur
        parent = next((f[1] for f in reversed(self._stack) if f[1] >= 0), -1)
        self.spans[frame[1]] = (name, t0, t1, parent)

    def inside(self, layer: str) -> bool:
        return self._depth[layer] > 0

    def wrap(self, layer: str, name: str, fn, after=None):
        """Traced version of fn; ``after(result, args, kwargs)`` runs on success."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(layer)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, name, frame, t0, perf_counter())
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def hot(self, name: str, fn):
        """Like ``wrap`` without a span or layer depth, for calls made millions
        of times; the inlined bookkeeping keeps the tracing overhead down."""
        stack, self_s, total_s, calls = self._stack, self.self_s, self.total_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, -1]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[name] += dur - frame[0]
                total_s[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur

        return traced

    @contextmanager
    def span(self, name: str):
        """One span of the benchmark's own, such as an op."""
        frame = self._enter("op")
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit("op", name, frame, t0, perf_counter())

    # -- patching ---------------------------------------------------------

    def set_attr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, make) -> None:
        """Replace cls.attr (defined on cls itself) by make(original)."""
        if attr in vars(cls):
            self.set_attr(cls, attr, make(vars(cls)[attr]))

    def patch_function(self, module, attr: str, make) -> None:
        """Replace module.attr in every loaded uryson namespace that imported it
        (nothing when the name is gone)."""
        original = getattr(module, attr, None)
        if original is None:
            return
        replacement = make(original)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "uryson" or mod_name.startswith("uryson.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set_attr(mod, key, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        spans = [s for s in self.spans if s is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}, fh
            )


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import uryson.cli  # noqa: F401 -- loaded so that the names it imported are patched too
    from uryson import calculus, dsl, kernels, lattice, operators, projections, report

    c = tracer.counts

    # kernels: application is hot (counts and self time only)
    for cls in (kernels.PwlKernel, kernels.BuiltinKernel, kernels.FuncKernel):
        tracer.patch_method(cls, "__call__", lambda f: tracer.hot("kernels.eval", f))
    for cls in (kernels.ScalarKernel, kernels.PwlKernel, kernels.BuiltinKernel):
        tracer.patch_method(cls, "to_pwl", lambda f: tracer.hot("kernels.to_pwl", f))
    tracer.patch_method(
        kernels.PwlKernel, "__post_init__",
        lambda f: tracer.hot("kernels.pwl_built", f),
    )

    # operators: application is hot; positivity decisions are spans
    for attr in ("__call__", "kernel_values"):
        tracer.patch_method(
            operators.KernelOperator, attr,
            lambda f: tracer.hot("operators.apply", f),
        )
    for attr in ("operator_is_positive", "operator_leq"):
        tracer.patch_function(
            operators, attr, lambda f: tracer.wrap("operators", "operators.positivity", f)
        )

    # lattice: enumeration sizes
    def count_fragments(result, args, kwargs):
        c["lattice.fragments_enumerated"] += len(result)
        if tracer.inside("calculus"):
            c["calculus.fragments_enumerated"] += len(result)

    def count_masks(result, args, kwargs):
        c["lattice.masks_enumerated"] += len(result)

    tracer.patch_function(
        lattice, "fragments",
        lambda f: tracer.wrap("lattice", "lattice.fragments", f, after=count_fragments),
    )
    tracer.patch_function(
        lattice, "all_masks",
        lambda f: tracer.wrap("lattice", "lattice.all_masks", f, after=count_masks),
    )

    # calculus: every public entry point, witnesses counted per result
    def count_rk_witness(result, args, kwargs):
        c["calculus.witness_fragments"] += len({y for y, _ in result.argwitness})

    def count_disjoint_witness(result, args, kwargs):
        c["calculus.witness_fragments"] += len(set(result.frags.items))

    after = {"rk_eval": count_rk_witness, "disjoint_witness": count_disjoint_witness}
    for attr in (
        "rk_eval", "rk_eval_separable", "check_modulus_bound",
        "disjoint_witness", "witness_products", "check_disjoint_iff",
    ):
        tracer.patch_function(
            calculus, attr,
            lambda f, a=attr: tracer.wrap("calculus", f"calculus.{a}", f, after=after.get(a)),
        )

    # projections: entry points, feasibility accounting, schedule draws
    def wrap_band_program(f, name):
        traced = tracer.wrap("projections", name, f)

        @functools.wraps(f)
        def with_ratio(*args, **kwargs):
            before = c["lattice.fragments_enumerated"]
            result = traced(*args, **kwargs)
            frags = c["lattice.fragments_enumerated"] - before
            c["projections.feasible_sum"] += sum(result.feasible_count)
            c["projections.feasible_den"] += len(result.feasible_count) * frags
            return result

        return with_ratio

    for attr in ("project_band_set", "project_band_set_complement"):
        tracer.patch_function(
            projections, attr, lambda f, a=attr: wrap_band_program(f, f"projections.{a}")
        )
    for attr in (
        "project_principal", "project_rank_one", "project_functional",
        "masking_oracle", "band_set_profile",
    ):
        tracer.patch_function(
            projections, attr, lambda f, a=attr: tracer.wrap("projections", f"projections.{a}", f)
        )

    def count_steps(values):
        @functools.wraps(values)
        def counted(self):
            for eps in values(self):
                c["projections.schedule_steps"] += 1
                yield eps

        return counted

    tracer.patch_method(projections.EpsSchedule, "values", count_steps)

    program = getattr(projections, "_MemberProgram", None)
    if program is not None:
        def count_pairs(init):
            @functools.wraps(init)
            def counted(self, *args, **kwargs):
                init(self, *args, **kwargs)
                c["projections.pairs_tested"] += len(self.frags) * len(self.masks)

            return counted

        tracer.patch_method(program, "__init__", count_pairs)

    # dsl and report
    tracer.patch_function(dsl, "parse_model", lambda f: tracer.wrap("dsl", "dsl.parse", f))
    tracer.patch_function(dsl, "build_operator", lambda f: tracer.wrap("dsl", "dsl.build", f))

    def count_bytes(result, args, kwargs):
        c["report.bytes_out"] += len(result.encode("utf-8"))

    tracer.patch_function(
        report, "dumps", lambda f: tracer.wrap("report", "report.dumps", f, after=count_bytes)
    )
