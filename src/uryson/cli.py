"""Command-line front end.

    uryson run MODEL.ury VERB [ARGS...] [flags]
    uryson suite MODEL.ury [--seed N] [--json OUT]

Verbs: eval, join, meet, pos, neg, abs, disjoint, witness, project,
project-complement, project-rank1, project-functional, oracle, suite.

Reports are canonical JSON on stdout (sorted keys, 12-significant-digit
floats), so identical (model, command, seed) runs are byte-identical.
``--json FILE`` additionally writes the same bytes to a file; ``--csv FILE``
writes a probe/value table and is only available for ``eval OP --all``.  An
output path that resolves to the model file or to the other output is refused
(bad_command) before anything is written.

Settings precedence: CLI flag > URYSON_SEED (seed only) > model ``set`` lines
> defaults; the flags are the fields of `Settings`, resolved once into the
model the command runs on.  The settings each command reads:

    eval                    none
    join meet pos neg abs   tol, cap_support
    witness                 eps0, tol, cap_support
    project*                tol, cap_support and the schedule
    oracle                  tol
    disjoint                eps0, tol, cap_support; eps0 halved 20 times
    suite                   seed and the schedule; the checks' tolerances are fixed

Exit codes: 0 success, 1 domain error, 2 parse/command error, 3 suite
failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dsl import Model, RankOneOpDef, Settings, build_operator, parse_model
from .errors import (
    BadCommand,
    ModelSemanticError,
    ModelSyntaxError,
    NumericError,
    UrysonError,
)
from .lattice import Vector
from .operators import KernelOperator
from .report import csv_table, dumps

__all__ = ["main", "console_entry"]

VERBS = (
    "eval",
    "join",
    "meet",
    "pos",
    "neg",
    "abs",
    "disjoint",
    "witness",
    "project",
    "project-complement",
    "project-rank1",
    "project-functional",
    "oracle",
    "suite",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors end in JSON, exit 2
        raise BadCommand(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uryson",
        description="Lattice calculus for kernel operators: evaluation, "
        "disjointness witnesses, band projections, and a self-check suite.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="model file (.ury)")
        for key, default in Settings._defaults.items():
            p.add_argument(_flag(key), type=type(default), help=f"setting {key}")
        p.add_argument("--json", metavar="OUT", default=None, help="also write the report here")

    run_p = sub.add_parser("run", help="run one command against a model")
    add_common(run_p)
    run_p.add_argument("verb", help="one of: " + ", ".join(VERBS))
    run_p.add_argument("args", nargs="*", help="operator/probe names for the verb")
    run_p.add_argument("--all", action="store_true", help="eval at every probe")
    run_p.add_argument("--csv", metavar="OUT", default=None, help="CSV table (eval --all only)")

    suite_p = sub.add_parser("suite", help="run the full self-check suite")
    add_common(suite_p)
    suite_p.set_defaults(verb="suite", args=[], all=False, csv=None)
    return parser


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _effective_settings(model: Model, ns: argparse.Namespace) -> Settings:
    """model.settings with the URYSON_SEED seed, then each setting flag given,
    applied one at a time: a value is read as its default's type, as argparse
    reads a flag, and checked by `Settings`; a refusal raises BadCommand
    naming where the value came from."""
    given = [("URYSON_SEED", "seed", os.environ.get("URYSON_SEED"))]
    given += [(_flag(key), key, getattr(ns, key)) for key in Settings._fields]
    st = model.settings
    for source, key, value in given:
        if value is None:
            continue
        try:
            st = st._replace(**{key: type(Settings._defaults[key])(value)})
        except ValueError as exc:
            if source == "URYSON_SEED":
                raise BadCommand(f"URYSON_SEED must be an integer, got {value!r}") from None
            raise BadCommand(f"{source} {value}: {exc}") from None
    return st


class _Session:
    """One parsed model, carrying the run's effective settings; resolves
    names lazily."""

    def __init__(self, model: Model):
        self.model = model
        self.inputs: dict = {}

    def op(self, name: str) -> KernelOperator:
        built = build_operator(self.model, name)
        self.inputs.setdefault("operators", []).append(
            {"name": name, "descriptor": built.descriptor()}
        )
        return built

    def probe(self, name: str) -> Vector:
        v = self.model.probe(name)
        self.inputs.setdefault("probes", []).append({"name": name, "value": v})
        return v


def _need(args: list[str], count: int, usage: str) -> list[str]:
    if len(args) != count:
        raise BadCommand(f"expected {usage}")
    return args


def _dispatch(sess: _Session, verb: str, args: list[str], ns) -> tuple[dict, str | None]:
    """Returns (result payload, optional CSV text).  Each verb imports the
    modules it needs when it runs, so a command loads no other."""
    if ns.csv is not None and not (verb == "eval" and ns.all):
        raise BadCommand("--csv is only available for eval --all")
    if ns.all and verb != "eval":
        raise BadCommand("--all is only available for eval")

    if verb == "eval":
        model = sess.model
        if ns.all:
            (op_name,) = _need(args, 1, "eval OP --all")
            T = sess.op(op_name)
            if not model.probes:
                raise BadCommand("model declares no probes")
            table = [{"probe": name, "value": T(x)} for name, x in model.probes]
            header = ["probe"] + [f"y{i + 1}" for i in range(T.m)]
            rows = [[r["probe"], *r["value"].coords] for r in table]
            return {"table": table}, csv_table(header, rows) if ns.csv else None
        op_name, probe = _need(args, 2, "eval OP PROBE (or eval OP --all)")
        T, x = sess.op(op_name), sess.probe(probe)
        return {"value": T(x)}, None

    if verb == "suite":
        from .suite import run_suite

        _need(args, 0, "suite (no positional arguments)")
        return {"suite": run_suite(sess.model, sess.model.settings.seed)}, None
    if verb not in VERBS:
        raise BadCommand(f"unknown verb {verb!r} (expected one of: {', '.join(VERBS)})")
    if verb.startswith("project") or verb == "oracle":
        return _projection_verb(sess, verb, args), None
    return _calculus_verb(sess, verb, args), None


def _calculus_verb(sess: _Session, verb: str, args: list[str]) -> dict:
    """The RK verbs, disjoint and witness."""
    from .calculus import (
        RK_KINDS,
        check_disjoint_iff,
        disjoint_witness,
        rk_eval,
        witness_products,
    )

    st = sess.model.settings
    kw = {"cap_support": st.cap_support, "tol": st.tol}
    if verb in RK_KINDS:
        binary = verb in ("join", "meet")
        usage = f"{verb} OP1 OP2 PROBE" if binary else f"{verb} OP PROBE"
        *names, probe = _need(args, 2 + binary, usage)
        ops, x = [sess.op(nm) for nm in names], sess.probe(probe)
        r = rk_eval(verb, ops[0], x, *ops[1:], **kw)
        pairs = enumerate(r.argwitness)
        witness = [{"coord": i, "fragment": y, "complement": z} for i, (y, z) in pairs]
        return {"value": r.value, "witness": witness}

    if verb == "disjoint":
        if len(args) < 2:
            raise BadCommand("expected disjoint OP1 OP2 [PROBE...]")
        S, T = sess.op(args[0]), sess.op(args[1])
        names = args[2:] or list(sess.model.probe_names())
        if not names:
            raise BadCommand("model declares no probes")
        xs = [sess.probe(nm) for nm in names]
        return {"report": check_disjoint_iff(S, T, xs, st.eps0, **kw)}

    # witness
    a, b, probe = _need(args, 3, "witness OP1 OP2 PROBE")
    S, T, x = sess.op(a), sess.op(b), sess.probe(probe)
    u = Vector.ones(S.m)
    w = disjoint_witness(S, T, x, st.eps0, u, **kw)
    products = witness_products(S, T, x, w)
    bound = u.scale(st.eps0)
    return {
        "eps": w.eps,
        "u": w.u,
        "labels": list(w.masks.labels),
        "masks": list(w.masks.items),
        "fragments": list(w.frags.items),
        "products": products,
        "bound_ok": all(p.leq(bound, st.tol) for p in products),
    }


def _projection_verb(sess: _Session, verb: str, args: list[str]) -> dict:
    """The project* verbs and oracle."""
    from .projections import (
        masking_oracle,
        project_band_set,
        project_band_set_complement,
        project_functional,
        project_rank_one,
    )

    st = sess.model.settings
    sched, kw = st.schedule(), {"cap_support": st.cap_support, "tol": st.tol}
    if verb in ("project", "project-complement"):
        set_arg, t_name, probe = _need(args, 3, f"{verb} S1[,S2...] T PROBE")
        members = tuple(sess.op(nm) for nm in set_arg.split(","))
        T, x = sess.op(t_name), sess.probe(probe)
        fn = project_band_set if verb == "project" else project_band_set_complement
        res = fn(members, T, x, sched, **kw)
        witness = [{"fragment": frag, "mask": mask} for frag, mask in res.witness]
        return {**res._asdict(), "witness": witness}

    if verb == "project-rank1":
        r_name, t_name, probe = _need(args, 3, "project-rank1 R T PROBE")
        d = sess.model.operator_def(r_name)
        if not isinstance(d, RankOneOpDef):
            raise BadCommand(f"{r_name!r} is not a rank-one operator")
        phi, T, x = sess.op(d.phi), sess.op(t_name), sess.probe(probe)
        res = project_rank_one(phi, Vector(d.u), T, x, sched, **kw)
        return {**res._asdict(), "u": list(d.u)}

    if verb == "project-functional":
        phi_name, t_name, probe = _need(args, 3, "project-functional PHI T PROBE")
        phi, T, x = sess.op(phi_name), sess.op(t_name), sess.probe(probe)
        return {"value": project_functional(phi, T, x, sched, **kw)}

    # oracle
    a, b, probe = _need(args, 3, "oracle S T PROBE")
    S, T, x = sess.op(a), sess.op(b), sess.probe(probe)
    return {"value": masking_oracle(S, T, x, tol=st.tol)}


def _check_outputs(ns: argparse.Namespace) -> None:
    """Refuse, before anything is written, an output path that resolves to
    the model file or to the other output."""
    taken = {os.path.realpath(ns.model): "the model file"}
    for flag, path in (("--json", ns.json), ("--csv", ns.csv)):
        if path == "":
            raise BadCommand(f"{flag} needs a file path")
        if path is not None:
            real = os.path.realpath(path)
            if real in taken:
                raise BadCommand(f"{flag} {path} would overwrite {taken[real]}")
            taken[real] = f"the {flag} file"


def _io_error(exc: Exception, action: str) -> UrysonError:
    err = UrysonError(f"cannot {action}: {exc}")
    err.code = "io_error"
    return err


def _emit(text: str, json_path: str | None, exit_code: int) -> int:
    """Write text to the --json file, when given, then to stdout, and return
    exit_code; a --json file that cannot be written is reported on stdout
    alone (io_error, exit 1)."""
    try:
        if json_path:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        return _error_exit(_io_error(exc, "write --json file"), 1, None)
    sys.stdout.write(text)
    return exit_code


def _error_exit(exc: UrysonError, exit_code: int, json_path: str | None) -> int:
    # syntax and semantic errors carry their position
    where = {k: getattr(exc, k) for k in ("line", "column") if hasattr(exc, k)}
    body = {"error": {"code": exc.code, "message": str(exc), **where}}
    return _emit(dumps(body), json_path, exit_code)


def main(argv: list[str] | None = None) -> int:
    json_path = None
    try:
        ns = _build_parser().parse_args(argv)
        _check_outputs(ns)
        json_path = ns.json
        try:
            with open(ns.model, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            return _error_exit(_io_error(exc, "read model file"), 1, json_path)

        try:
            model = parse_model(text)
        except (ModelSyntaxError, ModelSemanticError) as exc:
            return _error_exit(exc, 2, json_path)

        verb, args = ns.verb, list(ns.args)
        sess = _Session(model._replace(settings=_effective_settings(model, ns)))
        try:
            result, csv_text = _dispatch(sess, verb, args, ns)
            text = dumps({
                "command": {"verb": verb, "args": args},
                "settings": sess.model.settings._asdict(),
                "inputs": sess.inputs,
                "result": result,
            })
        except (ValueError, OverflowError) as exc:
            return _error_exit(NumericError(str(exc)), 1, json_path)

        # the table before the report, so that a failed write reports
        # nothing but the error
        try:
            if csv_text is not None and ns.csv:
                with open(ns.csv, "w", encoding="utf-8") as fh:
                    fh.write(csv_text)
        except OSError as exc:
            return _error_exit(_io_error(exc, "write --csv file"), 1, json_path)
        return _emit(text, json_path, 3 if verb == "suite" and not result["suite"]["ok"] else 0)
    except BadCommand as exc:
        return _error_exit(exc, 2, json_path)
    except UrysonError as exc:
        return _error_exit(exc, 1, json_path)


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
