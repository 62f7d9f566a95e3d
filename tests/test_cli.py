"""End-to-end command-line behavior: verbs, reports, exit codes.

Reports must be byte-identical for identical (model, command, seed), and the
exit code contract is 0 success / 1 domain error / 2 parse or command error /
3 suite failure.
"""

import contextlib
import importlib.resources
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uryson.cli as cli_mod
import uryson.suite as suite_mod
from uryson.cli import main
from uryson.errors import BadCommand

DEMO = str(importlib.resources.files("uryson") / "demo.ury")
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# a probe coordinate inside (0, tol]: the functional and rank-one programs
# see an empty eps -> 0 limit set
TINY_PROBE_MODEL = """\
space E 2
space F 1
kernel k10 pwl (-1,10) (0,0) (1,10)
kernel k1 abs
op phi 1x2 [k10 k1]
op T 1x2 [k1 k1]
probe x = (1e-9, 0.5)
"""

# finite kernel values whose row sums overflow: every fragment program and
# every application of T or S at x raises OverflowError in fsum
OVERFLOW_MODEL = """\
space E 2
space F 1
kernel k pwl (-1,1e308) (0,0) (1,1e308)
op T 1x2 [k k]
op S 1x2 [k k]
probe x = (1,1)
"""


# U is nan off 0 (inf * 0), so neither U nor its kernelwise positive part is
# decided positive: project-functional rejects the part with not_positive
NAN_PART_MODEL = """\
op U integral ((r*1e308*1e308)*0) s=(1) t=(1,2) w=(1,1)
op P integral (abs(r)) s=(1) t=(1,2) w=(1,1)
probe x = (1,1)
"""


# an integral operator U with the body {} and a probe for it
DEEP_MODEL = "op U integral ({}) s=(1) t=(1) w=(1)\nprobe x = (1)\n"

# 1200 rank-one operators, each over the one before
RANK_ONE_CHAIN = "kernel k abs\nop R0 1x1 [k]\n" + "".join(
    f"op R{i} rank1 R{i - 1} u=(1)\n" for i in range(1, 1200)
) + "probe x = (1)\n"

# the same chain over an integral operator: one quadrature kernel scaled 1199 times
INTEGRAL_CHAIN = "op R0 integral (r) s=(1) t=(1) w=(1)\n" + "".join(
    f"op R{i} rank1 R{i - 1} u=(1)\n" for i in range(1, 1200)
) + "probe x = (2)\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_eval_report(capsys):
    code, rep = run_json(capsys, "run", DEMO, "eval", "T", "x1")
    assert code == 0
    assert rep["result"]["value"] == [2, 3]
    assert rep["command"] == {"verb": "eval", "args": ["T", "x1"]}
    assert rep["inputs"]["probes"][0]["value"] == [1, -2]
    assert rep["settings"]["seed"] == 7  # from the model file
    assert "descriptor" in rep["inputs"]["operators"][0]


def test_reports_are_byte_identical(capsys):
    _, first = run_cli(capsys, "run", DEMO, "project", "S", "T", "x1")
    _, second = run_cli(capsys, "run", DEMO, "project", "S", "T", "x1")
    assert first == second


def test_eval_all_probes_with_csv(capsys, tmp_path):
    csv_path = tmp_path / "table.csv"
    code, rep = run_json(
        capsys, "run", DEMO, "eval", "T", "--all", "--csv", str(csv_path)
    )
    assert code == 0
    assert [row["probe"] for row in rep["result"]["table"]] == ["x1", "x2", "x3"]
    assert csv_path.read_text() == (
        "probe,y1,y2\nx1,2,3\nx2,0.875,1.25\nx3,1.5,1.5\n"
    )


def test_csv_flag_restricted_to_eval_all(capsys, tmp_path):
    code, rep = run_json(
        capsys, "run", DEMO, "meet", "T", "W", "x1", "--csv", str(tmp_path / "no.csv")
    )
    assert code == 2
    assert rep["error"]["code"] == "bad_command"


def test_csv_flag_refused_for_eval_at_one_probe(capsys, tmp_path):
    code, rep = run_json(capsys, "run", DEMO, "eval", "T", "x1", "--csv", str(tmp_path / "no.csv"))
    assert code == 2
    assert rep["error"] == {"code": "bad_command", "message": "--csv is only available for eval --all"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_empty_output_path_is_refused(capsys, tmp_path, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    code, rep = run_json(capsys, "run", DEMO, "eval", "T", "--all", flag, "")
    assert code == 2
    assert rep["error"] == {"code": "bad_command", "message": f"{flag} needs a file path"}
    assert list(tmp_path.iterdir()) == []


def test_json_flag_mirrors_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "suite", DEMO, "--json", str(out_path))
    assert code == 0
    assert out_path.read_text() == out


def test_lattice_verbs(capsys):
    for verb, expected in [
        ("meet", [1, 1]),
        ("join", [2, 3]),
    ]:
        code, rep = run_json(capsys, "run", DEMO, verb, "T", "W", "x1")
        assert code == 0
        assert rep["result"]["value"] == expected
        assert len(rep["result"]["witness"]) == 2
    code, rep = run_json(capsys, "run", DEMO, "pos", "T", "x1")
    assert code == 0
    assert rep["result"]["value"] == [2, 3]


def test_disjoint_defaults_to_all_probes(capsys):
    code, rep = run_json(capsys, "run", DEMO, "disjoint", "S", "D")
    assert code == 0
    body = rep["result"]["report"]
    assert body["all_disjoint"] and body["all_ok"]
    assert len(body["probes"]) == 3


def test_witness_masks_and_products(capsys):
    code, rep = run_json(capsys, "run", DEMO, "witness", "S", "D", "x1")
    assert code == 0
    r = rep["result"]
    assert r["masks"] == [[0], [1]]
    assert r["products"] == [[0, 0], [0, 0]]
    assert r["bound_ok"] is True


def test_witness_requires_disjoint_pair(capsys):
    code, rep = run_json(capsys, "run", DEMO, "witness", "T", "S", "x1")
    assert code == 1
    assert rep["error"]["code"] == "not_disjoint"


def test_projection_verbs(capsys):
    code, rep = run_json(capsys, "run", DEMO, "project", "S", "T", "x1")
    assert code == 0
    assert rep["result"]["value"] == [1, 2]
    code, rep = run_json(capsys, "run", DEMO, "project-complement", "S", "T", "x1")
    assert code == 0
    assert rep["result"]["value"] == [1, 1]
    code, rep = run_json(capsys, "run", DEMO, "project", "S,SD", "T", "x1")
    assert code == 0
    assert rep["result"]["value"] == [2, 3]
    code, rep = run_json(capsys, "run", DEMO, "oracle", "S", "T", "x1")
    assert code == 0
    assert rep["result"]["value"] == [1, 2]


def test_rank_one_verbs(capsys):
    code, rep = run_json(capsys, "run", DEMO, "project-rank1", "R", "T", "x1")
    assert code == 0
    assert rep["result"]["band"] == [2, 3]
    assert rep["result"]["complement"] == [0, 0]
    code, rep = run_json(capsys, "run", DEMO, "project-rank1", "T", "T", "x1")
    assert code == 2
    assert "not a rank-one operator" in rep["error"]["message"]
    code, rep = run_json(capsys, "run", DEMO, "project-functional", "phi", "psi", "x1")
    assert code == 0
    assert rep["result"]["value"] == 1


def test_suite_subcommand_and_verb_agree(capsys):
    code_a, out_a = run_cli(capsys, "suite", DEMO)
    code_b, out_b = run_cli(capsys, "run", DEMO, "suite")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_seed_precedence(capsys, monkeypatch):
    _, rep = run_json(capsys, "suite", DEMO)
    assert rep["result"]["suite"]["seed"] == 7
    monkeypatch.setenv("URYSON_SEED", "3")
    _, rep = run_json(capsys, "suite", DEMO)
    assert rep["result"]["suite"]["seed"] == 3
    _, rep = run_json(capsys, "suite", DEMO, "--seed", "11")
    assert rep["result"]["suite"]["seed"] == 11


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("URYSON_SEED", "eleven")
    code, rep = run_json(capsys, "run", DEMO, "eval", "T", "x1")
    assert code == 2
    assert rep["error"]["code"] == "bad_command"


def test_setting_flags_override_model(capsys, tmp_path):
    _, rep = run_json(
        capsys, "run", DEMO, "eval", "T", "x1", "--tol", "1e-7", "--max-steps", "10"
    )
    assert rep["settings"]["tol"] == 1e-7
    assert rep["settings"]["max_steps"] == 10
    assert rep["settings"]["eps0"] == 1  # untouched
    # a flag reaches the computation as the same set line does
    demo_text = pathlib.Path(DEMO).read_text(encoding="utf-8")
    for argv, line in (
        (("suite",), "set max_steps 1"),
        (("project", "S", "T", "x1"), "set cap_support 1"),
    ):
        model = tmp_path / "set.ury"
        model.write_text(f"{demo_text}{line}\n", encoding="utf-8")
        _, key, value = line.split()
        flag = "--" + key.replace("_", "-")
        code_flag, by_flag = run_json(capsys, "run", DEMO, *argv, flag, value)
        code_set, by_set = run_json(capsys, "run", str(model), *argv)
        assert code_flag == code_set == (3 if argv == ("suite",) else 1)
        assert by_flag.get("result") == by_set.get("result")
        assert by_flag.get("error") == by_set.get("error")
        assert by_flag.get("settings") == by_set.get("settings")


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--eps0", "0"),
        ("--max-steps", "0"),
        ("--factor", "2"),
        ("--tol", "-1"),
        ("--tol", "nan"),
        ("--cap-support", "0"),
    ],
)
def test_setting_flags_follow_model_rules(capsys, flag, value):
    code, rep = run_json(capsys, "run", DEMO, "project", "S", "T", "x1", flag, value)
    assert code == 2
    assert rep["error"]["code"] == "bad_command"
    assert rep["error"]["message"].startswith(f"{flag} ")


@pytest.mark.parametrize(
    "argv,golden",
    [
        (("project", "S", "T", "x1"), "project_S_T_x1.json"),
        (("project-complement", "S", "T", "x1"), "project-complement_S_T_x1.json"),
        (("project-rank1", "R", "T", "x1"), "project-rank1_R_T_x1.json"),
        (("witness", "D", "S", "x1"), "witness_D_S_x1.json"),
        (("eval", "T", "x1"), "eval_T_x1.json"),
        (("eval", "T", "--all"), "eval_T_all.json"),
        (("join", "T", "S", "x2"), "join_T_S_x2.json"),
        (("meet", "T", "S", "x2"), "meet_T_S_x2.json"),
        (("pos", "W", "x1"), "pos_W_x1.json"),
        (("neg", "W", "x1"), "neg_W_x1.json"),
        (("abs", "W", "x1"), "abs_W_x1.json"),
        (("disjoint", "S", "D"), "disjoint_S_D.json"),
        (("project", "S,SD", "T", "x2"), "project_S-SD_T_x2.json"),
        (("project-complement", "S,SD", "T", "x2"), "project-complement_S-SD_T_x2.json"),
        (("project-functional", "phi", "psi", "x1"), "project-functional_phi_psi_x1.json"),
        (("oracle", "S", "T", "x1"), "oracle_S_T_x1.json"),
        (("suite",), "suite.json"),
        (("eval", "U", "--all"), "eval_U_all.json"),
    ],
)
def test_demo_reports_match_golden_bytes(capsys, argv, golden):
    code, out = run_cli(capsys, "run", DEMO, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_signed_functional_matches_golden_bytes(capsys):
    # psi is not positive, so the report is built from its lattice parts
    model = str(GOLDEN / "signed_functional.ury")
    code, out = run_cli(capsys, "run", model, "project-functional", "phi", "psi", "x1")
    assert code == 0
    golden = GOLDEN / "project-functional_phi_psi_x1_signed.json"
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv,golden",
    [
        (("project", "S,D", "T", "x1"), "error_project_S-D_T_x1.json"),
        (("project-complement", "S,D", "T", "x1"), "error_project-complement_S-D_T_x1.json"),
        (("project", "W", "T", "x1"), "error_project_W_T_x1.json"),
        (("project", "S,SD", "W", "x1"), "error_project_S-SD_W_x1.json"),
    ],
)
def test_demo_refusals_match_golden_bytes(capsys, argv, golden):
    # S and D have no upper bound in {S, D}; W is not positive
    code, out = run_cli(capsys, "run", DEMO, *argv)
    assert code == 1
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_missing_model_file(capsys, tmp_path):
    code, rep = run_json(capsys, "run", str(tmp_path / "nope.ury"), "eval", "T", "x1")
    assert code == 1
    assert rep["error"]["code"] == "io_error"


def test_model_file_not_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.ury"
    bad.write_bytes(b"space E 2\xff\n")
    code, rep = run_json(capsys, "run", str(bad), "eval", "T", "x1")
    assert code == 1
    assert rep["error"]["code"] == "io_error"


@pytest.mark.parametrize(
    "argv,bad_flag,mirror",
    [
        (["eval", "T", "x1"], "--json", False),
        (["eval", "T", "--all"], "--csv", False),
        (["eval", "T", "--all"], "--csv", True),
        (["eval", "T", "nope"], "--json", False),  # the command fails too
    ],
)
def test_unwritable_output_file(capsys, tmp_path, argv, bad_flag, mirror):
    ok, bad = tmp_path / "ok.json", tmp_path / "no" / "such" / "out"
    extra = ["--json", str(ok)] if mirror else []
    code = main(["run", DEMO, *argv, *extra, bad_flag, str(bad)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    # one JSON document, the error; nothing is written to the failed path
    assert json.loads(out)["error"]["code"] == "io_error"
    assert not bad.parent.exists()
    if mirror:
        assert ok.read_text() == out


def test_json_output_over_the_model_is_refused(capsys, tmp_path):
    model = tmp_path / "m.ury"
    model.write_bytes(pathlib.Path(DEMO).read_bytes())
    # the same file under another spelling of its path
    code = main(["run", str(model), "eval", "T", "x1", "--json", str(tmp_path / "." / "m.ury")])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert json.loads(out)["error"]["code"] == "bad_command"
    assert model.read_bytes() == pathlib.Path(DEMO).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ury"]


def test_csv_and_json_on_one_path_are_refused(capsys, tmp_path):
    target = tmp_path / "out"
    code = main(["run", DEMO, "eval", "T", "--all", "--csv", str(target), "--json", str(target)])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert json.loads(out)["error"] == {
        "code": "bad_command", "message": f"--csv {target} would overwrite the --json file",
    }
    assert not target.exists()


def test_syntax_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.ury"
    bad.write_text("kernel k abs\nop T 2x2 [k k; k\n")
    code, rep = run_json(capsys, "run", str(bad), "eval", "T", "x1")
    assert code == 2
    err = rep["error"]
    assert err["code"] == "syntax_error"
    assert (err["line"], err["column"]) == (2, 17)


def test_semantic_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.ury"
    bad.write_text("kernel bad pwl (1,2)\n")
    code, rep = run_json(capsys, "run", str(bad), "eval", "T", "x1")
    assert code == 2
    assert rep["error"]["code"] == "semantic_error"
    assert rep["error"]["line"] == 1


def test_unknown_verb_and_names(capsys):
    code, rep = run_json(capsys, "run", DEMO, "frobnicate")
    assert code == 2
    assert rep["error"]["code"] == "bad_command"
    code, rep = run_json(capsys, "run", DEMO, "eval", "nope", "x1")
    assert code == 2
    assert "unknown operator" in rep["error"]["message"]
    code, rep = run_json(capsys, "run", DEMO, "eval", "T")
    assert code == 2
    assert "expected eval OP PROBE" in rep["error"]["message"]


def test_domain_error_exit(capsys):
    # W is not positive, so it cannot generate a band
    code, rep = run_json(capsys, "run", DEMO, "project", "W", "T", "x1")
    assert code == 1
    assert rep["error"]["code"] == "not_positive"


def test_suite_failure_exit_code(capsys, monkeypatch):
    # the suite verb imports run_suite when it runs, so it reads this patch
    real = suite_mod.run_suite

    def broken(model, seed):
        report = real(model, seed)
        report["ok"] = False
        return report

    monkeypatch.setattr(suite_mod, "run_suite", broken)
    code, _ = run_cli(capsys, "suite", DEMO)
    assert code == 3


@pytest.mark.parametrize("verb", ["project-functional", "project", "oracle"])
def test_tiny_probe_coordinate_projects_to_target_value(capsys, tmp_path, verb):
    model = tmp_path / "tiny.ury"
    model.write_text(TINY_PROBE_MODEL)
    code, rep = run_json(capsys, "run", str(model), verb, "phi", "T", "x")
    assert code == 0
    value = rep["result"]["value"]
    assert (value if verb == "project-functional" else value[0]) == 0.500000001


@pytest.mark.parametrize(
    "text,argv",
    [
        (TINY_PROBE_MODEL, ("project-functional", "phi", "T", "x")),
        ("space E 2\nkernel k abs\nop T 1x2 [k k]\nprobe x = (1e999, 1)\n", ("eval", "T", "x")),
        ("space E 1e999\n", ("eval", "T", "x")),
        ("space E 1\nkernel k abs scale=1e999\nop T 1x1 [k]\nprobe x = (1)\n", ("eval", "T", "x")),
        ("space E 1\nkernel k clamp(-1e999,1)\nop T 1x1 [k]\nprobe x = (-2)\n", ("eval", "T", "x")),
        (OVERFLOW_MODEL, ("eval", "T", "x")),
        (OVERFLOW_MODEL, ("project", "S", "T", "x")),
        (NAN_PART_MODEL, ("project-functional", "P", "U", "x")),
        (DEEP_MODEL.format("(" * 3000 + "r" + ")" * 3000), ("eval", "U", "x")),
        (DEEP_MODEL.format("-" * 3000 + "r"), ("eval", "U", "x")),
        (DEEP_MODEL.format("+".join(["r"] * 5000)), ("eval", "U", "x")),
        (DEEP_MODEL.format("r*" + "^".join(["1"] * 3000)), ("eval", "U", "x")),
        (RANK_ONE_CHAIN, ("eval", "R0", "x")),
        (RANK_ONE_CHAIN, ("eval", "R1199", "x")),
        (INTEGRAL_CHAIN, ("eval", "R1199", "x")),
    ],
    ids=[
        "tiny-probe", "infinite-probe", "infinite-space", "infinite-scale",
        "infinite-clamp", "overflow-eval", "overflow-project", "nan-part-functional",
        "deep-parens", "deep-minus", "long-sum", "long-power", "chain-head", "chain-tail",
        "integral-chain-tail",
    ],
)
def test_cli_never_tracebacks(tmp_path, text, argv):
    model = tmp_path / "m.ury"
    model.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "uryson.cli", "run", str(model), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode in (0, 1, 2)
    json.loads(proc.stdout)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv,code",
    [
        (("suite", DEMO), 0),
        (("run", DEMO, "project", "S,SD", "T", "x2"), 0),
        (("run", DEMO, "disjoint", "S", "D"), 0),
        (("run", DEMO, "eval", "T", "--all", "--csv", "TABLE"), 0),
        (("run", DEMO, "witness", "T", "S", "x1"), 1),
    ],
    ids=["suite", "project", "disjoint", "eval-csv", "witness"],
)
def test_reports_do_not_depend_on_the_hash_seed(tmp_path, argv, code):
    # three hash seeds, then a child in development mode with warnings as
    # errors, which the test session's warning filter does not reach
    table = tmp_path / "table.csv"
    argv = [str(table) if arg == "TABLE" else arg for arg in argv]
    configs = [([], {"PYTHONHASHSEED": seed}) for seed in ("0", "1", "12345")]
    configs.append((["-X", "dev", "-W", "error"], {}))
    outcomes = set()
    for flags, extra in configs:
        env = dict(os.environ, PYTHONPATH=str(SRC), **extra)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "uryson.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.stderr == ""
        outcomes.add((proc.returncode, proc.stdout, table.read_text() if table.exists() else None))
    assert len(outcomes) == 1
    got, out, csv = outcomes.pop()
    assert got == code and json.loads(out)
    assert (csv is None) == ("--csv" not in argv)


@pytest.mark.parametrize(
    "body",
    [
        "(" * 3000 + "r" + ")" * 3000,
        "-" * 3000 + "r",
        "+".join(["r"] * 5000),
        "r*" + "^".join(["1"] * 3000),
    ],
    ids=["deep-parens", "deep-minus", "long-sum", "long-power"],
)
def test_deep_expressions_are_semantic_errors(capsys, tmp_path, body):
    model = tmp_path / "deep.ury"
    model.write_text(DEEP_MODEL.format(body))
    code, rep = run_json(capsys, "run", str(model), "eval", "U", "x")
    assert code == 2
    assert rep["error"] == {
        "code": "semantic_error",
        "line": 1,
        "message": "line 1: expression nested or chained deeper than 64",
    }


@pytest.mark.parametrize("op", ["R0", "R1199"])
def test_long_rank_one_chains_evaluate(capsys, tmp_path, op):
    model = tmp_path / "chain.ury"
    model.write_text(RANK_ONE_CHAIN)
    code, rep = run_json(capsys, "run", str(model), "eval", op, "x")
    assert code == 0
    assert rep["result"]["value"] == [1]


def test_long_integral_rank_one_chain_evaluates(capsys, tmp_path):
    model = tmp_path / "chain.ury"
    model.write_text(INTEGRAL_CHAIN)
    code = main(["run", str(model), "eval", "R1199", "x"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["value"] == [2]


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "T", "x"),
        ("project", "S", "T", "x"),
        ("disjoint", "S", "T", "x"),
        ("witness", "S", "T", "x"),
        ("oracle", "S", "T", "x"),
    ],
)
def test_overflow_is_a_numeric_error(capsys, tmp_path, argv):
    model = tmp_path / "overflow.ury"
    model.write_text(OVERFLOW_MODEL)
    code, rep = run_json(capsys, "run", str(model), *argv)
    assert code == 1
    assert rep == {
        "error": {"code": "numeric_error", "message": "intermediate overflow in fsum"}
    }


def test_suite_reports_overflow_as_failed_rows(capsys, tmp_path):
    model = tmp_path / "overflow.ury"
    model.write_text(OVERFLOW_MODEL)
    code, rep = run_json(capsys, "suite", str(model))
    assert code == 3
    rows = rep["result"]["suite"]["checks"]
    failed = [r for r in rows if not r["ok"]]
    assert failed
    assert all(r["detail"].startswith("error [numeric_error]: ") for r in failed)


def test_functional_part_not_positive(capsys, tmp_path):
    model = tmp_path / "nan.ury"
    model.write_text(NAN_PART_MODEL)
    code, rep = run_json(capsys, "run", str(model), "project-functional", "P", "U", "x")
    assert code == 1
    assert rep == {"error": {"code": "not_positive", "message": "operator T+ must be positive"}}


# U and V are equal but distinct quadrature operators, +inf on the far
# samples of the grid (|r| > 7)
INFINITE_PAIR_MODEL = """\
op U integral (max(abs(r)-7, 0)*1e308*1e308) s=(1) t=(1) w=(1)
op V integral (max(abs(r)-7, 0)*1e308*1e308) s=(1) t=(1) w=(1)
probe x = (1)
"""


def test_equal_infinite_kernels_are_ordered(capsys, tmp_path):
    model = tmp_path / "inf.ury"
    model.write_text(INFINITE_PAIR_MODEL)
    code, pair = run_json(capsys, "run", str(model), "project", "U,V", "V", "x")
    assert code == 0, pair
    code, single = run_json(capsys, "run", str(model), "project", "U", "V", "x")
    assert code == 0
    assert pair["result"]["value"] == single["result"]["value"]


# an overflowing literal would render as inf, which does not parse back; a
# nan kernel (inf * 0 at r = 0) does not vanish at 0
@pytest.mark.parametrize(
    "line, code, message",
    [
        ("op U integral (r*1e400) s=(1) t=(1) w=(1)", "semantic_error",
         "line 2: expression numbers must be finite"),
        ("op U integral ((1e200*1e200)*r) s=(1) t=(1) w=(1)", "c0_violation",
         "line 2: kernel does not vanish at 0 at node (s=1, t=1): nan"),
    ],
    ids=["overflowing-literal", "nan-at-zero"],
)
def test_non_finite_integral_lines_are_refused(capsys, tmp_path, line, code, message):
    model = tmp_path / "bad.ury"
    model.write_text(f"# refused\n{line}\nprobe x = (1)\n")
    exit_code, rep = run_json(capsys, "run", str(model), "eval", "U", "x")
    assert exit_code == 2
    assert rep["error"] == {"code": code, "line": 2, "message": message}


# the discretized entries of both lines read 1e-08 at 0: each is a c0_violation
@pytest.mark.parametrize(
    "line, message",
    [
        ("op U integral (r+1e-10) s=(1) t=(1) w=(100)",
         "line 2: weighted kernel does not vanish at 0 at node (s=1, t=1, w=100): 1e-08"),
        ("op U integral (r+1e-8) s=(1) t=(1) w=(1)",
         "line 2: kernel does not vanish at 0 at node (s=1, t=1): 1e-08"),
    ],
    ids=["weighted", "unweighted"],
)
def test_integral_kernels_that_do_not_vanish_at_0_are_c0_violations(capsys, tmp_path, line, message):
    model = tmp_path / "bad.ury"
    model.write_text(f"# refused\n{line}\nprobe x = (1)\n")
    exit_code, rep = run_json(capsys, "run", str(model), "eval", "U", "x")
    assert exit_code == 2
    assert rep["error"] == {"code": "c0_violation", "line": 2, "message": message}


PROBELESS_MODEL = "kernel k abs\nop S 1x1 [k]\nop T 1x1 [k]\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("eval", "T", "--all"), "model declares no probes"),
        (("disjoint", "S", "T"), "model declares no probes"),
        (("disjoint", "S"), "expected disjoint OP1 OP2 [PROBE...]"),
    ],
    ids=["eval-all", "disjoint-all", "disjoint-one-operator"],
)
def test_probe_less_model_refusals(capsys, tmp_path, argv, message):
    model = tmp_path / "m.ury"
    model.write_text(PROBELESS_MODEL)
    code, rep = run_json(capsys, "run", str(model), *argv)
    assert code == 2
    assert rep["error"] == {"code": "bad_command", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("run",),
        ("run", DEMO),
        ("run", DEMO, "eval", "T", "x1", "--max-steps", "1.5"),
        ("frobnicate", DEMO),
        ("suite", DEMO, "--seed"),
        ("run", DEMO, "eval", "T", "x1", "--no-such-flag"),
    ],
)
def test_usage_errors_are_bad_commands(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"]["code"] == "bad_command"
    assert err == ""


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: uryson run")


# argv words: every verb and flag, the names of demo.ury, and numbers from a
# bounded set, so that no schedule runs for more than 40 steps
ARGV_OPS = ("T", "S", "D", "SD", "W", "phi", "psi", "R", "U", "S,SD", "nope")
ARGV_PROBES = ("x1", "x2", "x3")
ARGV_NUMBERS = ("0", "-0", "1", "-1", "2", "0.5", "1.5", "1e-9", "40", "nan", "inf", "1e999")
ARGV_FLAGS = ("--tol", "--eps0", "--factor", "--max-steps", "--cap-support", "--seed")


@st.composite
def argvs(draw, out_dir):
    """A head that names a mode, a copy of the demo model (out_dir/model.ury)
    and a verb (or stops short), then names, flags with values, and stray
    words."""
    model = str(out_dir / "model.ury")
    # the only paths after --json and --csv: the model copy under two
    # spellings, which must be refused, and files it may write
    paths = (
        str(out_dir / "out.json"), str(out_dir / "out.csv"), str(out_dir / "missing" / "out.json"),
        model, "model.ury",
    )
    head = draw(st.sampled_from([(), ("run",), ("suite", model)] + [("run", model)] * 5))
    if head == ("run", model):
        head += (draw(st.sampled_from(cli_mod.VERBS + ("frobnicate",))),)
    # one or two operators then a probe, as most verbs take, or any names
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(ARGV_OPS), min_size=1, max_size=2))
        names.append(draw(st.sampled_from(ARGV_PROBES)))
    else:
        names = draw(st.lists(st.sampled_from(ARGV_OPS + ARGV_PROBES), max_size=3))
    names = [(name,) for name in names]
    flags = draw(st.lists(
        st.one_of(
            st.tuples(st.sampled_from(ARGV_FLAGS), st.sampled_from(ARGV_NUMBERS)),
            st.tuples(st.sampled_from(("--json", "--csv")), st.sampled_from(paths)),
            st.just(("--all",)),
        ),
        max_size=3,
    ))
    stray = ("run", "suite", *cli_mod.VERBS, *ARGV_NUMBERS, *ARGV_FLAGS, *paths)
    strays = [(draw(st.sampled_from(stray)),)] if draw(st.integers(0, 3)) == 0 else []
    units = draw(st.permutations(names + flags + strays))
    return [*head, *(word for words in units for word in words)]


def test_any_argv_ends_in_one_json_document(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    demo = pathlib.Path(DEMO).read_bytes()
    copy = tmp_path / "model.ury"

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(tmp_path))
    def check(argv):
        copy.write_bytes(demo)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        json.loads(out.getvalue())
        assert err.getvalue() == ""
        # an argv whose model is the copy never changes it; another argv may
        # name the copy as its --json output (see the test below)
        try:
            ns = cli_mod._build_parser().parse_args(argv)
        except BadCommand:
            return
        if os.path.realpath(ns.model) == os.path.realpath(copy):
            assert copy.read_bytes() == demo

    check()


def test_unreadable_model_writes_its_error_to_json(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "run", "missing.ury", "eval", "T", "x1", "--json", "out.json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "io_error"
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == out
