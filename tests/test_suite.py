import uryson.suite as suite_mod
from uryson.report import dumps
from uryson.suite import CHECK_IDS, run_suite


def test_suite_passes_on_demo(demo_model):
    report = run_suite(demo_model, seed=7)
    assert report["ok"]
    assert report["total_fail"] == 0
    assert report["total_pass"] == len(CHECK_IDS)
    assert [c["id"] for c in report["checks"]] == sorted(CHECK_IDS)
    assert all(c["cases"] >= 1 for c in report["checks"])


def test_suite_seed_defaults_to_model_setting(demo_model):
    assert run_suite(demo_model)["seed"] == 7
    assert run_suite(demo_model, seed=3)["seed"] == 3


def test_suite_is_deterministic(demo_model):
    a = dumps(run_suite(demo_model, seed=11))
    b = dumps(run_suite(demo_model, seed=11))
    assert a == b


def test_suite_green_across_seeds(demo_model):
    for seed in (0, 1, 12345):
        assert run_suite(demo_model, seed=seed)["ok"], f"seed {seed}"


def test_suite_reports_check_failure(demo_model, monkeypatch):
    def broken(model, seed):
        return 3, "forced failure for testing"

    patched = tuple(
        (cid, broken if cid == suite_mod.CHECKS[0][0] else fn)
        for cid, fn in suite_mod.CHECKS
    )
    monkeypatch.setattr(suite_mod, "CHECKS", patched)
    report = run_suite(demo_model, seed=0)
    assert not report["ok"]
    assert report["total_fail"] == 1
    bad = [c for c in report["checks"] if not c["ok"]]
    assert bad[0]["detail"] == "forced failure for testing"


def test_suite_reports_check_error(demo_model, monkeypatch):
    def exploding(model, seed):
        from uryson.errors import NotPositive

        raise NotPositive("synthetic")

    patched = ((suite_mod.CHECKS[0][0], exploding),) + tuple(suite_mod.CHECKS[1:])
    monkeypatch.setattr(suite_mod, "CHECKS", patched)
    report = run_suite(demo_model, seed=0)
    assert not report["ok"]
    bad = [c for c in report["checks"] if not c["ok"]]
    assert bad[0]["detail"] == "error [not_positive]: synthetic"
