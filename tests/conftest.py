import pathlib

import pytest

from uryson.dsl import build_operator, parse_model

DEMO_PATH = pathlib.Path(__file__).resolve().parents[1] / "src" / "uryson" / "demo.ury"


@pytest.fixture(scope="session")
def demo_model():
    return parse_model(DEMO_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def demo_ops(demo_model):
    return {name: build_operator(demo_model, name) for name in demo_model.operator_names()}


@pytest.fixture
def calls(monkeypatch):
    """calls(cls, name) makes cls.name count its calls and returns a runner:
    run(fn, *args) calls fn and returns how many counted calls it made.
    Attributes counted in one test share one tally."""
    tally = [0]

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            tally[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

        def run(fn, *args, **kwargs):
            tally[0] = 0
            fn(*args, **kwargs)
            return tally[0]

        return run

    return count
