"""dev/check_bench_line.py: what it finds wrong with a zcbench result line."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "dev" / "check_bench_line.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_bench_line", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(checker, trace, drop=None, null=None):
    """A result line naming every metric the benchmark lists for `trace`, each
    with a finite value, less `drop` and with `null` written as null."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": 1.5, "unit": m["unit"]}
        for m in json.loads(checker.BENCHMARK.read_text())[section]
        if m["name"] != drop
    }
    if null is not None:
        metrics[null]["value"] = None
    return json.dumps({"correct": True, "failed": 0, "metrics": metrics})


@pytest.mark.parametrize("trace", [0, 1])
def test_good_line_passes(checker, trace):
    assert checker.problems(line(checker, trace), trace) == []


def test_missing_metric(checker):
    found = checker.problems(line(checker, 0, drop="wall_s"), 0)
    assert found == ["end_to_end metric wall_s is missing"]


def test_null_metric(checker):
    name = "specfun.find_zeros.Z_calls_per_zero"
    found = checker.problems(line(checker, 1, null=name), 1)
    assert found == [f"per_layer metric {name} is None, not a finite number"]
