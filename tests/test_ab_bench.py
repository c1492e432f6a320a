"""dev/ab_bench.py: its summary of paired benchmark runs, on canned results."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "dev" / "ab_bench.py"
METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "call_ms_p50", "better": "lower"}]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_bench", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(ab, wall, p50, kinds, failed=0, correct=True):
    """A run as parse_run reads it from a result line and a detail file."""
    line = json.dumps({"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"}, "call_ms_p50": {"value": p50, "unit": "ms"}}})
    detail = {"outcomes": {k: {"attempted": 5, "failed": 0, "wrong": 0, "ok_ms_p50": ms}
                           for k, ms in kinds.items()}}
    return ab.parse_run(line, detail)


def test_medians_quartiles_and_pairs_won(ab):
    pairs = [
        (run(ab, 0.40, 3.0, {"detect": 1.0, "verify": 40.0}),
         run(ab, 0.36, 3.0, {"detect": 0.9, "verify": 20.0})),
        (run(ab, 0.44, 3.2, {"detect": 1.2, "verify": 44.0}),
         run(ab, 0.38, 3.1, {"detect": 1.0, "verify": 22.0})),
        (run(ab, 0.42, 2.9, {"detect": 1.1, "verify": 34.0}),
         run(ab, 0.45, 3.3, {"detect": 1.1, "verify": 24.0})),
    ]
    s = ab.summarize(pairs, METRICS)
    wall = s["metrics"]["wall_s"]
    assert wall["base"] == pytest.approx(0.42) and wall["change"] == pytest.approx(0.38)
    assert wall["won"] == [1, 2]
    assert wall["base_quartiles"] == pytest.approx([0.40, 0.44])
    # the first pair's p50 is a tie, won by neither side
    assert s["metrics"]["call_ms_p50"]["won"] == [1, 1]
    assert s["kinds"]["verify"] == pytest.approx([40.0, 22.0])
    assert s["kinds"]["detect"] == pytest.approx([1.1, 1.0])
    assert s["failed"] == [0, 0] and s["incorrect"] == [0, 0]
    lines = ab.report(s)
    assert lines[0].startswith("3 pairs; failed requests base 0, change 0")
    assert any(line.split()[:2] == ["wall_s", "0.42"] and line.endswith("1/2") for line in lines)
    assert "  verify                     40 -> 22" in lines


def test_missing_values_and_failures(ab):
    """A metric written as null counts in no median and no pair; a request
    kind that one side never ran shows as none on that side."""
    pairs = [
        (run(ab, 0.40, None, {"detect": 1.0}), run(ab, 0.30, 2.0, {"detect": 0.8, "jets": 5.0})),
        (run(ab, 0.50, 3.0, {"detect": 1.0}, failed=2, correct=False),
         run(ab, 0.60, 2.0, {"detect": 0.8})),
    ]
    s = ab.summarize(pairs, METRICS)
    assert s["metrics"]["call_ms_p50"]["base"] == 3.0
    assert s["metrics"]["call_ms_p50"]["won"] == [0, 1]
    assert s["metrics"]["wall_s"]["won"] == [1, 1]
    assert s["kinds"]["jets"] == [None, 5.0]
    assert s["failed"] == [2, 0] and s["incorrect"] == [1, 0]
    assert "  jets                     none -> 5" in ab.report(s)


def test_seed_ranges(ab):
    assert ab._seeds("81-84") == [81, 82, 83, 84]
    assert ab._seeds("7") == [7]
