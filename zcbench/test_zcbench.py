"""Self-checks of the benchmark's own code: python3 -m pytest zcbench"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import calibrate
import layers
import pytest
import workloads
from run import END_TO_END, ROOT, SRC, Record, fresh_import, run_request
from stats import latencies, median_seconds, nearest_rank
from tracer import Tracer

sys.path.insert(0, str(SRC))


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.PER_LAYER


def test_reference_holds_108_zeros_below_250():
    ref = workloads.load_reference()
    assert abs(ref[0] - 14.134725141734693) < 1e-12
    assert sum(t <= 250.0 for t in ref) == 108
    assert ref == sorted(ref)


def test_nearest_rank_keeps_infinite_failures():
    values = [3.0, 1.0, math.inf, 2.0]
    assert nearest_rank(values, 0.5) == 2.0
    assert nearest_rank(values, 0.9) == math.inf


def test_a_request_failing_in_any_pass_has_infinite_latency():
    passes = [[Record("a", 1.0, "ok"), Record("b", 2.0, "ok")],
              [Record("a", 0.5, "ok"), Record("b", 0.1, "failed")],
              [Record("a", 0.7, "ok"), Record("b", 0.2, "ok")]]
    assert median_seconds(passes) == [0.7, 0.2]
    assert latencies(passes) == [0.7, math.inf]


def test_a_time_is_scaled_by_the_kernel_speed_near_it():
    speed = calibrate.SpeedLog()
    ref = calibrate.REFERENCE_S
    speed.times = [0.0, 0.5, 1.0, 5.0, 5.5, 6.0]
    speed.seconds = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert speed.normalised(0.2, 0.3) == pytest.approx(0.3)
    # twice as slow around t = 5.5: half the time at the reference speed
    assert speed.normalised(5.4, 0.2) == pytest.approx(0.1)
    # no sample near: every sample counts
    assert speed.normalised(20.0, 1.0) == pytest.approx(1.0 / 1.5)


@pytest.fixture()
def zc():
    return fresh_import()


def test_tracer_counts_leaf_calls_once_and_restores(zc):
    family = [zc.schwartz.make_test_function(k) for k in (0, 1, 2)]
    original = zc.cycles.zeta_critical
    tracer = Tracer(layers.rs_threshold(zc))
    tracer.install(layers.SPAN_TARGETS, layers.LEAF_TARGETS)
    try:
        zc.cycles.zeta_critical(150.0)  # outside any span: not counted
        tracer.request("cli.detect", lambda: zc.cycles.detect(1.0, family))
    finally:
        tracer.uninstall()
    assert zc.cycles.zeta_critical is original
    spans = tracer.reset()
    m = layers.pass_metrics(spans)
    rows = 2 * zc.cycles.mode_count(1.0, 60.0) + 1
    # zeta_critical(-s) recurses into zeta_critical(s): counted once per row
    assert m["specfun.zeta_critical.calls"] == rows
    # the padding rows reach 2 pi (mode_count + padding) / L >= 100
    padding = [n for n in range(-(rows // 2), rows // 2 + 1) if abs(2 * math.pi * n) >= 100.0]
    assert m["specfun.zeta_critical.rs_calls"] == len(padding)
    assert m["schwartz.mellin_psi.calls"] == 3 * rows
    assert m["cycles.detect.calls"] == 1
    detect = next(s for s in spans if s.name == "cycles.detect")
    root = next(s for s in spans if s.name == "cli.detect")
    assert detect.parent == spans.index(root)
    assert 0.0 <= m["cycles.detect.self_s"] <= m["cycles.detect.busy_s"]
    assert m["cli.detect.self_s"] == pytest.approx(root.duration - detect.duration)


def test_tracer_reports_a_missing_target(zc):
    tracer = Tracer()
    tracer.install({"cycles.no_such_function": None}, ())
    tracer.uninstall()
    assert tracer.missing == {"cycles.no_such_function"}


def test_tracer_survives_a_result_of_another_shape(zc):
    tracer = Tracer()
    tracer.install({"specfun.find_zeros": lambda span, bound, result: result.no_such}, ())
    try:
        zeros = tracer.request("cli.zeros", lambda: zc.specfun.find_zeros(0.0, 22.0))
    finally:
        tracer.uninstall()
    assert len(zeros) == 2
    assert tracer.missing == {"specfun.find_zeros:result"}


def test_probe_reference_flags_exact_multiples():
    probe = workloads.Probe(7, Path("unused"), workloads.load_reference())
    t1 = probe.zeros60[0]
    assert probe._expected_flags(2 * workloads.TWO_PI / t1) == {2, -2}
    assert probe._expected_flags(2 * workloads.TWO_PI / t1 + 1e-3) == set()


@pytest.mark.parametrize("expect_failure, status", [(True, "failed"), (False, "wrong")])
def test_only_an_expected_failure_may_fail(zc, tmp_path, expect_failure, status):
    req = workloads.Request("zeros", "zeros", ["--cache-path", str(tmp_path / "c.csv"),
                                               "--t-max", "-1", "zeros"],
                            tmp_path, lambda code, out: None, expect_failure)
    assert run_request(zc, req, None).status == status


def test_an_expected_failure_that_succeeds_is_checked(zc, tmp_path):
    args = ["--cache-path", str(tmp_path / "c.csv"), "--output-dir", str(tmp_path),
            "--t-max", "22", "zeros"]
    req = workloads.Request("zeros", "zeros", args, tmp_path,
                            lambda code, out: "disagrees", expect_failure=True)
    assert run_request(zc, req, None).status == "wrong"
