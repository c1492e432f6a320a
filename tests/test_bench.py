"""dev/bench.py: one run at a single repeat writes every figure, finite."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "dev" / "bench.py"
FIGURES = {
    "cmd.zeros_60_cold", "cmd.zeros_250_cold", "cmd.zeros_250_warm", "cmd.scan_criterion3",
    "cmd.scan_wide_250", "cmd.verify", "cmd.laplacian", "cmd.jets",
    *(f"cmd.detect_{L}" for L in
      ("0.4445212230", "0.8890424460", "1.0", "1.3335636690", "2.5", "3.7")),
    "layer.zeta_critical_0_60_per_point", "layer.zeta_critical_100_260_per_point",
    "layer.zeta_critical_many_0_60_per_point", "layer.zeta_critical_many_100_260_per_point",
    "layer.siegel_theta_per_point", "layer.mellin_psi", "layer.mellin_psi_many_per_point",
    "layer.fourier_direct_N32", "layer.find_zeros_0_250", "layer.zeta_jet_order4",
    "layer.fornberg_9_nodes",
}


def test_one_repeat_writes_every_figure(tmp_path):
    """Run with ZETACYCLES_CACHE_DIR set: the commands still read and drop
    the cache in their own temporary directory, and write nothing there."""
    out, elsewhere = tmp_path / "bench.json", tmp_path / "cache_dir"
    elsewhere.mkdir()
    env = {**os.environ, "ZETACYCLES_CACHE_DIR": str(elsewhere)}
    subprocess.run([sys.executable, str(_SCRIPT), "--out", str(out), "--repeats", "1"],
                   cwd=tmp_path, env=env, capture_output=True, check=True)
    assert list(elsewhere.iterdir()) == []
    record = json.loads(out.read_text())
    assert set(record["figures"]) == FIGURES
    assert record["repeats"] == 1
    for name, figure in [*record["figures"].items(), ("calibration", record["calibration_kernel"])]:
        assert set(figure) == {"median", "q1", "q3", "samples"}, name
        values = [figure["median"], figure["q1"], figure["q3"], *figure["samples"]]
        assert all(math.isfinite(v) and v > 0.0 for v in values), name
        assert figure["q1"] <= figure["median"] <= figure["q3"], name
    assert len(record["calibration_kernel"]["samples"]) == 3 * len(FIGURES)
    assert set(record["provenance"]) == {"commit", "python", "numpy", "scipy", "nproc", "machine"}
    assert record["provenance"]["nproc"] >= 1
