"""Time the package's commands and layers in-process and write the record as JSON.

    python3 dev/bench.py --out BENCH_27.json [--repeats 15]

Each figure is one call timed `repeats` times with time.perf_counter after
one warm-up call, and recorded raw with its median and quartiles, in
seconds per call or, for the figures named `_per_point`, per point.

- Commands run through `cli.main` in a fresh temporary directory, with
  the zero cache passed as an absolute path inside it, which
  ZETACYCLES_CACHE_DIR does not redirect: `zeros`
  to 60 and to 250 on an empty cache (cold) and to 250 on a full one
  (warm), the criterion-3 scan ([0.3, 1.5] at t_max 60), the wide scan
  ([0.3, 4.0] at t_max 250), `detect` at six lengths, `verify`,
  `laplacian`, and `jets` on one `make_section` section, all at t_max 60
  unless named. A command that exits non-zero stops the run.
- Layers are called directly: scalar `zeta_critical` and
  `zeta_critical_many` per point on [0, 60] and [100, 260],
  `siegel_theta`, `mellin_psi` and `mellin_psi_many`, `fourier_direct` at
  N = 32, `find_zeros(0, 250)`, `zeta_jet` at order 4 and Fornberg weights
  on 9 nodes.

Before each figure the script times zcbench/calibrate.py's fixed numpy
kernel three times, so runs made at different host speeds can be compared
by its median. The record also holds the commit, the Python, numpy and
scipy versions, and the number of processors. The package is imported from
this checkout's src/, so this file copied into another checkout's dev/
times that checkout. Nothing here is a gate: no figure has a bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "zcbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from calibrate import kernel  # noqa: E402

from zetacycles import cli, operators, schwartz, sheaf, specfun  # noqa: E402

DETECT_LENGTHS = ("0.4445212230", "0.8890424460", "1.0", "1.3335636690", "2.5", "3.7")
BLOCK = 256  # points per array figure: one Euler-Maclaurin block


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


class Bench:
    """The figures of one run, and the calibration kernel timed before each."""

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats
        self.figures: dict[str, dict] = {}
        self.calibration: list[float] = []

    def time(self, name: str, call, points: int = 1, setup=None) -> None:
        """Time call() `repeats` times after one warm-up; setup(), if given,
        runs untimed before each call."""
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            self.calibration.append(time.perf_counter() - start)
        samples = []
        for i in range(self.repeats + 1):
            if setup is not None:
                setup()
            start = time.perf_counter()
            call()
            if i:
                samples.append((time.perf_counter() - start) / points)
        self.figures[name] = _summary(samples)


def bench_commands(bench: Bench, work: Path) -> None:
    """The commands, run in work with the zero cache at the absolute path
    work/zeros.csv, which ZETACYCLES_CACHE_DIR cannot redirect."""
    cache = work / "zeros.csv"

    def command(*argv: str):
        argv = ("--cache-path", str(cache), *argv)

        def call() -> None:
            if (code := cli.main(list(argv))) != 0:
                raise RuntimeError(f"zetacycles {' '.join(argv)} exited with {code}")
        return call

    def drop_cache() -> None:
        cache.unlink(missing_ok=True)

    bench.time("cmd.zeros_60_cold", command("--t-max", "60", "zeros"), setup=drop_cache)
    bench.time("cmd.zeros_250_cold", command("--t-max", "250", "zeros"), setup=drop_cache)
    bench.time("cmd.zeros_250_warm", command("--t-max", "250", "zeros"))
    bench.time("cmd.scan_criterion3", command(
        "--t-max", "60", "--L-window", "0.3,1.5", "--scan-step", "1e-3", "scan"))
    bench.time("cmd.scan_wide_250", command(
        "--t-max", "250", "--L-window", "0.3,4.0", "--scan-step", "1e-3", "scan"))
    for L in DETECT_LENGTHS:
        bench.time(f"cmd.detect_{L}", command("--t-max", "60", "detect", L))
    bench.time("cmd.verify", command("--t-max", "60", "verify"))
    bench.time("cmd.laplacian", command("--t-max", "60", "laplacian"))
    grid = sheaf.build_section_grid(60.0, specfun.find_zeros(0.0, 60.0))
    section = sheaf.make_section(lambda L: L * L, lambda L: 1j * L, grid)
    Path("section.json").write_text(json.dumps(sheaf.section_to_payload(section)))
    bench.time("cmd.jets", command("--t-max", "60", "jets", "section.json"))


def bench_layers(bench: Bench) -> None:
    rng = np.random.default_rng(20261020)
    f = schwartz.make_test_function(1)
    for lo, hi in ((0.0, 60.0), (100.0, 260.0)):
        t = rng.uniform(lo, hi, BLOCK)
        scalar_t = t[:64].tolist()
        bench.time(f"layer.zeta_critical_{lo:g}_{hi:g}_per_point",
                   lambda: [specfun.zeta_critical(x) for x in scalar_t], points=len(scalar_t))
        bench.time(f"layer.zeta_critical_many_{lo:g}_{hi:g}_per_point",
                   lambda: specfun.zeta_critical_many(t), points=BLOCK)
    t = rng.uniform(0.0, 260.0, BLOCK)
    bench.time("layer.siegel_theta_per_point", lambda: specfun.siegel_theta(t), points=BLOCK)
    z = rng.uniform(-60.0, 60.0, BLOCK) + 0.0j
    bench.time("layer.mellin_psi", lambda: schwartz.mellin_psi(f, complex(z[0])))
    bench.time("layer.mellin_psi_many_per_point", lambda: schwartz.mellin_psi_many(f, z),
               points=BLOCK)
    bench.time("layer.fourier_direct_N32", lambda: operators.fourier_direct(f, 1.0, N=32))
    bench.time("layer.find_zeros_0_250", lambda: specfun.find_zeros(0.0, 250.0))
    bench.time("layer.zeta_jet_order4", lambda: specfun.zeta_jet(100.0, 4))
    nodes = 0.03 * np.arange(-4.0, 5.0)
    bench.time("layer.fornberg_9_nodes", lambda: specfun.finite_difference_weights(0.0, nodes, 4))


def _commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None  # a copy without git history
    return done.stdout.strip()


def run(repeats: int) -> dict:
    bench = Bench(repeats)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="zetacycles_bench_") as work:
        os.chdir(work)
        try:
            bench_commands(bench, Path(work).resolve())
        finally:
            os.chdir(cwd)
    bench_layers(bench)
    return {
        "figures": bench.figures,
        "calibration_kernel": _summary(bench.calibration),
        "repeats": repeats,
        "provenance": {
            "commit": _commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "machine": platform.machine(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--repeats", type=int, default=15, help="timed calls per figure")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    record = run(args.repeats)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, fig in record["figures"].items():
        print(f"{name:44s} {fig['median']:.4g} s  [{fig['q1']:.4g}, {fig['q3']:.4g}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
