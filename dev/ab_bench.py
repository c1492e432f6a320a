"""Compare two checkouts on one zcbench workload, run by run.

    python3 dev/ab_bench.py --base ../parent --change . --workload probe \
        --seeds 81-90 --seconds 8

For each seed it runs `zcbench/run.py --trace 0` once in each checkout,
one after the other, and alternates which side runs first, so drift in the
host's speed falls on both sides alike. It then prints, for each end-to-end
metric in BENCHMARK.json, the median per side, the base side's quartiles
and how many pairs each side won; and, for each request kind, the median of
its raw `ok_ms_p50`, read from each checkout's `zcbench/_out/`. Unlike the
end-to-end times, zcbench does not normalise these by its calibration
kernel, so they carry the host's drift between runs. The runs are
sequential, one process at a time. Each run writes and reads its bytecode
under a fresh empty PYTHONPYCACHEPREFIX, so neither side reads the
`__pycache__` a checkout happens to hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in `checkout`: its end-to-end values, its failed
    request count, and the median latency of each request kind."""
    argv = [sys.executable, "zcbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="ab_bench_pycache_") as pycache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": pycache}
        done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                              check=True)
    detail = checkout / "zcbench" / "_out" / f"{workload}-seed{seed}-trace0.json"
    return parse_run(done.stdout.splitlines()[-1], json.loads(detail.read_text()))


def parse_run(last_line: str, detail: dict) -> dict:
    result = json.loads(last_line)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "correct": result["correct"],
        "kinds": {kind: o["ok_ms_p50"] for kind, o in detail["outcomes"].items()},
    }


def _median(values: list) -> float | None:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Medians per side, the base side's quartiles, and pairs won per side
    for each metric (a tie, or a missing value, is won by neither); the
    median ok_ms_p50 per side for each request kind."""
    out = {"pairs": len(pairs),
           "failed": [sum(pair[i]["failed"] for pair in pairs) for i in (0, 1)],
           "incorrect": [sum(not pair[i]["correct"] for pair in pairs) for i in (0, 1)],
           "metrics": {}, "kinds": {}}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        base = [b["metrics"].get(name) for b, _ in pairs]
        change = [c["metrics"].get(name) for _, c in pairs]
        both = [(x, y) for x, y in zip(base, change) if x is not None and y is not None]
        present = [x for x in base if x is not None]
        out["metrics"][name] = {
            "base": _median(base),
            "change": _median(change),
            "base_quartiles": statistics.quantiles(present, n=4)[::2] if len(present) > 1 else None,
            "won": [sum(sign * (y - x) > 0 for x, y in both),
                    sum(sign * (x - y) > 0 for x, y in both)],
        }
    kinds = sorted({k for pair in pairs for run in pair for k in run["kinds"]})
    for kind in kinds:
        out["kinds"][kind] = [_median([run["kinds"].get(kind) for run in side])
                              for side in zip(*pairs)]
    return out


def _fmt(value: float | None) -> str:
    return "none" if value is None else f"{value:.5g}"


def report(summary: dict) -> list[str]:
    lines = [f"{summary['pairs']} pairs; failed requests base {summary['failed'][0]},"
             f" change {summary['failed'][1]}; incorrect runs base"
             f" {summary['incorrect'][0]}, change {summary['incorrect'][1]}",
             f"{'metric':14s} {'base':>10s} {'[q1, q3]':>22s} {'change':>10s} {'delta':>8s}"
             f"  won base/change"]
    for name, m in summary["metrics"].items():
        q = m["base_quartiles"]
        quartiles = "none" if q is None else f"[{_fmt(q[0])}, {_fmt(q[1])}]"
        delta = ("" if None in (m["base"], m["change"]) or m["base"] == 0
                 else f"{(m['change'] - m['base']) / m['base']:+.1%}")
        lines.append(f"{name:14s} {_fmt(m['base']):>10s} {quartiles:>22s}"
                     f" {_fmt(m['change']):>10s} {delta:>8s}  {m['won'][0]}/{m['won'][1]}")
    lines.append("raw ok_ms_p50 by request kind (not normalised by zcbench's calibration"
                 " kernel), median: base -> change")
    for kind, (base, change) in summary["kinds"].items():
        lines.append(f"  {kind:18s} {_fmt(base):>10s} -> {_fmt(change)}")
    return lines


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="one seed or a range, 81-90")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    checkouts, pairs = (args.base.resolve(), args.change.resolve()), []
    for i, seed in enumerate(args.seeds):
        runs = [{}, {}]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
        pairs.append(tuple(runs))
        print(f"seed {seed} done", file=sys.stderr)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    print(f"{args.workload}, seeds {args.seeds[0]}..{args.seeds[-1]}")
    print("\n".join(report(summarize(pairs, metrics))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
