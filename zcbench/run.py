"""zetacycles benchmark: one workload per run, in-process through the CLI.

    python3 zcbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src, so no
install is needed. The run repeats passes over the workload's requests,
each after a fresh set-up, for --seconds, and checks every output. The
end-to-end times are normalised to a reference host speed (calibrate.py);
the raw ones are printed beside them. With
--trace 0 the last line carries the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and carries the per-layer metrics
instead. Lines before it are a readable
summary; the full result, with provenance, goes to zcbench/_out/.
"""

from __future__ import annotations

import os

# one client on one thread: keep BLAS from spreading over the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import micro  # noqa: E402
from stats import latencies, median_seconds, nearest_rank  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Request, Workload, load_reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "zetacycles"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
}
# printed and kept in the detail file, but not bounded: each exists on one
# workload only
EXTRA_UNITS = {"scan_lengths_per_s": "1/s", "zeros_per_s": "1/s"}
# speed-kernel samples per pass, spread over its gaps
SPEED_SAMPLES = 40


@dataclass
class Record:
    kind: str
    seconds: float  # as measured, also when the request failed
    # "ok"; "failed": an expected failure raised or exited 2, as it does
    # today; "wrong": any other request raised, exited 2 or gave output the
    # reference disagrees with
    status: str
    note: str = ""
    start: float = 0.0  # perf_counter() when the request began


@dataclass
class Measured:
    zc: SimpleNamespace
    setups: list[tuple[float, float]]  # (start, seconds)
    untraced: list[list[Record]]
    traced: list[tuple[list[Record], list]]
    tracer: Tracer | None
    speed: calibrate.SpeedLog


# ---------------------------------------------------------------------------
# set-up and passes


def fresh_import() -> SimpleNamespace:
    """Import the package anew, dropping any state an earlier import held,
    as each CLI process would start."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}")
            for m in ("specfun", "schwartz", "operators", "cycles", "laplacian", "sheaf")}
    return SimpleNamespace(cli=cli, **mods)


def set_up(workload: Workload) -> tuple[SimpleNamespace, tuple[float, float]]:
    """Import, family and precondition cache, from scratch; timed."""
    workload.reset()
    start = perf_counter()
    zc = fresh_import()
    zc.schwartz.default_family()
    workload.prepare(zc)
    return zc, (start, perf_counter() - start)


def run_request(zc, req: Request, tracer: Tracer | None) -> Record:
    """Run and check one request. Only a request marked `expect_failure`
    may fail without making the run incorrect; if it succeeds, its output
    is checked like any other."""
    def call():
        return zc.cli.main(req.argv)

    failure = "failed" if req.expect_failure else "wrong"
    start = perf_counter()
    try:
        code = tracer.request(f"cli.{req.command}", call) if tracer else call()
    except SystemExit as exc:  # argparse rejected the arguments
        return Record(req.kind, perf_counter() - start, failure, f"SystemExit {exc.code}",
                      start)
    except Exception as exc:  # a failing request is counted; the run goes on
        return Record(req.kind, perf_counter() - start, failure,
                      f"{type(exc).__name__}: {exc}", start)
    seconds = perf_counter() - start
    if code == 2:  # the CLI's usage, configuration or missing-input exit
        return Record(req.kind, seconds, failure, "exit 2", start)
    try:
        problem = req.check(code, req.out)
    except (OSError, ValueError, KeyError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    status = "wrong" if problem else "ok"
    return Record(req.kind, seconds, status, problem or "", start)


def measure(workload: Workload, seconds: float, trace: bool) -> Measured:
    """Passes over the same requests for `seconds`: all untraced, or
    alternating untraced and traced (with the traced spans). A pass, or an
    untraced-traced pair, is not begun when the last one says it would end
    past the deadline; the first always runs.

    Each pass starts from a fresh set-up, so no pass profits from
    in-process state an earlier one left, and the set-up times spread
    over the run like the passes do. The speed kernel is timed before
    each set-up, between requests and after the last: equally often at
    each of these points, and about SPEED_SAMPLES times a pass in all.
    """
    zc = fresh_import()  # third-party imports, paid once and not timed
    speed = calibrate.SpeedLog()
    setups: list[tuple[float, float]] = []
    untraced: list[list[Record]] = []
    traced: list[tuple[list[Record], list]] = []
    tracer = Tracer(layers.rs_threshold(zc)) if trace else None
    reqs: list[Request] = []
    per_gap = 1

    def run_pass(zc, active: Tracer | None) -> list[Record]:
        records = []
        for req in reqs:
            speed.sample(per_gap)
            records.append(run_request(zc, req, active))
        speed.sample(per_gap)
        return records

    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        for is_traced in (False, True) if trace else (False,):
            speed.sample(per_gap)
            zc, setup = set_up(workload)
            setups.append(setup)
            if not reqs:  # their inputs need the first set-up's files
                reqs = workload.requests()
                per_gap = -(-SPEED_SAMPLES // (len(reqs) + 2))
            if not is_traced:
                untraced.append(run_pass(zc, None))
                continue
            tracer.install(layers.SPAN_TARGETS, layers.LEAF_TARGETS)
            try:
                records = run_pass(zc, tracer)
            finally:
                tracer.uninstall()
            traced.append((records, tracer.reset()))
        now = perf_counter()
        if now + (now - cycle_start) > start + seconds:
            return Measured(zc, setups, untraced, traced, tracer, speed)


def normalised(passes: list[list[Record]], speed: calibrate.SpeedLog) -> list[list[Record]]:
    """The passes with each request's time at the reference host speed."""
    return [[replace(r, seconds=speed.normalised(r.start, r.seconds)) for r in p]
            for p in passes]


# ---------------------------------------------------------------------------
# provenance


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # the benchmark's checkout need not be a git repository


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def outcome_summary(records: list[Record]) -> dict:
    """Per request kind: counts, and the median latency of its successes."""
    by_kind: dict[str, dict] = {}
    for rec in records:
        entry = by_kind.setdefault(rec.kind, {"attempted": 0, "failed": 0, "wrong": 0, "ms": []})
        entry["attempted"] += 1
        if rec.status == "ok":
            entry["ms"].append(rec.seconds * 1e3)
        else:
            entry[rec.status] += 1
    for entry in by_kind.values():
        ms = entry.pop("ms")
        entry["ok_ms_p50"] = nearest_rank(ms, 0.5) if ms else None
    return by_kind


# ---------------------------------------------------------------------------


def end_to_end(workload, untraced, setup_times) -> tuple[dict, dict]:
    """The end-to-end values, and the sample counts behind them; the
    times as they are passed in, normalised or raw."""
    seconds = median_seconds(untraced)
    latency_ms = [x * 1e3 for x in latencies(untraced)]
    p90 = nearest_rank(latency_ms, 0.90)
    values = {
        "wall_s": sum(seconds),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
        "call_ms_p50": nearest_rank(latency_ms, 0.50),
        "call_ms_p90": p90,
        **workload.extra_metrics(untraced),
    }
    samples = {
        "repeats_per_request": len(untraced),
        "requests_per_pass": len(seconds),
        "call_ms_beyond_p90": sum(1 for x in latency_ms if x > p90),
        "setup_reps": len(setup_times),
    }
    return values, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"zcbench: no {PACKAGE} package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work, load_reference())
    try:
        m = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    untraced, traced = m.untraced, m.traced
    # end-to-end times, and the traced against untraced wall time, at the
    # reference host speed; per-layer spans and microbenchmarks stay raw
    untraced_n = normalised(untraced, m.speed)
    traced_n = [(normalised([rs], m.speed)[0], spans) for rs, spans in traced]

    records = [r for p in untraced + [rs for rs, _ in traced] for r in p]
    wrong = [r for r in records if r.status == "wrong"]
    failed = [r for r in records if r.status != "ok"]
    detail = {
        "provenance": provenance(args),
        "why": workload.why,
        "outcomes": outcome_summary(records),
        "failures": sorted({f"{r.kind}: {r.note}" for r in failed})[:20],
        "error_rate": len(failed) / len(records),
        "request_seconds": [[r.seconds for r in p] for p in untraced],
        "speed": m.speed.summary(),
    }
    if args.trace:
        values, missing = layers.per_layer(traced_n, untraced_n, m.tracer)
        micro_values, micro_missing = micro.run(m.zc, args.seed)
        values.update(micro_values)
        detail["missing"] = sorted(missing + micro_missing)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        detail["spans"] = [[s.to_payload() for s in spans] for _, spans in traced]
    else:
        values, detail["samples"] = end_to_end(
            workload, untraced_n, [m.speed.normalised(*setup) for setup in m.setups])
        raw, _ = end_to_end(workload, untraced, [seconds for _, seconds in m.setups])
        units = END_TO_END
    # a failed request in a percentile makes it +inf; JSON has no such number
    values = {k: v if math.isfinite(v) else None for k, v in values.items()}
    detail["values"] = values
    if not args.trace:
        raw = {k: v if math.isfinite(v) else None for k, v in raw.items()}
        detail["values_raw"] = raw
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    result = {"correct": not wrong, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    detail["result"] = result

    out = BENCH_DIR / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(detail, allow_nan=False) + "\n")

    print(f"zcbench {args.workload} seed={args.seed} trace={args.trace}: {workload.why}")
    shown = {**units, **EXTRA_UNITS} if not args.trace else units
    for name, unit in shown.items():
        if name in values:
            value = "none" if values[name] is None else f"{values[name]:.6g}"
            line = f"  {name:40s} {value:>14} {unit}"
            if not args.trace and name != "peak_rss_mb":
                line += f"   (raw {'none' if raw[name] is None else format(raw[name], '.6g')})"
            print(line)
    speed = detail["speed"]
    print(f"  speed kernel: median {speed['median_s'] * 1e3:.3f} ms over {speed['samples']}"
          f" samples, reference {calibrate.REFERENCE_S * 1e3:.3f} ms")
    print(f"  {'error_rate':40s} {detail['error_rate']:14.6g}"
          f"   ({len(failed)} of {len(records)} requests; {len(wrong)} wrong)")
    for line in detail["failures"]:
        print(f"  failed {line}")
    for name in detail.get("missing", []):
        print(f"  missing {name}")
    if values.get("cycles.scan.busy_s"):
        frac = values["cycles.scan.child_frac"]
        print(f"  trace check: child spans cover {frac:.0%} of cycles.scan.busy_s"
              + ("" if frac > 0.5 else ", less than half: the trace misses the scan's work"))
    if "samples" in detail:
        print(f"  samples {detail['samples']}")
    print(f"  detail in {out.relative_to(ROOT)}")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
