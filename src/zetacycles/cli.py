"""Command-line surface: configuration, zero-cache persistence, scans,
detection, identity verification, and report emission.

Exit codes: 0 when every assertion in the invoked suite passed, 1 when an
assertion failed, 2 for usage, configuration, or missing-input errors, and
for requests the library rejects (AccuracyError, PoleError, ValueError).
Reports are deterministic: identical config and cache produce byte-identical
payloads; timing goes to a separate runtime-stats file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import cycles, laplacian, operators, schwartz, sheaf, specfun
from .specfun import ZetaZero

CACHE_DIR_ENV = "ZETACYCLES_CACHE_DIR"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    """Bad configuration file or flag value."""


class MissingCacheError(FileNotFoundError):
    """The zero cache is absent or too short for the requested range."""


@dataclass(frozen=True)
class RunConfig:
    t_max: float = 60.0
    tol: float = 1e-4
    family_ks: tuple[int, ...] = (0, 1, 2)
    L_window: tuple[float, float] = (0.40, 0.46)
    scan_step: float = 1e-3
    cache_path: str = "zeros.csv"
    output_dir: str = "reports"

    def __post_init__(self) -> None:
        if self.t_max <= 0.0 or self.tol <= 0.0 or self.scan_step <= 0.0:
            raise ConfigError("t_max, tol, and scan_step must be positive")
        lo, hi = self.L_window
        if not (0.0 < lo < hi):
            raise ConfigError("L_window must be an ordered positive pair")
        if not self.family_ks:
            raise ConfigError("family_ks must be nonempty")
        if any(k < 0 for k in self.family_ks):
            raise ConfigError("family_ks entries must be nonnegative")

    def resolved_cache_path(self) -> Path:
        path = Path(self.cache_path)
        override = os.environ.get(CACHE_DIR_ENV)
        if override and not path.is_absolute():
            return Path(override) / path
        return path


_INT_TUPLE_KEYS = {"family_ks"}
_FLOAT_PAIR_KEYS = {"L_window"}
_FLOAT_KEYS = {"t_max", "tol", "scan_step"}
_STR_KEYS = {"cache_path", "output_dir"}
_ALL_KEYS = _INT_TUPLE_KEYS | _FLOAT_PAIR_KEYS | _FLOAT_KEYS | _STR_KEYS


def _coerce(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_TUPLE_KEYS:
            return tuple(int(p) for p in raw.replace(",", " ").split())
        if key in _FLOAT_PAIR_KEYS:
            parts = [float(p) for p in raw.replace(",", " ").split()]
            if len(parts) != 2:
                raise ValueError("expected two numbers")
            return (parts[0], parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    return raw


def parse_config_file(path: str | Path) -> dict:
    """Flat `key = value` lines; `#` comments and blank lines ignored."""
    values: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """File values first, then flag overrides; flags win."""
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = _coerce(f.name, flag) if isinstance(flag, str) else flag
    return RunConfig(**values)


def _meta_path(cache: Path) -> Path:
    return cache.with_suffix(cache.suffix + ".meta.json")


def _covered_t_max(meta_file: Path) -> float | None:
    """The t_max a cache's sidecar records, or None (coverage unknown) when
    the sidecar is missing, or is not an object with a finite numeric t_max."""
    try:
        meta = json.loads(meta_file.read_text())
    except (FileNotFoundError, ValueError):
        return None
    t_max = meta.get("t_max") if isinstance(meta, dict) else None
    numeric = isinstance(t_max, (int, float)) and not isinstance(t_max, bool)
    return float(t_max) if numeric and math.isfinite(t_max) else None


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _write_runtime(out_dir: Path, command: str, seconds: float, extra=None) -> None:
    payload = {"command": command, "seconds": seconds, **(extra or {})}
    _write_json(out_dir / f"{command}_runtime.json", payload)


def load_zeros(cfg: RunConfig) -> list[ZetaZero]:
    if cfg.t_max > specfun.VALIDATED_T_MAX:  # no cache can cover it: `zeros` would fail too
        raise ConfigError(
            f"t_max = {cfg.t_max:g} exceeds the validated range of the zeros,"
            f" VALIDATED_T_MAX = {specfun.VALIDATED_T_MAX:g}"
        )
    cache = cfg.resolved_cache_path()
    if not cache.exists():
        raise MissingCacheError(
            f"zero cache {cache} not found; run `zetacycles zeros` first"
        )
    meta_file = _meta_path(cache)
    covered = _covered_t_max(meta_file)
    if covered is None:  # an interrupted `zeros`, or a damaged sidecar
        raise MissingCacheError(
            f"zero cache {cache} has no readable t_max in {meta_file.name};"
            " rerun `zetacycles zeros`"
        )
    if covered < cfg.t_max:
        raise MissingCacheError(
            f"zero cache {cache} covers t <= {covered}, need"
            f" {cfg.t_max}; rerun `zetacycles zeros`"
        )
    return specfun.read_zero_cache(cache)


def cmd_zeros(cfg: RunConfig) -> int:
    """Materialize the critical zeros up to t_max; idempotent per range."""
    t0 = time.perf_counter()
    cache = cfg.resolved_cache_path()
    out_dir = Path(cfg.output_dir)
    meta_file = _meta_path(cache)
    covered = _covered_t_max(meta_file)
    reused = cache.exists() and covered is not None and covered >= cfg.t_max
    zeros = specfun.read_zero_cache(cache) if reused else specfun.find_zeros(0.0, cfg.t_max)
    if not reused:
        cache.parent.mkdir(parents=True, exist_ok=True)
        specfun.write_zero_cache(cache, zeros)
        meta = {"t_max": cfg.t_max, "count": len(zeros)}
        with specfun.open_replacing(meta_file) as fh:  # the sidecar last, once the cache is whole
            fh.write(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    _write_json(
        out_dir / "zeros_report.json",
        {"command": "zeros", "cache": str(cache), "count": len(zeros), "reused": reused},
    )
    max_abs_error = max((z.abs_error for z in zeros), default=0.0)
    _write_runtime(out_dir, "zeros", time.perf_counter() - t0, {"max_abs_error": max_abs_error})
    return EXIT_OK


def _family(cfg: RunConfig) -> list[schwartz.TestFunction]:
    return [schwartz.make_test_function(k) for k in cfg.family_ks]


def cmd_scan(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out_dir = Path(cfg.output_dir)
    zeros = load_zeros(cfg)
    lo, hi = cfg.L_window
    result = cycles.scan(lo, hi, cfg.scan_step, _family(cfg), cfg.t_max, zeros)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "scan.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["L", "min_row_score"])
        for L, score in result.grid:
            writer.writerow([f"{L:.10f}", f"{score:.16e}"])
    _write_json(
        out_dir / "dips.json",
        # each dip is the cached zero zero_index (from 0), whose ordinate is s
        {"command": "scan", "dips": [{**asdict(d), "matched_zero": d.s} for d in result.dips]},
    )
    stats = dict(result.runtime_stats)
    stats["profile_seconds"] = stats.pop("seconds")
    _write_runtime(out_dir, "scan", time.perf_counter() - t0, stats)
    return EXIT_OK


def cmd_detect(cfg: RunConfig, L: float) -> int:
    t0 = time.perf_counter()
    out_dir = Path(cfg.output_dir)
    zeros = load_zeros(cfg)
    report = cycles.detect(L, _family(cfg), cfg.t_max, cfg.tol, zeros=zeros)
    payload = {
        "command": "detect",
        "L": report.L,
        "tol": report.tol,
        "t_max": report.t_max,
        "verdict": report.verdict,
        "flagged": list(report.flagged),
        "matched": [
            {
                "n": m.n,
                "s": m.s,
                "matched_zero": None if m.zero is None else m.zero.ordinate,
                "distance": m.distance,
            }
            for m in report.matched_zeros
        ],
        "zeta_scores": {str(n): v for n, v in sorted(report.zeta_scores.items())},
    }
    _write_json(out_dir / "detect.json", payload)
    _write_runtime(out_dir, "detect", time.perf_counter() - t0)
    return EXIT_OK


def _verify_checks(cfg: RunConfig) -> list[dict]:
    family = _family(cfg)
    gaps = {}
    for f in family:
        for L in (0.8, 1.0, math.log(4.0)):
            direct = operators.fourier_direct(f, L, N=32)
            closed = operators.fourier_closed(f, L, N=32)
            ref = max(abs(closed.coeff(n)) for n in range(-32, 33))
            diff = max(
                abs(direct.coeff(n) - closed.coeff(n)) for n in range(-32, 33)
            )
            gaps[f.label, L] = diff / ref
    (label, L), fourier = max(gaps.items(), key=lambda item: item[1])
    rng = np.random.default_rng(20260814)
    points = [(family[int(rng.integers(len(family)))], float(rng.uniform(0.05, 4.0)))
              for _ in range(20)]
    checks = [
        {"name": "fourier_direct_vs_closed", "worst": fourier, "threshold": 1e-6,
         "worst_at": {"f": label, "L": L}},
        {"name": "trace_identity", "threshold": 1e-14,
         "worst": max(operators.trace_identity_check(f, u) for f, u in points)},
        {"name": "psi_vanishing_at_i_half", "threshold": 1e-9,
         "worst": max(abs(schwartz.mellin_psi(f, 0.5j).psi) for f in family)},
        {"name": "mellin_conjugation", "threshold": 1e-10,
         "worst": max(abs(schwartz.mellin_psi(f, float(-z)).psi
                          - schwartz.mellin_psi(f, float(z)).psi.conjugate())
                      for f in family for z in np.linspace(-6.0, 6.0, 13))},
    ]
    for check in checks:
        check["pass"] = bool(check["worst"] <= check["threshold"])
    return checks


def cmd_verify(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out_dir = Path(cfg.output_dir)
    checks = _verify_checks(cfg)
    all_pass = all(c["pass"] for c in checks)
    _write_json(
        out_dir / "verify.json",
        {"command": "verify", "checks": checks, "all_pass": all_pass},
    )
    _write_runtime(out_dir, "verify", time.perf_counter() - t0)
    return EXIT_OK if all_pass else EXIT_ASSERTION


def cmd_laplacian(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out_dir = Path(cfg.output_dir)
    zeros = load_zeros(cfg)
    rows = laplacian.negativity_rows(zeros)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "laplacian.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ordinate", "eigenvalue", "negativity_ok"])
        for ordinate, value, ok in rows:
            writer.writerow([f"{ordinate:.14f}", f"{value:.16e}", ok])
    _write_runtime(out_dir, "laplacian", time.perf_counter() - t0)
    return EXIT_OK if all(ok for _, _, ok in rows) else EXIT_ASSERTION


def cmd_jets(cfg: RunConfig, section_path: str) -> int:
    t0 = time.perf_counter()
    out_dir = Path(cfg.output_dir)
    path = Path(section_path)
    if not path.exists():
        raise MissingCacheError(f"section file {path} not found")
    zeros = load_zeros(cfg)
    section = sheaf.read_section(path)
    jets = sheaf.quotient_jets(section, zeros)
    out_dir.mkdir(parents=True, exist_ok=True)
    sheaf.write_jet_csv(out_dir / "jets.csv", jets)
    _write_runtime(out_dir, "jets", time.perf_counter() - t0)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetacycles",
        description="Detection of zeta cycles and the associated spectral reports.",
    )
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--t-max", dest="t_max", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--family-ks", dest="family_ks", help="e.g. 0,1,2")
    parser.add_argument("--L-window", dest="L_window", help="e.g. 0.40,0.46")
    parser.add_argument("--scan-step", dest="scan_step", type=float)
    parser.add_argument("--cache-path", dest="cache_path")
    parser.add_argument("--output-dir", dest="output_dir")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("zeros", help="compute and cache critical zeros up to t_max")
    sub.add_parser("scan", help="scan the L window and match its dips to the cached zeros")
    p_detect = sub.add_parser("detect", help="assess a single circle length")
    p_detect.add_argument("L", type=float)
    sub.add_parser("verify", help="run the identity suite")
    sub.add_parser("laplacian", help="emit the negativity CSV over cached zeros")
    p_jets = sub.add_parser("jets", help="emit quotient jets of a section file")
    p_jets.add_argument("section", help="section JSON file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        commands = {
            "zeros": cmd_zeros,
            "scan": cmd_scan,
            "detect": lambda cfg: cmd_detect(cfg, args.L),
            "verify": cmd_verify,
            "laplacian": cmd_laplacian,
            "jets": lambda cfg: cmd_jets(cfg, args.section),
        }
        return commands[args.command](cfg)
    except (ConfigError, MissingCacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (specfun.AccuracyError, specfun.PoleError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc.filename or ''}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
