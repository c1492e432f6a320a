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
import json
import math
import os
import sys
import time
from dataclasses import dataclass
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
        if not all(0.0 < x < math.inf for x in (self.t_max, self.tol, self.scan_step)):
            raise ConfigError("t_max, tol, and scan_step must be positive and finite")
        if self.t_max > specfun.VALIDATED_T_MAX:  # no cache can cover it: `zeros` would fail too
            raise ConfigError(
                f"t_max = {self.t_max:g} exceeds the validated range of the zeros,"
                f" VALIDATED_T_MAX = {specfun.VALIDATED_T_MAX:g}"
            )
        lo, hi = self.L_window
        if not (0.0 < lo < hi < math.inf):
            raise ConfigError("L_window must be an ordered positive finite pair")
        if not self.family_ks:
            raise ConfigError("family_ks must be nonempty")
        for k in self.family_ks:
            try:
                schwartz.make_test_function(k)
            except ValueError as exc:
                raise ConfigError(f"family_ks: {exc}") from exc

    def resolved_cache_path(self) -> Path:
        path = Path(self.cache_path)
        override = os.environ.get(CACHE_DIR_ENV)
        if override and not path.is_absolute():
            return Path(override) / path
        return path


def _float_pair(raw: str) -> tuple[float, float]:
    parts = [float(p) for p in raw.replace(",", " ").split()]
    if len(parts) != 2:
        raise ValueError("expected two numbers")
    return parts[0], parts[1]


# each RunConfig field and the parser of its text, for config lines and flags alike
_FIELDS = {
    "t_max": float,
    "tol": float,
    "family_ks": lambda raw: tuple(int(p) for p in raw.replace(",", " ").split()),
    "L_window": _float_pair,
    "scan_step": float,
    "cache_path": str,
    "output_dir": str,
}


def _coerce(key: str, raw: str):
    try:
        return _FIELDS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


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
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """File values first, then the flags that were given; flags win."""
    values = parse_config_file(args.config) if args.config else {}
    for key in _FIELDS:
        if getattr(args, key) is not None:
            values[key] = _coerce(key, getattr(args, key))
    return RunConfig(**values)


def _meta_path(cache: Path) -> Path:
    return cache.with_suffix(cache.suffix + ".meta.json")


def _covered_t_max(cache: Path) -> float | None:
    """The t_max a cache's sidecar records, or None (coverage unknown) when the
    sidecar is missing or is not an object with a finite numeric t_max."""
    try:
        meta = json.loads(_meta_path(cache).read_text())
    except (FileNotFoundError, ValueError):
        return None
    t_max = meta.get("t_max") if isinstance(meta, dict) else None
    numeric = isinstance(t_max, (int, float)) and not isinstance(t_max, bool)
    return float(t_max) if numeric and math.isfinite(t_max) else None


def _json_text(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def load_zeros(cfg: RunConfig) -> list[ZetaZero]:
    cache = cfg.resolved_cache_path()
    if not cache.exists():
        raise MissingCacheError(
            f"zero cache {cache} not found; run `zetacycles zeros` first"
        )
    covered = _covered_t_max(cache)
    if covered is None:  # an interrupted `zeros`, or a damaged sidecar
        raise MissingCacheError(
            f"zero cache {cache} has no readable t_max in {_meta_path(cache).name};"
            " rerun `zetacycles zeros`"
        )
    if covered < cfg.t_max:
        raise MissingCacheError(
            f"zero cache {cache} covers t <= {covered}, need"
            f" {cfg.t_max}; rerun `zetacycles zeros`"
        )
    try:
        zeros = specfun.read_zero_cache(cache)
    except ValueError as exc:  # a damaged cache, which `zeros` rebuilds
        raise MissingCacheError(f"{exc}; rerun `zetacycles zeros`") from exc
    # a cache built for a larger t_max holds more zeros, which no command at this t_max may read
    return [z for z in zeros if z.ordinate <= cfg.t_max]


# A command takes the config and the parsed arguments. It returns its exit code,
# its reports as {file name: text}, and the entries it adds to
# <command>_runtime.json; main writes the reports, then the runtime file.
_Result = tuple[int, dict[str, str], dict]


def cmd_zeros(cfg: RunConfig, args: argparse.Namespace) -> _Result:
    """Materialize the critical zeros up to t_max; idempotent per range: a
    cache that the other commands would read is reused."""
    cache = cfg.resolved_cache_path()
    try:
        zeros, reused = load_zeros(cfg), True
    except MissingCacheError:
        zeros, reused = specfun.find_zeros(0.0, cfg.t_max), False
        cache.parent.mkdir(parents=True, exist_ok=True)
        _meta_path(cache).unlink(missing_ok=True)  # coverage unknown until the new cache is whole
        specfun.write_zero_cache(cache, zeros)
        meta = {"t_max": cfg.t_max, "count": len(zeros)}
        with specfun.open_replacing(_meta_path(cache)) as fh:  # the sidecar last, once the cache is whole
            fh.write(_json_text(meta))
    report = {"command": "zeros", "cache": str(cache), "count": len(zeros), "reused": reused}
    return (EXIT_OK, {"zeros_report.json": _json_text(report)},
            {"max_abs_error": max((z.abs_error for z in zeros), default=0.0)})


def _family(cfg: RunConfig) -> list[schwartz.TestFunction]:
    return [schwartz.make_test_function(k) for k in cfg.family_ks]


def cmd_scan(cfg: RunConfig, args: argparse.Namespace) -> _Result:
    zeros = load_zeros(cfg)
    lo, hi = cfg.L_window
    started = time.perf_counter()
    result = cycles.scan(lo, hi, cfg.scan_step, _family(cfg), cfg.t_max, zeros)
    seconds = time.perf_counter() - started
    rows = ([f"{L:.10f}", f"{score:.16e}"] for L, score in result.grid)
    # each dip is the cached zero zero_index (from 0), whose ordinate is s
    dips = {"command": "scan", "dips": [{**vars(d), "matched_zero": d.s} for d in result.dips]}
    reports = {"scan.csv": specfun._csv_text(["L", "min_row_score"], rows),
               "dips.json": _json_text(dips)}
    return EXIT_OK, reports, {**result.runtime_stats, "profile_seconds": seconds}


def cmd_detect(cfg: RunConfig, args: argparse.Namespace) -> _Result:
    zeros = load_zeros(cfg)
    report = cycles.detect(args.L, _family(cfg), cfg.t_max, cfg.tol, zeros=zeros)
    payload = {
        "command": "detect",
        "L": args.L,
        "tol": cfg.tol,
        "t_max": cfg.t_max,
        "verdict": report.verdict,
        "flagged": list(report.flagged),
        "matched": [
            {
                "n": m.n,
                "s": m.s,
                "matched_zero": None if m.zero is None else m.zero.ordinate,
                "distance": None if m.zero is None else m.distance,
            }
            for m in report.matched_zeros
        ],
        "zeta_scores": {str(n): v for n, v in report.zeta_scores.items()},
    }
    return EXIT_OK, {"detect.json": _json_text(payload)}, {}


def _verify_checks(cfg: RunConfig) -> list[dict]:
    family = _family(cfg)
    gaps = {}
    for f in family:
        for L in (0.8, 1.0, math.log(4.0)):
            direct = operators.fourier_direct(f, L, N=32).coeffs
            closed = operators.fourier_closed(f, L, N=32).coeffs
            # Python's complex abs: numpy's can differ from it in the last bit
            diff = max(map(abs, (direct - closed).tolist()))
            gaps[f.label, L] = diff / max(map(abs, closed.tolist()))
    (label, L), fourier = max(gaps.items(), key=lambda item: item[1])
    rng = np.random.default_rng(20260814)
    points = [(family[int(rng.integers(len(family)))], float(rng.uniform(0.05, 4.0)))
              for _ in range(20)]
    # psi at z = -6, ..., 6 as Python complexes, like the gaps above: a reversed row is psi at -z
    psi = [schwartz.mellin_psi_many(f, np.linspace(-6.0, 6.0, 13)).tolist() for f in family]
    checks = [
        {"name": "fourier_direct_vs_closed", "worst": fourier, "threshold": 1e-6,
         "worst_at": {"f": label, "L": L}},
        {"name": "trace_identity", "threshold": 1e-14,
         "worst": max(operators.trace_identity_check(f, u) for f, u in points)},
        {"name": "psi_vanishing_at_i_half", "threshold": 1e-9,
         "worst": max(abs(schwartz.mellin_psi_many(f, [0.5j]).item()) for f in family)},
        {"name": "mellin_conjugation", "threshold": 1e-10,
         "worst": max(abs(minus - plus.conjugate())
                      for row in psi for minus, plus in zip(row[::-1], row))},
    ]
    for check in checks:
        check["pass"] = bool(check["worst"] <= check["threshold"])
    return checks


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> _Result:
    checks = _verify_checks(cfg)
    all_pass = all(c["pass"] for c in checks)
    report = {"command": "verify", "checks": checks, "all_pass": all_pass}
    return (EXIT_OK if all_pass else EXIT_ASSERTION), {"verify.json": _json_text(report)}, {}


def cmd_laplacian(cfg: RunConfig, args: argparse.Namespace) -> _Result:
    rows = laplacian.negativity_rows(load_zeros(cfg))
    text = specfun._csv_text(["ordinate", "eigenvalue", "negativity_ok"],
                             ([f"{ordinate:.14f}", f"{value:.16e}", ok]
                              for ordinate, value, ok in rows))
    code = EXIT_OK if all(ok for _, _, ok in rows) else EXIT_ASSERTION
    return code, {"laplacian.csv": text}, {}


def cmd_jets(cfg: RunConfig, args: argparse.Namespace) -> _Result:
    path = Path(args.section)
    if not path.exists():
        raise MissingCacheError(f"section file {path} not found")
    zeros = load_zeros(cfg)
    jets = sheaf.quotient_jets(sheaf.read_section(path), zeros)
    rows = (
        [f"{e.ordinate:.14f}", f"{e.location:.14f}", slot, order,
         f"{v.real:.16e}", f"{v.imag:.16e}"]
        for e in jets
        for slot, values in (("plus", e.jets_plus), ("minus", e.jets_minus))
        for order, v in enumerate(values)
    )
    header = ["t_k", "L_k", "slot", "order", "jet_re", "jet_im"]
    return EXIT_OK, {"jets.csv": specfun._csv_text(header, rows)}, {}


_COMMANDS = {
    "zeros": cmd_zeros,
    "scan": cmd_scan,
    "detect": cmd_detect,
    "verify": cmd_verify,
    "laplacian": cmd_laplacian,
    "jets": cmd_jets,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, which main turns into exit 2
    and one line, in place of argparse's usage text and SystemExit."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="zetacycles",
        description="Detection of zeta cycles and the associated spectral reports.",
    )
    parser.add_argument("--config", help="flat key = value config file")
    for key in _FIELDS:  # --t-max for t_max, and so on; read as the config line would be
        parser.add_argument("--" + key.replace("_", "-"), dest=key)
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


_PARSER = _build_parser()


def _length_operand(argv: list[str]) -> list[str]:
    """argv with `--` before a detect length that starts with `-` and reads
    as a float (`-1e-3`, `-inf`), which argparse would take for an option."""
    for i, (arg, length) in enumerate(zip(argv, argv[1:])):
        if arg == "detect" and length.startswith("-"):
            try:
                float(length)
            except ValueError:
                continue
            return argv[: i + 1] + ["--"] + argv[i + 1 :]
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(_length_operand(argv))
        cfg = build_config(args)
        started = time.perf_counter()
        code, reports, extra = _COMMANDS[args.command](cfg, args)
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in reports.items():
            (out_dir / name).write_text(text, newline="")
        runtime = {"command": args.command, "seconds": time.perf_counter() - started, **extra}
        (out_dir / f"{args.command}_runtime.json").write_text(_json_text(runtime), newline="")
        return code
    except (ConfigError, MissingCacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (specfun.AccuracyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc.filename or ''}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
