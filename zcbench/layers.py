"""What the traced run wraps, and the per-layer metrics made from its spans.

Layers are the package's modules. Span targets are the layer calls the CLI
commands make; leaf targets are the scalar functions called per point,
aggregated per parent span. All figures are per pass over the workload's
requests (median over the traced passes of a run).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from stats import median_seconds
from tracer import RS_LEAF
from workloads import COMMANDS, TWO_PI


def _scan_hook(span, bound, result) -> None:
    # (L, n) pairs the scan verdict reads: n >= 1 with 2 pi n / L <= t_max
    t_max = bound.arguments["t_max"]
    useful = 0
    for L, _ in result.grid:
        n = 1
        while TWO_PI * n / L <= t_max:
            useful += 1
            n += 1
    span.attrs["useful_pairs"] = useful
    span.attrs["dips"] = len(result.dips)


def _find_zeros_hook(span, bound, result) -> None:
    span.attrs["zeros"] = len(result)


SPAN_TARGETS = {
    "cli.load_zeros": None,
    "specfun.find_zeros": _find_zeros_hook,
    "specfun.read_zero_cache": None,
    "specfun.write_zero_cache": None,
    "cycles.scan": _scan_hook,
    "cycles.detect": None,
    "operators.fourier_direct": None,
    "operators.fourier_closed": None,
    "operators.trace_identity_check": None,
    "laplacian.negativity_rows": None,
    "sheaf.quotient_jets": None,
}


LEAF_TARGETS = (
    "specfun.zeta_critical",
    "specfun.riemann_siegel_Z",
    "schwartz.mellin_psi",
    "schwartz.gamma_complex",
)


def rs_threshold(zc) -> float | None:
    """The default EvalConfig's Riemann-Siegel threshold, or None if gone."""
    config = getattr(zc.specfun, "EvalConfig", None)
    return getattr(config(), "rs_threshold", None) if config else None


# name -> (unit, better); the traced run reports exactly these
PER_LAYER = {
    "specfun.zeta_critical.calls": ("count", "lower"),
    "specfun.zeta_critical.rs_calls": ("count", "lower"),
    "specfun.zeta_critical.busy_s": ("s", "lower"),
    "specfun.riemann_siegel_Z.calls": ("count", "lower"),
    "specfun.riemann_siegel_Z.busy_s": ("s", "lower"),
    "specfun.find_zeros.busy_s": ("s", "lower"),
    "specfun.find_zeros.Z_calls_per_zero": ("ratio", "lower"),
    "specfun.write_zero_cache.busy_s": ("s", "lower"),
    "specfun.read_zero_cache.busy_s": ("s", "lower"),
    "schwartz.mellin_psi.calls": ("count", "lower"),
    "schwartz.mellin_psi.busy_s": ("s", "lower"),
    "schwartz.gamma_complex.calls": ("count", "lower"),
    "schwartz.gamma_complex.busy_s": ("s", "lower"),
    "cycles.scan.busy_s": ("s", "lower"),
    "cycles.scan.self_s": ("s", "lower"),
    "cycles.scan.child_frac": ("ratio", "higher"),
    "cycles.scan.useful_zeta_ratio": ("ratio", "higher"),
    "cycles.scan.Z_calls_per_dip": ("ratio", "lower"),
    "cycles.detect.calls": ("count", "lower"),
    "cycles.detect.busy_s": ("s", "lower"),
    "cycles.detect.self_s": ("s", "lower"),
    "operators.fourier_direct.busy_s": ("s", "lower"),
    "operators.fourier_closed.busy_s": ("s", "lower"),
    "operators.trace_identity_check.busy_s": ("s", "lower"),
    "laplacian.negativity_rows.busy_s": ("s", "lower"),
    "sheaf.quotient_jets.busy_s": ("s", "lower"),
    "cli.load_zeros.calls": ("count", "lower"),
    "cli.load_zeros.busy_s": ("s", "lower"),
    **{f"cli.{c}.self_s": ("s", "lower") for c in COMMANDS},
    "specfun.zeta_em_us": ("us", "lower"),
    "specfun.zeta_rs_us": ("us", "lower"),
    "specfun.riemann_siegel_Z_us": ("us", "lower"),
    "specfun.log_gamma_us": ("us", "lower"),
    "specfun.zeta_jet_us": ("us", "lower"),
    "schwartz.mellin_psi_closed_us": ("us", "lower"),
    "schwartz.mellin_psi_quad_us": ("us", "lower"),
    "operators.fourier_direct_N32_ms": ("ms", "lower"),
    "operators.fourier_closed_N32_ms": ("ms", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0  # 0 when the workload does not run the layer


def pass_metrics(spans: list) -> dict[str, float]:
    """Every span and leaf figure of one traced pass, plus the waste ratios."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    m: dict[str, float] = {}
    for name in [*SPAN_TARGETS, *(f"cli.{c}" for c in COMMANDS)]:
        group = by_name[name]
        m[f"{name}.calls"] = len(group)
        m[f"{name}.busy_s"] = sum(s.duration for s in group)
        m[f"{name}.self_s"] = sum(s.duration - s.covered for s in group)
    for leaf in LEAF_TARGETS:
        stats = [s.leaves[leaf] for s in spans if leaf in s.leaves]
        m[f"{leaf}.calls"] = sum(st.calls for st in stats)
        m[f"{leaf}.busy_s"] = sum(st.busy_s for st in stats)
        if leaf == RS_LEAF:
            m[f"{leaf}.rs_calls"] = sum(st.rs_calls for st in stats)

    def leaf_calls(span_name: str, leaf: str) -> int:
        return sum(s.leaves[leaf].calls for s in by_name[span_name] if leaf in s.leaves)

    scans = by_name["cycles.scan"]
    m["cycles.scan.child_frac"] = _ratio(
        m["cycles.scan.busy_s"] - m["cycles.scan.self_s"], m["cycles.scan.busy_s"])
    m["cycles.scan.useful_zeta_ratio"] = _ratio(
        sum(s.attrs.get("useful_pairs", 0) for s in scans),
        leaf_calls("cycles.scan", "specfun.zeta_critical"))
    m["cycles.scan.Z_calls_per_dip"] = _ratio(
        leaf_calls("cycles.scan", "specfun.riemann_siegel_Z"),
        sum(s.attrs.get("dips", 0) for s in scans))
    m["specfun.find_zeros.Z_calls_per_zero"] = _ratio(
        leaf_calls("specfun.find_zeros", "specfun.riemann_siegel_Z"),
        sum(s.attrs.get("zeros", 0) for s in by_name["specfun.find_zeros"]))
    return m


# derived metrics and the targets they rest on; "<target>:result" is the
# hook that reads the target's result
_DERIVED = {
    "cycles.scan.child_frac": ("cycles.scan",),
    "cycles.scan.useful_zeta_ratio": (
        "cycles.scan", "cycles.scan:result", "specfun.zeta_critical"),
    "cycles.scan.Z_calls_per_dip": (
        "cycles.scan", "cycles.scan:result", "specfun.riemann_siegel_Z"),
    "specfun.find_zeros.Z_calls_per_zero": (
        "specfun.find_zeros", "specfun.find_zeros:result", "specfun.riemann_siegel_Z"),
}


def per_layer(traced: list, untraced: list, tracer):
    """Median over traced passes of each pass metric, and the tracing
    overhead from the median repeat of each request, traced against
    untraced; returns (values, names of metrics whose target is gone)."""
    per_pass = [pass_metrics(spans) for _, spans in traced]
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

    values["trace_overhead_frac"] = (
        sum(median_seconds([records for records, _ in traced]))
        / sum(median_seconds(untraced)) - 1.0)

    gone = set(tracer.missing)
    if tracer.rs_threshold is None:
        gone.add(f"{RS_LEAF}.rs_calls")
    missing = []
    for name in PER_LAYER:
        rests_on = _DERIVED.get(name, ())
        if any(name.startswith(t + ".") or name == t for t in gone) or gone & set(rests_on):
            missing.append(name)
            values.pop(name, None)
    return values, missing
