"""Cycle detection: row-collapse scores over circle lengths, a scan for the
lengths where a row's Z changes sign, covering stability, and the complement
spectrum.

A circle length L is flagged when some Fourier row of the detection matrix
collapses; because every entry factors as L^(-1/2) zeta(1/2 - i s_n) times a
Mellin factor, the row score rescaled by L^(1/2) is exactly |zeta| at the row
frequency, which is what the tolerance is quoted against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .schwartz import TestFunction, mellin_psi, mellin_psi_many
from .specfun import (
    _GRID_BLOCK,
    VALIDATED_T_MAX,
    ZetaZero,
    _sign_changes,
    find_zeros,
    refine_root,
    refinement_config,
    riemann_siegel_Z,
    rotate_to_Z,
    zeta_critical,
    zeta_critical_many,
)

__all__ = [
    "CycleReport",
    "DetectionMatrix",
    "Dip",
    "EmptySpectrumError",
    "FamilyDegenerateError",
    "MatchedZero",
    "ScanResult",
    "build_matrix",
    "complement_spectrum",
    "covering_stability",
    "detect",
    "mode_count",
    "scan",
    "svd_dip_score",
]

_TWO_PI = 2.0 * math.pi

# A family is degenerate only when its Mellin factors all vanish at a row
# frequency. The default family's factors are Gamma multiples, nonzero on
# all of R, merely decaying like exp(-pi s / 4); the floor sits far below
# that decay across every representable frequency.
_PSI_FLOOR = 1e-250

_SCAN_CELLS = 1 << 16  # (L, n) cells per scan chunk: about 0.5 MB per work array


class FamilyDegenerateError(ValueError):
    """All Mellin factors vanish at some row frequency; scores undefined."""


class EmptySpectrumError(ValueError):
    """Complement spectrum requested from a negative-verdict report."""


@dataclass(frozen=True)
class DetectionMatrix:
    """entries[i, j] = c_n(f_j) with n = i - N running over [-N, N]."""

    L: float
    N: int
    entries: np.ndarray

    def row(self, n: int) -> np.ndarray:
        return self.entries[n + self.N]


@dataclass(frozen=True)
class MatchedZero:
    n: int
    s: float
    zero: ZetaZero | None
    distance: float


@dataclass(frozen=True)
class CycleReport:
    L: float
    row_scores: dict[int, float]
    zeta_scores: dict[int, float]
    flagged: list[int]
    matched_zeros: list[MatchedZero]
    verdict: bool
    tol: float
    t_max: float


@dataclass(frozen=True)
class Dip:
    L_star: float
    n: int
    s: float
    z_residual: float


@dataclass(frozen=True)
class ScanResult:
    grid: list[tuple[float, float]]
    dips: list[Dip]
    runtime_stats: dict


def mode_count(L: float, t_max: float) -> int:
    """Modes covering (0, t_max] at frequencies 2 pi n / L, plus up to 8 padding
    rows as far as they stay within the validated range."""
    covering = math.floor(L * t_max / _TWO_PI)
    padded = math.ceil(L * t_max / _TWO_PI) + 8
    return max(covering, min(padded, math.floor(L * VALIDATED_T_MAX / _TWO_PI)))


def _row_data(
    L: float, family: list[TestFunction], t_max: float
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Detection matrix and per-row Mellin maxima for all |n| <= N."""
    n_modes = mode_count(L, t_max)
    rows = 2 * n_modes + 1
    entries = np.zeros((rows, len(family)), dtype=np.complex128)
    psi_max = np.zeros(rows)
    scale = L ** -0.5
    for i, n in enumerate(range(-n_modes, n_modes + 1)):
        s = _TWO_PI * n / L
        zeta_factor = zeta_critical(-s)
        psi_vals = np.array([mellin_psi(f, s).psi for f in family])
        entries[i] = scale * zeta_factor * psi_vals
        psi_max[i] = float(np.max(np.abs(psi_vals)))
        if psi_max[i] < _PSI_FLOOR:
            raise FamilyDegenerateError(
                f"family Mellin factors all below {_PSI_FLOOR:g} at s = {s:.6g}"
            )
    raw = np.max(np.abs(entries), axis=1) / psi_max
    return n_modes, entries, raw, raw * math.sqrt(L)


def _nearest_zero(s: float, zeros: list[ZetaZero]) -> tuple[ZetaZero | None, float]:
    if not zeros:
        return None, math.inf
    best = min(zeros, key=lambda z: abs(z.ordinate - abs(s)))
    return best, abs(best.ordinate - abs(s))


def detect(
    L: float,
    family: list[TestFunction],
    t_max: float = 60.0,
    tol: float = 1e-4,
    zeros: list[ZetaZero] | None = None,
) -> CycleReport:
    """Decide whether the circle of length L hosts a collapsed row.

    The verdict considers rows with n != 0 and frequency |2 pi n / L| within
    (0, t_max]; the tolerance applies to the zeta-scale score L^(1/2) r_n.
    """
    if L <= 0.0:
        raise ValueError("circle length L must be positive")
    if not family:
        raise ValueError("family must be nonempty")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n_modes, _, raw, zscores = _row_data(L, family, t_max)
    modes = range(-n_modes, n_modes + 1)
    row_scores = dict(zip(modes, raw.tolist()))
    zeta_scores = dict(zip(modes, zscores.tolist()))
    flagged = [
        n for n, score in zeta_scores.items()
        if n != 0 and abs(_TWO_PI * n / L) <= t_max and score < tol
    ]
    if flagged and zeros is None:
        zeros = find_zeros(0.0, t_max)
    matched = []
    for n in flagged:
        s = _TWO_PI * n / L
        zero, dist = _nearest_zero(s, zeros or [])
        matched.append(MatchedZero(n, s, zero, dist))
    return CycleReport(
        L=L,
        row_scores=row_scores,
        zeta_scores=zeta_scores,
        flagged=flagged,
        matched_zeros=matched,
        verdict=bool(flagged),
        tol=tol,
        t_max=t_max,
    )


def scan(
    L_min: float,
    L_max: float,
    step: float,
    family: list[TestFunction],
    t_max: float = 60.0,
) -> ScanResult:
    """Profile the minimum zeta-scale row score over an L-grid, and find the cycles.

    The grid steps from L_min and ends at L_max, with a shorter last step if
    need be. A dip is a sign change of Z(2 pi n / L) between neighbouring grid
    lengths, both with 2 pi n / L <= t_max, in a row n; it is refined to a
    root s* of Z, and L* = 2 pi n / s*. The cycles L = 2 pi n / t_k are all
    found where one L step moves each row's frequency by less than the zero
    spacing there: a bracket may end at a row's last cell above t_max, where Z
    is evaluated (up to VALIDATED_T_MAX) for its sign only, outside the profile
    and zeta_points; a root above t_max is dropped. Profile and refinement
    share one policy, refinement_config(t_max).
    """
    if not 0.0 < L_min < L_max:
        raise ValueError("need 0 < L_min < L_max")
    if step <= 0.0:
        raise ValueError("step must be positive")
    started = time.perf_counter()
    l_values = L_min + step * np.arange(int(math.floor((L_max - L_min) / step + 1e-9)) + 1)
    if L_max - l_values[-1] > 1e-9 * step:
        l_values = np.append(l_values, L_max)
    count = l_values.size
    if _TWO_PI / L_min > t_max:  # the frequency of row 1 falls as L grows
        raise ValueError(f"no row frequency below t_max = {t_max:g} at L = {L_min:g}")
    cfg = refinement_config(t_max)
    z = partial(riemann_siegel_Z, cfg=cfg)

    # |zeta| is the row score: one zeta_critical_many call per chunk of at most
    # _SCAN_CELLS (L, n >= 1) cells, at the pairs with 2 pi n / L <= t_max
    n = np.arange(1, math.floor(l_values[-1] * t_max / _TWO_PI) + 2)
    rows = max(1, _SCAN_CELLS // n.size)
    best = np.empty(count)
    l_next = np.append(l_values[1:], l_values[-1])
    s_last = z_last = np.empty((0, n.size))  # the previous chunk's last length
    dips: list[Dip] = []
    zeta_points = zeta_blocks = edge_points = 0
    for first in range(0, count, rows):
        chunk = slice(first, first + rows)
        s = _TWO_PI * n / l_values[chunk, None]
        pairs = s <= t_max
        # each row's last cell above t_max, for the sign of Z there (none at L_max)
        s_next = _TWO_PI * n / l_next[chunk, None]
        edge = ~pairs & (s_next <= t_max) & (s <= VALIDATED_T_MAX)
        t = s[pairs]
        zeta = zeta_critical_many(t, cfg)[0]
        scores = np.full(s.shape, np.inf)
        scores[pairs] = np.abs(zeta)
        psi_max = np.max([np.abs(mellin_psi_many(f, t)) for f in family], axis=0)
        if (low := psi_max < _PSI_FLOOR).any():
            raise FamilyDegenerateError(
                f"family Mellin factors all below {_PSI_FLOOR:g} at s = {t[low.argmax()]:.6g}"
            )
        best[chunk] = scores.min(axis=1)
        zeta_points += t.size
        zeta_blocks += -(-int(np.count_nonzero(t < cfg.rs_threshold)) // _GRID_BLOCK)

        z_rows = np.full(s.shape, np.nan)  # NaN off the pairs and edges: it brackets nothing
        z_rows[pairs] = rotate_to_Z(t, zeta)
        z_rows[edge] = rotate_to_Z(s[edge], zeta_critical_many(s[edge], cfg)[0])
        edge_points += int(np.count_nonzero(edge))
        s, z_rows = np.vstack([s_last, s]), np.vstack([z_last, z_rows])
        for i, j in zip(*_sign_changes(z_rows)):
            # frequency falls as L grows, so the bracket's ends swap
            s_star, z_star, _, _ = refine_root(
                z, float(s[i + 1, j]), float(z_rows[i + 1, j]), float(s[i, j]), float(z_rows[i, j])
            )
            if s_star <= t_max:
                dips.append(Dip(_TWO_PI * int(n[j]) / s_star, int(n[j]), s_star, abs(z_star)))
        s_last, z_last = s[-1:], z_rows[-1:]

    dips.sort(key=lambda d: d.L_star)
    stats = {
        "grid_points": count,
        "dips_refined": len(dips),
        "seconds": time.perf_counter() - started,
        "zeta_points": zeta_points,
        "zeta_blocks": zeta_blocks,
        "edge_points": edge_points,
    }
    return ScanResult(list(zip(l_values.tolist(), best.tolist())), dips, stats)


def covering_stability(
    L_star: float,
    multiples: list[int],
    family: list[TestFunction],
    t_max: float = 60.0,
    tol: float = 1e-4,
    zeros: list[ZetaZero] | None = None,
) -> list[CycleReport]:
    """detect at k * L_star for each k; the base length must already verify."""
    base = detect(L_star, family, t_max, tol, zeros)
    if not base.verdict:
        raise ValueError(f"detect({L_star:g}) is negative; nothing to propagate")
    return [
        base if k == 1 else detect(k * L_star, family, t_max, tol, zeros)
        for k in multiples
    ]


def complement_spectrum(report: CycleReport) -> list[float]:
    """Frequencies 2 pi n / L of the flagged rows, both signs, sorted."""
    if not report.verdict:
        raise EmptySpectrumError(f"no flagged rows at L = {report.L:g}")
    return sorted(_TWO_PI * n / report.L for n in report.flagged)


def svd_dip_score(matrix: DetectionMatrix) -> float:
    """Smallest singular value of the column-normalized detection matrix.

    A coarse cross-check of the row-score analysis: the dominant n = 0 row
    keeps the columns nearly parallel, the small angle between them is
    carried by the +-1 rows, and when those collapse the singular value dips
    sharply. It cannot separate closure from small angles; the row score can.
    """
    if matrix.N > 64:
        raise ValueError("SVD cross-check is restricted to N <= 64")
    norms = np.linalg.norm(matrix.entries, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("zero column in detection matrix")
    return float(np.linalg.svd(matrix.entries / norms, compute_uv=False)[-1])


def build_matrix(L: float, family: list[TestFunction], t_max: float = 60.0) -> DetectionMatrix:
    n_modes, entries, _, _ = _row_data(L, family, t_max)
    return DetectionMatrix(L=L, N=n_modes, entries=entries)
