"""Cycle detection: row-collapse scores over circle lengths, a scan for the
lengths where a row's Z changes sign, and covering stability.

A circle length L is flagged when some Fourier row collapses. Every entry
c_n(f_j) factors as L^(-1/2) zeta(1/2 - i s_n) times a Mellin factor psi_j(s_n),
so a row collapses exactly when zeta does, and its score is |zeta| at the row
frequency s_n = 2 pi n / L, which is what the tolerance is quoted against. The
rows are the modes |n| <= floor(L t_max / 2 pi); psi is evaluated only to
reject a family whose factors all vanish at some row frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import _count, _positive
from .schwartz import TestFunction, mellin_psi, mellin_psi_many
from .specfun import (
    _GRID_BLOCK,
    VALIDATED_T_MAX,
    AccuracyError,
    ZetaZero,
    _sign_changes,
    find_zeros,
    rotate_to_Z,
    zeta_critical,
    zeta_critical_many,
)

__all__ = [
    "CycleReport",
    "Dip",
    "FamilyDegenerateError",
    "MatchedZero",
    "ScanResult",
    "covering_stability",
    "detect",
    "mode_count",
    "scan",
]

_TWO_PI = 2.0 * math.pi

# A family is degenerate only when its Mellin factors all vanish at a row
# frequency. The default family's factors are Gamma multiples, nonzero on
# all of R, merely decaying like exp(-pi s / 4); the floor sits far below
# that decay across every representable frequency.
_PSI_FLOOR = 1e-250

_SCAN_CELLS = 1 << 16  # (L, n) cells per chunk of whole rows, unless one row is longer

# Input limits, checked before any evaluation: mode_count at detect's L and
# scan's L_max (detect scores each row in one scalar call), the lengths of
# scan's grid, and its (L, n) cells, lengths x mode_count(L_max), which bound its points.
_MAX_MODES = 10**5
_MAX_LENGTHS = 10**6
_MAX_CELLS = 10**7


class FamilyDegenerateError(ValueError):
    """All Mellin factors vanish at some row frequency; scores undefined."""


def _reject_degenerate(s, psi_max) -> None:
    """Raise FamilyDegenerateError at the first frequency s whose largest
    family Mellin factor psi_max falls below _PSI_FLOOR."""
    if (low := np.asarray(psi_max) < _PSI_FLOOR).any():
        raise FamilyDegenerateError(
            f"family Mellin factors all below {_PSI_FLOOR:g} at s = {s[low.argmax()]:.6g}"
        )


@dataclass(frozen=True)
class MatchedZero:
    n: int
    s: float
    zero: ZetaZero | None
    distance: float


@dataclass(frozen=True)
class CycleReport:
    zeta_scores: dict[int, float]
    flagged: list[int]
    matched_zeros: list[MatchedZero]
    verdict: bool


@dataclass(frozen=True)
class Dip:
    L_star: float
    n: int
    s: float  # the ordinate t_k of the listed zero the dip's bracket holds
    z_residual: float  # |Z(t_k)|
    zero_index: int  # k, the index of that zero in the list scan was given
    bracket_width: float  # the width in s of the sign-change bracket


@dataclass(frozen=True)
class ScanResult:
    grid: list[tuple[float, float]]
    dips: list[Dip]
    runtime_stats: dict


def mode_count(L: float, t_max: float) -> int:
    """The largest mode N with row frequency 2 pi N / L <= t_max, that frequency
    computed as scan computes it: floor(L t_max / 2 pi), off by one where the
    rounding of either side crosses an integer. Raises ValueError when
    L t_max / 2 pi exceeds _MAX_MODES or is infinite, before math.floor."""
    modes = float(L) * t_max / _TWO_PI  # a float overflows to inf without a warning
    if not modes <= _MAX_MODES:
        raise ValueError(f"L t_max / 2 pi = {modes:.6g} modes exceeds the limit of {_MAX_MODES}")
    n = math.floor(modes)
    return next(m for m in (n + 1, n, n - 1) if _TWO_PI * m / L <= t_max)


def detect(
    L: float,
    family: list[TestFunction],
    t_max: float = 60.0,
    tol: float = 1e-4,
    zeros: list[ZetaZero] | None = None,
) -> CycleReport:
    """Decide whether the circle of length L hosts a collapsed row.

    The rows are the modes n != 0 with frequency |2 pi n / L| <= t_max; a row
    is flagged when its score |zeta(1/2 + 2 pi i n / L)| is below tol.
    """
    _positive("circle length L", L)
    if not family:
        raise ValueError("family must be nonempty")
    _positive("tol", tol)
    _positive("t_max", t_max)
    # the loop the benchmark's tracer counts: a row is one zeta_critical, one mellin_psi a member
    n_modes = mode_count(L, t_max)
    zeta_scores, frequencies, psi_max = {}, [], []
    for n in range(-n_modes, n_modes + 1):
        s = _TWO_PI * n / L
        zeta_scores[n] = abs(zeta_critical(-s))
        frequencies.append(s)
        psi_max.append(max(abs(mellin_psi(f, s)[0]) for f in family))
    _reject_degenerate(frequencies, psi_max)
    flagged = [n for n, score in zeta_scores.items() if n != 0 and score < tol]
    if flagged and zeros is None:
        zeros = find_zeros(0.0, t_max)
    matched = []
    for n in flagged:
        s = _TWO_PI * n / L
        zero = min(zeros or [], key=lambda z: abs(z.ordinate - abs(s)), default=None)
        dist = math.inf if zero is None else abs(zero.ordinate - abs(s))
        matched.append(MatchedZero(n, s, zero, dist))
    return CycleReport(zeta_scores, flagged, matched, bool(flagged))


def scan(
    L_min: float,
    L_max: float,
    step: float,
    family: list[TestFunction],
    t_max: float = 60.0,
    zeros: list[ZetaZero] | None = None,
) -> ScanResult:
    """Profile the minimum zeta-scale row score over an L-grid, and find the cycles.

    The grid steps from L_min and ends at L_max, with a shorter last step if
    need be. A dip is a sign change of Z(2 pi n / L) between neighbouring grid
    lengths in a row n. It is not refined: the one zero t_k of the sorted list
    zeros (find_zeros(0, t_max) when None) inside its bracket gives the cycle
    L* = 2 pi n / t_k, and a bracket holding two, or none below t_max, raises
    AccuracyError. The cycles are all found where one L step moves each row's
    frequency by less than the zero spacing there: a bracket may end at a
    row's last cell above t_max, where Z is evaluated (up to VALIDATED_T_MAX)
    for its sign only, outside the profile and zeta_points; listed zeros above
    t_max are dropped. The family's Mellin factors meet _PSI_FLOOR at each t_k.
    """
    for name, value in (("L_min", L_min), ("L_max", L_max), ("step", step), ("t_max", t_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not 0.0 < L_min < L_max:
        raise ValueError("need 0 < L_min < L_max")
    if not family:
        raise ValueError("family must be nonempty")
    if step <= 0.0:
        raise ValueError("step must be positive")
    steps = (L_max - L_min) / step
    if not steps + 1.0 <= _MAX_LENGTHS:  # an infinite count too, before math.floor
        raise ValueError(f"a grid of {steps + 1.0:.6g} lengths exceeds the limit of {_MAX_LENGTHS}")
    if not (cells := (steps + 1.0) * mode_count(L_max, t_max)) <= _MAX_CELLS:
        raise ValueError(f"a grid of {cells:.6g} (L, n) cells exceeds the limit of {_MAX_CELLS}")
    l_values = L_min + step * np.arange(int(math.floor(steps + 1e-9)) + 1)
    if L_max - l_values[-1] > 1e-9 * step:
        l_values = np.append(l_values, L_max)
    count = l_values.size
    if _TWO_PI / L_min > t_max:  # the frequency of row 1 falls as L grows
        raise ValueError(f"no row frequency below t_max = {t_max:g} at L = {L_min:g}")

    # |zeta| is the row score: one zeta_critical_many call per chunk of whole
    # rows n >= 1 across every length, at the pairs with 2 pi n / L <= t_max and
    # each row's edge cell; a row's brackets all lie in its chunk
    n = np.arange(1, mode_count(l_values[-1], t_max) + 1)
    rows = max(1, _SCAN_CELLS // count)
    best = np.full(count, np.inf)
    brackets = []  # (row n, low end, high end in s) of each sign change of Z
    zeta_points = zeta_blocks = edge_points = 0
    for first in range(0, n.size, rows):
        s = _TWO_PI * n[first:first + rows, None] / l_values
        pairs = s <= t_max
        # each row's last cell above t_max, for the sign of Z there (none at L_max)
        edge = np.zeros_like(pairs)
        edge[:, :-1] = ~pairs[:, :-1] & pairs[:, 1:] & (s[:, :-1] <= VALIDATED_T_MAX)
        cells = pairs | edge
        t = s[cells]
        zeta = zeta_critical_many(t)[0]
        scores = np.full(s.shape, np.inf)
        scores[pairs] = np.abs(zeta[pairs[cells]])
        best = np.minimum(best, scores.min(axis=0))
        zeta_blocks += -(-t.size // _GRID_BLOCK)
        zeta_points += int(np.count_nonzero(pairs))
        edge_points += int(np.count_nonzero(edge))

        z_rows = np.full(s.shape, np.nan)  # NaN off the pairs and edges: it brackets nothing
        z_rows[cells] = rotate_to_Z(t, zeta)
        i, j = _sign_changes(z_rows.T)  # frequency falls as L grows: s[j, i + 1] < s[j, i]
        brackets.append((n[first + j], s[j, i + 1], s[j, i]))

    # as in _sign_changes, a zero on a grid point belongs to the bracket whose
    # low end it is: each bracket holds the listed zeros in [low, high)
    rows_n, low, high = (np.concatenate(v) for v in zip(*brackets))
    zeros = find_zeros(0.0, t_max) if zeros is None else zeros
    ordinates = np.array([z.ordinate for z in zeros if z.ordinate <= t_max])
    k = np.searchsorted(ordinates, low)
    held = np.searchsorted(ordinates, high) - k
    if (bad := (held > 1) | ((held == 0) & (high <= t_max))).any():
        b = bad.argmax()
        raise AccuracyError(f"row n = {rows_n[b]}: the bracket [{low[b]:.12g}, {high[b]:.12g}]"
                            f" of Z holds {held[b]} listed zeros, not 1")
    one = held == 1
    rows_n, k, width = rows_n[one], k[one], (high - low)[one]
    # Z and the Mellin factors once at each zero the dips read
    index, back = np.unique(k, return_inverse=True)
    t_k = ordinates[index]
    residual = np.abs(rotate_to_Z(t_k, zeta_critical_many(t_k)[0]))[back]
    _reject_degenerate(t_k, np.max([np.abs(mellin_psi_many(f, t_k)) for f in family], axis=0))
    L_star = _TWO_PI * rows_n / ordinates[k]
    order = np.argsort(L_star, kind="stable")
    columns = (L_star, rows_n, ordinates[k], residual, k, width)
    dips = [Dip(*fields) for fields in zip(*(c[order].tolist() for c in columns))]
    stats = {
        "grid_points": count,
        "dips": len(dips),
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
    for k in multiples:
        _count("each of multiples", k)
    base = detect(L_star, family, t_max, tol, zeros)
    if not base.verdict:
        raise ValueError(f"detect({L_star:g}) is negative; nothing to propagate")
    return [
        base if k == 1 else detect(k * L_star, family, t_max, tol, zeros)
        for k in multiples
    ]
