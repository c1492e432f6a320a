"""Global sections over the dilation base, the inverse of the two-slot
extraction map, Whitney-style jet membership at zero loci, and the Jordan
block structure of the scaling action on quotient jets.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .operators import CircleFunction, _count, _positive
from .specfun import ZetaZero, finite_difference_weights, zeta_critical_many

__all__ = [
    "GlobalSection",
    "IdealGenerator",
    "JetEntry",
    "JetWitness",
    "JordanReport",
    "UnderResolvedGridError",
    "build_section_grid",
    "circle_at",
    "gamma_inverse",
    "ideal_membership",
    "jordan_structure",
    "make_section",
    "quotient_jets",
    "read_section",
    "section_from_payload",
    "section_to_payload",
    "synthetic_generator",
    "theta_on_sections",
    "zeta_generator",
]

_TWO_PI = 2.0 * math.pi
_GRID_L_MAX = 4.0  # longest circle of the section grid
_GRID_PER_DECADE = 64  # geometric points per decade of L
_JET_EXTRA_NODES = 9  # nodes of a read; a jet through order m takes m more
_JET_SCORE_TOL = 1e-3  # a jet scoring above it witnesses non-vanishing


class UnderResolvedGridError(ValueError):
    """The sample grid cannot support the requested evaluation."""


def _as_grid(values: Sequence[float]) -> np.ndarray:
    """A finite, positive, increasing grid whose neighbours lie at least
    1e-9 relative apart, so local stencils never see near-duplicate nodes."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-D array with at least two points")
    if not np.isfinite(grid).all():
        raise ValueError("grid points must be finite")
    if grid[0] <= 0.0:
        raise ValueError("grid points must be positive")
    if np.any(np.diff(grid) < 1e-9 * grid[1:]):
        raise ValueError("grid must increase by at least 1e-9 relative per point")
    return grid


def _as_samples(values: Sequence[complex], grid: np.ndarray, name: str) -> np.ndarray:
    vals = np.asarray(values, dtype=complex)
    if vals.shape != grid.shape:
        raise ValueError(f"{name} must match the grid shape")
    if not np.isfinite(vals).all():
        raise ValueError(f"{name} must be finite")
    return vals


@dataclass(frozen=True, eq=False)
class GlobalSection:
    """Two-slot section: one complex sample per grid point and slot.

    vanishing_order_at_zero certifies |f(L)| <= C L^k near the left end of
    the grid; order >= 1 licenses extension by zero below the grid. On and
    between grid points both slots are read through one local stencil, the
    one their jets use, which at a node gives back the node's samples.
    """

    grid: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray
    vanishing_order_at_zero: int = 6

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _as_grid(self.grid))
        for name in ("f_plus", "f_minus"):
            object.__setattr__(self, name, _as_samples(getattr(self, name), self.grid, name))
        if self.vanishing_order_at_zero < 0:
            raise ValueError("vanishing_order_at_zero must be nonnegative")

    def _read(self, L: float) -> tuple[complex, complex]:
        if L < self.grid[0] * (1.0 - 1e-12):
            if self.vanishing_order_at_zero >= 1:
                return 0j, 0j
            raise UnderResolvedGridError(
                f"point {L} below grid start {self.grid[0]} and no vanishing"
                " certificate to extend by zero"
            )
        stencil = _stencil(self.grid, L, 0)
        return _jet(stencil, self.f_plus)[0], _jet(stencil, self.f_minus)[0]

    def eval_plus(self, L: float) -> complex:
        return self._read(L)[0]

    def eval_minus(self, L: float) -> complex:
        return self._read(L)[1]


def make_section(
    fn_plus: Callable[[float], complex],
    fn_minus: Callable[[float], complex],
    grid: np.ndarray,
) -> GlobalSection:
    grid = _as_grid(grid)
    plus = np.array([complex(fn_plus(L)) for L in grid])
    minus = np.array([complex(fn_minus(L)) for L in grid])
    return GlobalSection(grid, plus, minus)


def build_section_grid(t_max: float, zeros: Sequence[ZetaZero]) -> np.ndarray:
    """Geometric grid on [2 pi / t_max, _GRID_L_MAX] with exact zero loci inserted.

    Each locus L_k = 2 pi / t_k enters together with its integer multiples
    up to 4 L_k (capped at _GRID_L_MAX) so that covering comparisons stay
    on-grid. Geometric points closer than 1e-6 L to an inserted locus are
    dropped so local difference stencils never see near-duplicate nodes. The
    grid holds at least the _JET_EXTRA_NODES nodes of one read.
    """
    _positive("t_max", t_max)
    L_min, L_max = _TWO_PI / t_max, _GRID_L_MAX
    if L_min >= L_max:
        raise ValueError(f"grid range is empty; raise t_max above 2 pi / {L_max:g}")
    count = int(math.ceil(_GRID_PER_DECADE * math.log10(L_max / L_min))) + 1
    base = np.geomspace(L_min, L_max, max(count, _JET_EXTRA_NODES))
    loci = _TWO_PI / np.array([z.ordinate for z in zeros], dtype=np.float64)
    exact = np.unique(np.outer(np.arange(1, 5), loci))
    exact = exact[(L_min <= exact) & (exact <= L_max)]
    near = np.abs(base[:, None] - exact[None, :]) <= 1e-6 * exact[None, :]
    return np.unique(np.concatenate([base[~near.any(axis=1)], exact]))


def section_to_payload(section: GlobalSection) -> dict:
    return {
        "grid": [float(L) for L in section.grid],
        "f_plus": [[float(v.real), float(v.imag)] for v in section.f_plus],
        "f_minus": [[float(v.real), float(v.imag)] for v in section.f_minus],
        "vanishing_order_at_zero": int(section.vanishing_order_at_zero),
    }


def section_from_payload(payload: dict) -> GlobalSection:
    try:
        grid = np.asarray(payload["grid"], dtype=float)
        plus = np.array([complex(re, im) for re, im in payload["f_plus"]])
        minus = np.array([complex(re, im) for re, im in payload["f_minus"]])
        order = payload.get("vanishing_order_at_zero", 0)
        if isinstance(order, bool) or not isinstance(order, int):
            raise TypeError(f"vanishing_order_at_zero must be an integer, got {order!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed section payload: {exc}") from exc
    return GlobalSection(grid, plus, minus, order)


def read_section(path: str | Path) -> GlobalSection:
    return section_from_payload(json.loads(Path(path).read_text()))


def circle_at(section: GlobalSection, L: float, N: int) -> CircleFunction:
    """Reconstruct the circle function at perimeter L from the two slots.

    Coefficient rule: c_n = |n|^{-1/2} f_{sign n}(L / |n|), c_0 = 0.
    """
    L = _positive("circle length L", L)
    _count("mode count N", N)
    w = 1.0 / np.sqrt(np.arange(1, N + 1))
    plus, minus = np.array([section._read(L / n) for n in range(1, N + 1)]).T
    return CircleFunction(L, np.concatenate([(w * minus)[::-1], [0.0], w * plus]))


def gamma_inverse(section: GlobalSection, N: int) -> list[CircleFunction]:
    """One reconstructed circle function per grid point."""
    return [circle_at(section, float(L), N) for L in section.grid]


def theta_on_sections(lam: float, section: GlobalSection) -> GlobalSection:
    """Scaling action on the two slots: f_+- (L) -> lam^(-+ 2 pi i / L) f_+- (L)."""
    _positive("lambda", lam)
    phase = np.exp(-2j * math.pi * math.log(lam) / section.grid)
    return GlobalSection(
        section.grid,
        section.f_plus * phase,
        section.f_minus * np.conj(phase),
        section.vanishing_order_at_zero,
    )


def _stencil(grid: np.ndarray, x0: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the order + _JET_EXTRA_NODES grid points nearest x0, nearest
    first, and their weights for derivatives 0..order (one row per order). A
    node at x0 comes first, where its order-0 weights are exactly (1, 0, ...)."""
    if not (grid[0] * (1.0 - 1e-12) <= x0 <= grid[-1] * (1.0 + 1e-12)):
        raise UnderResolvedGridError(f"jet point {x0} outside the grid range")
    if grid.size < (count := order + _JET_EXTRA_NODES):
        raise UnderResolvedGridError(f"only {grid.size} grid points near {x0}, need {count}")
    idx = np.argsort(np.abs(grid - x0))[:count]
    return idx, finite_difference_weights(x0, grid[idx], order)


def _jet(stencil: tuple[np.ndarray, np.ndarray], values: np.ndarray) -> list[complex]:
    """Derivatives 0..order of the sampled function at the stencil's point."""
    idx, w = stencil
    return [complex(np.dot(row, values[idx])) for row in w]


@dataclass(frozen=True)
class IdealGenerator:
    """A generator of the vanishing ideal, known through point evaluation:
    evaluator maps an array of lengths L to the generator's values there."""

    zeros: tuple[tuple[float, int], ...]
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not self.zeros:
            raise ValueError("generator must declare at least one zero")
        for L_k, m_k in self.zeros:
            _positive("zero location", L_k)
            _count("zero order", m_k)
        # order-m vanishing: no jet through m-1 scores above _JET_SCORE_TOL on
        # nodes L_k x, x = 1 + 1e-3 j, at and above L_k, so a zeta generator
        # reads t = 2 pi / L at or below its zeros; the score does not depend
        # on L_k, so one stencil at x = 1 serves every zero of an order
        orders = {m_k for _, m_k in self.zeros}
        x = 1.0 + 1e-3 * np.arange(max(orders) - 1 + _JET_EXTRA_NODES)
        nodes = np.outer([L_k for L_k, _ in self.zeros], x)
        samples = np.asarray(self.evaluator(nodes.ravel())).reshape(nodes.shape)
        stencils = {m: _stencil(x, 1.0, m - 1) for m in orders}
        for (L_k, m_k), y in zip(self.zeros, samples):
            if _witnesses(x, y, 1.0, stencils[m_k]):
                raise ValueError(f"evaluator does not vanish to order {m_k} at {L_k}")


def zeta_generator(sign: int, zeros: Sequence[ZetaZero]) -> IdealGenerator:
    """zeta_+ (sign +1) evaluates zeta(1/2 - 2 pi i / L), zeta_- the conjugate."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not zeros:
        raise ValueError("zeta generator needs at least one cached zero")
    locs = tuple((_TWO_PI / z.ordinate, z.multiplicity) for z in zeros)

    def evaluator(L):
        """zeta at t = -sign 2 pi / L, for an array of L (or one float L)."""
        t = -sign * _TWO_PI / np.asarray(L, dtype=np.float64)
        return zeta_critical_many(t.reshape(-1))[0].reshape(t.shape)[()]

    return IdealGenerator(zeros=locs, evaluator=evaluator)


def synthetic_generator(L0: float, order: int = 2) -> IdealGenerator:
    """(L - L0)^order (1 + (L - L0)^2); exercises multiplicity > 1."""
    _positive("L0", L0)
    _count("order", order)

    def evaluator(L):
        d = L - L0
        return d**order * (1.0 + d * d)

    return IdealGenerator(zeros=((L0, order),), evaluator=evaluator)


@dataclass(frozen=True)
class JetWitness:
    location: float
    order: int
    jet: complex
    score: float


def ideal_membership(
    grid: Sequence[float],
    values: Sequence[complex],
    g: IdealGenerator,
) -> tuple[bool, list[JetWitness]]:
    """Whitney-style membership of the function sampled as values on grid:
    no jet through order m_k - 1 scores above _JET_SCORE_TOL, the generator
    check's rule. The grid and samples meet the checks of GlobalSection.

    Scores are dimensionless: |jet_j| spread^j / (j! local_scale), so a
    function of order-1 magnitude that fails to vanish scores near 1 while
    genuine members score at rounding level.
    """
    grid = _as_grid(grid)
    values = _as_samples(values, grid, "values")
    witnesses = [w for L_k, m_k in g.zeros
                 for w in _witnesses(grid, values, L_k, _stencil(grid, L_k, m_k - 1))]
    return (not witnesses), witnesses


def _witnesses(
    grid: np.ndarray, values: np.ndarray, x0: float, stencil: tuple[np.ndarray, np.ndarray]
) -> list[JetWitness]:
    """The jets of values at x0, on a stencil at x0 over grid, whose score
    exceeds _JET_SCORE_TOL."""
    idx = stencil[0]
    spread = float(np.median(np.abs(grid[idx] - x0)))
    local_scale = max(float(np.max(np.abs(values[idx]))), 1e-300)
    witnesses = []
    for j, jet in enumerate(_jet(stencil, values)):
        score = abs(jet) * spread**j / (math.factorial(j) * local_scale)
        if score > _JET_SCORE_TOL:
            witnesses.append(JetWitness(x0, j, jet, score))
    return witnesses


@dataclass(frozen=True)
class JetEntry:
    ordinate: float
    location: float
    jets_plus: tuple[complex, ...]
    jets_minus: tuple[complex, ...]


def quotient_jets(section: GlobalSection, zeros: Sequence[ZetaZero]) -> tuple[JetEntry, ...]:
    """Jets of both slots at each L_k = 2 pi / t_k, through order mult - 1.

    This is the class of the section in the quotient by the closed ideal:
    members map to the zero vector, and the scaling action becomes the
    diagonal jet action computed by jordan_structure.
    """
    entries = []
    for z in zeros:
        L_k = _TWO_PI / z.ordinate
        stencil = _stencil(section.grid, L_k, z.multiplicity - 1)
        entries.append(JetEntry(z.ordinate, L_k, tuple(_jet(stencil, section.f_plus)),
                                tuple(_jet(stencil, section.f_minus))))
    return tuple(entries)


@dataclass(frozen=True)
class JordanReport:
    """ϑ(λ) on order-2 jets at a double zero, as c (I + N); c is matrix[0, 0]."""

    nilpotent: np.ndarray
    matrix: np.ndarray
    order0_residual: float
    order1_rel_error: float


def jordan_structure(
    lam: float,
    section: GlobalSection,
    g: IdealGenerator,
) -> JordanReport:
    """2x2 jet representation of ϑ(λ) at the one double zero of g.

    The matrix is c (I + N) with c = λ^{-2 pi i / L0} and N strictly lower
    triangular, N[1,0] = 2 pi i ln(λ) / L0^2. Order-0 action on the supplied
    section is compared exactly; the order-1 row is cross-checked against
    grid differences of the multiplied samples, whose accuracy is limited by
    the grid spacing against the multiplier's oscillation, so that residual
    is reported at its honest scale.
    """
    _positive("lambda", lam)
    if len(g.zeros) != 1 or g.zeros[0][1] != 2:
        raise ValueError("jordan_structure needs a generator with one double zero")
    L0 = g.zeros[0][0]

    c = cmath.exp(-2j * math.pi * math.log(lam) / L0)
    n21 = 2j * math.pi * math.log(lam) / (L0 * L0)
    N = np.array([[0.0, 0.0], [n21, 0.0]], dtype=complex)
    M = c * (np.eye(2) + N)

    # action on the section's order-2 jet at L0
    stencil = _stencil(section.grid, L0, 1)
    jets_before = _jet(stencil, section.f_plus)
    jets_after = _jet(stencil, theta_on_sections(lam, section).f_plus)
    predicted = M @ np.array(jets_before)
    scale0 = max(abs(predicted[0]), 1.0)
    order0 = abs(jets_after[0] - predicted[0]) / scale0
    scale1 = max(abs(predicted[1]), 1.0)
    order1 = abs(jets_after[1] - predicted[1]) / scale1

    return JordanReport(nilpotent=N, matrix=M, order0_residual=order0, order1_rel_error=order1)
