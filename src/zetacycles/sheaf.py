"""Global sections over the dilation base, the inverse of the two-slot
extraction map, Whitney-style jet membership at zero loci, and the Jordan
block structure of the scaling action on quotient jets.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .operators import CircleFunction
from .specfun import ZetaZero, finite_difference_weights, zeta_critical

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

__all__ = [
    "GlobalSection",
    "IdealGenerator",
    "JetEntry",
    "JetVector",
    "JetWitness",
    "JordanReport",
    "SampledFunction",
    "UnderResolvedGridError",
    "build_section_grid",
    "circle_at",
    "gamma_inverse",
    "ideal_membership",
    "jets_to_rows",
    "jordan_structure",
    "make_section",
    "quotient_jets",
    "section_from_payload",
    "section_to_payload",
    "synthetic_generator",
    "theta_on_sections",
    "vanishing_certificate",
    "write_jet_csv",
    "zeta_generator",
]

_TWO_PI = 2.0 * math.pi
_MIN_GRID_POINTS = 8
_GRID_L_MAX = 4.0  # longest circle of the section grid
_GRID_PER_DECADE = 64  # geometric points per decade of L
_JET_EXTRA_NODES = 9


class UnderResolvedGridError(ValueError):
    """The sample grid cannot support the requested evaluation."""


def _as_grid(values: Sequence[float]) -> np.ndarray:
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-D array with at least two points")
    if grid[0] <= 0.0:
        raise ValueError("grid points must be positive")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    return grid


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples of a smooth function on an increasing positive grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _as_grid(self.grid))
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ValueError("values must match the grid shape")
        object.__setattr__(self, "values", vals)

    @cached_property
    def _spline(self) -> CubicSpline:
        from scipy.interpolate import CubicSpline  # loaded on first use: ~20 MB resident
        return CubicSpline(self.grid, self.values)

    def __call__(self, L: float) -> complex:
        if L < self.grid[0] * (1.0 - 1e-12) or L > self.grid[-1] * (1.0 + 1e-12):
            raise UnderResolvedGridError(
                f"point {L} outside sampled range [{self.grid[0]}, {self.grid[-1]}]"
            )
        return complex(self._spline(L))


@dataclass(frozen=True, eq=False)
class GlobalSection:
    """Two-slot section: one complex sample per grid point and slot.

    vanishing_order_at_zero certifies |f(L)| <= C L^k near the left end of
    the grid; order >= 1 licenses extension by zero below the grid.
    """

    grid: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray
    vanishing_order_at_zero: int = 6

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _as_grid(self.grid))
        for name in ("f_plus", "f_minus"):
            vals = np.asarray(getattr(self, name), dtype=complex)
            if vals.shape != self.grid.shape:
                raise ValueError(f"{name} must match the grid shape")
            object.__setattr__(self, name, vals)
        if self.vanishing_order_at_zero < 0:
            raise ValueError("vanishing_order_at_zero must be nonnegative")

    @cached_property
    def _splines(self) -> tuple[CubicSpline, CubicSpline]:
        from scipy.interpolate import CubicSpline  # loaded on first use: ~20 MB resident
        return (CubicSpline(self.grid, self.f_plus),
                CubicSpline(self.grid, self.f_minus))

    def _eval(self, slot: int, L: float) -> complex:
        if L > self.grid[-1] * (1.0 + 1e-12):
            raise UnderResolvedGridError(
                f"point {L} above sampled range end {self.grid[-1]}"
            )
        if L < self.grid[0] * (1.0 - 1e-12):
            if self.vanishing_order_at_zero >= 1:
                return 0.0 + 0.0j
            raise UnderResolvedGridError(
                f"point {L} below grid start {self.grid[0]} and no vanishing"
                " certificate to extend by zero"
            )
        return complex(self._splines[slot](L))

    def eval_plus(self, L: float) -> complex:
        return self._eval(0, L)

    def eval_minus(self, L: float) -> complex:
        return self._eval(1, L)


def make_section(
    fn_plus: Callable[[float], complex],
    fn_minus: Callable[[float], complex],
    grid: np.ndarray,
    vanishing_order_at_zero: int = 6,
) -> GlobalSection:
    grid = _as_grid(grid)
    plus = np.array([complex(fn_plus(L)) for L in grid])
    minus = np.array([complex(fn_minus(L)) for L in grid])
    return GlobalSection(grid, plus, minus, vanishing_order_at_zero)


def build_section_grid(t_max: float, zeros: Sequence[ZetaZero]) -> np.ndarray:
    """Geometric grid on [2 pi / t_max, _GRID_L_MAX] with exact zero loci inserted.

    Each locus L_k = 2 pi / t_k enters together with its integer multiples
    up to 4 L_k (capped at _GRID_L_MAX) so that covering comparisons stay
    on-grid. Geometric points closer than 1e-6 L to an inserted locus are
    dropped so local difference stencils never see near-duplicate nodes.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    L_min, L_max = _TWO_PI / t_max, _GRID_L_MAX
    if L_min >= L_max:
        raise ValueError(f"grid range is empty; raise t_max above 2 pi / {L_max:g}")
    count = int(math.ceil(_GRID_PER_DECADE * math.log10(L_max / L_min))) + 1
    base = np.geomspace(L_min, L_max, max(count, _MIN_GRID_POINTS))
    exact: list[float] = []
    for z in zeros:
        L_k = _TWO_PI / z.ordinate
        for k in range(1, 5):
            point = k * L_k
            if L_min <= point <= L_max:
                exact.append(point)
    exact_arr = np.array(sorted(set(exact)))
    if exact_arr.size:
        keep = np.ones(base.size, dtype=bool)
        for point in exact_arr:
            keep &= np.abs(base - point) > 1e-6 * point
        base = base[keep]
    grid = np.unique(np.concatenate([base, exact_arr]))
    return grid


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
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed section payload: {exc}") from exc
    order = int(payload.get("vanishing_order_at_zero", 0))
    return GlobalSection(grid, plus, minus, order)


def write_section(path: str | Path, section: GlobalSection) -> None:
    Path(path).write_text(json.dumps(section_to_payload(section), indent=1))


def read_section(path: str | Path) -> GlobalSection:
    return section_from_payload(json.loads(Path(path).read_text()))


def circle_at(section: GlobalSection, L: float, N: int) -> CircleFunction:
    """Reconstruct the circle function at perimeter L from the two slots.

    Coefficient rule: c_n = |n|^{-1/2} f_{sign n}(L / |n|), c_0 = 0.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    coeffs: dict[int, complex] = {}
    for n in range(1, N + 1):
        w = 1.0 / math.sqrt(n)
        point = L / n
        plus = w * section.eval_plus(point)
        minus = w * section.eval_minus(point)
        if plus != 0.0:
            coeffs[n] = plus
        if minus != 0.0:
            coeffs[-n] = minus
    return CircleFunction(L=L, coeffs=coeffs, N=N)


def gamma_inverse(section: GlobalSection, N: int) -> list[CircleFunction]:
    """One reconstructed circle function per grid point."""
    if section.grid.size < _MIN_GRID_POINTS:
        raise UnderResolvedGridError(
            f"need at least {_MIN_GRID_POINTS} grid points, got {section.grid.size}"
        )
    return [circle_at(section, float(L), N) for L in section.grid]


def theta_on_sections(lam: float, section: GlobalSection) -> GlobalSection:
    """Scaling action on the two slots: f_+- (L) -> lam^(-+ 2 pi i / L) f_+- (L)."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    phase = np.exp(-2j * math.pi * math.log(lam) / section.grid)
    return GlobalSection(
        section.grid,
        section.f_plus * phase,
        section.f_minus * np.conj(phase),
        section.vanishing_order_at_zero,
    )


def _local_nodes(grid: np.ndarray, x0: float, count: int) -> np.ndarray:
    """Ascending indices of the count grid points nearest x0, skipping any
    point within 1e-9 relative of one already chosen."""
    points, chosen = grid.tolist(), []
    for idx in np.argsort(np.abs(grid - x0)).tolist():
        x = points[idx]
        if any(abs(x - points[i]) < 1e-9 * max(abs(x), 1e-300) for i in chosen):
            continue
        chosen.append(idx)
        if len(chosen) == count:
            break
    if len(chosen) < count:
        raise UnderResolvedGridError(
            f"only {len(chosen)} usable nodes near {x0}, need {count}"
        )
    return np.sort(chosen)


def _jet(grid: np.ndarray, values: np.ndarray, x0: float, order: int) -> list[complex]:
    """Derivatives 0..order of the sampled function at x0 via local stencils."""
    if not (grid[0] * (1.0 - 1e-12) <= x0 <= grid[-1] * (1.0 + 1e-12)):
        raise UnderResolvedGridError(f"jet point {x0} outside the grid range")
    idx = _local_nodes(grid, x0, order + _JET_EXTRA_NODES)
    w = finite_difference_weights(x0, grid[idx], order)
    return [complex(np.dot(w[k], values[idx])) for k in range(order + 1)]


@dataclass(frozen=True)
class IdealGenerator:
    """A generator of the vanishing ideal, known through point evaluation."""

    kind: str
    zeros: tuple[tuple[float, int], ...]
    evaluator: Callable[[float], complex]

    def __post_init__(self) -> None:
        if self.kind not in ("zeta_plus", "zeta_minus", "synthetic"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not self.zeros:
            raise ValueError("generator must declare at least one zero")
        for L_k, m_k in self.zeros:
            if L_k <= 0.0 or m_k < 1:
                raise ValueError("zeros must be (positive location, order >= 1)")
        self._check_vanishing()

    def _check_vanishing(self) -> None:
        # small centered stencil per declared zero; order-m vanishing means
        # jets through m-1 are negligible against the local function scale
        for L_k, m_k in self.zeros:
            h = 1e-3 * L_k
            nodes = L_k + h * np.arange(-(m_k + 2), m_k + 3)
            samples = np.array([self.evaluator(float(x)) for x in nodes])
            scale = max(float(np.max(np.abs(samples))), 1e-300)
            w = finite_difference_weights(L_k, nodes, m_k - 1)
            for j in range(m_k):
                jet = complex(np.dot(w[j], samples))
                if abs(jet) * h**j / math.factorial(j) > 1e-3 * scale:
                    raise ValueError(
                        f"evaluator does not vanish to order {m_k} at {L_k}"
                    )


def zeta_generator(sign: int, zeros: Sequence[ZetaZero]) -> IdealGenerator:
    """zeta_+ (sign +1) evaluates zeta(1/2 - 2 pi i / L), zeta_- the conjugate."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not zeros:
        raise ValueError("zeta generator needs at least one cached zero")
    locs = tuple((_TWO_PI / z.ordinate, z.multiplicity) for z in zeros)

    def evaluator(L: float) -> complex:
        return zeta_critical(-sign * _TWO_PI / L)

    kind = "zeta_plus" if sign == 1 else "zeta_minus"
    return IdealGenerator(kind=kind, zeros=locs, evaluator=evaluator)


def synthetic_generator(
    L0: float,
    order: int = 2,
    amplitude: float = 1.0,
) -> IdealGenerator:
    """(L - L0)^order (1 + (L - L0)^2), scaled; exercises multiplicity > 1."""
    if L0 <= 0.0:
        raise ValueError("L0 must be positive")
    if order < 1:
        raise ValueError("order must be at least 1")

    def evaluator(L: float) -> complex:
        d = L - L0
        return amplitude * d**order * (1.0 + d * d)

    return IdealGenerator(kind="synthetic", zeros=((L0, order),), evaluator=evaluator)


@dataclass(frozen=True)
class JetWitness:
    location: float
    order: int
    jet: complex
    score: float


def ideal_membership(
    f: SampledFunction,
    g: IdealGenerator,
    tol: float = 1e-3,
) -> tuple[bool, list[JetWitness]]:
    """Whitney-style membership: jets of f through order m_k - 1 vanish.

    Scores are dimensionless: |jet_j| spread^j / (j! local_scale), so a
    function of order-1 magnitude that fails to vanish scores near 1 while
    genuine members score at rounding level.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    witnesses: list[JetWitness] = []
    for L_k, m_k in g.zeros:
        idx = _local_nodes(f.grid, L_k, (m_k - 1) + _JET_EXTRA_NODES)
        spread = float(np.median(np.abs(f.grid[idx] - L_k)))
        local_scale = max(float(np.max(np.abs(f.values[idx]))), 1e-300)
        jets = _jet(f.grid, f.values, L_k, m_k - 1)
        for j, jet in enumerate(jets):
            score = abs(jet) * spread**j / (math.factorial(j) * local_scale)
            if score > tol:
                witnesses.append(JetWitness(L_k, j, jet, score))
    return (not witnesses), witnesses


@dataclass(frozen=True)
class JetEntry:
    ordinate: float
    location: float
    jets_plus: tuple[complex, ...]
    jets_minus: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.jets_plus) != len(self.jets_minus) or not self.jets_plus:
            raise ValueError("jet slots must be nonempty and equally long")


@dataclass(frozen=True)
class JetVector:
    entries: tuple[JetEntry, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def max_abs(self) -> float:
        vals = [abs(v) for e in self.entries for v in e.jets_plus + e.jets_minus]
        return max(vals) if vals else 0.0


def quotient_jets(section: GlobalSection, zeros: Sequence[ZetaZero]) -> JetVector:
    """Jets of both slots at each L_k = 2 pi / t_k, through order mult - 1.

    This is the class of the section in the quotient by the closed ideal:
    members map to the zero vector, and the scaling action becomes the
    diagonal jet action computed by jordan_structure.
    """
    entries = []
    for z in zeros:
        L_k = _TWO_PI / z.ordinate
        order = z.multiplicity - 1
        jp = tuple(_jet(section.grid, section.f_plus, L_k, order))
        jm = tuple(_jet(section.grid, section.f_minus, L_k, order))
        entries.append(JetEntry(z.ordinate, L_k, jp, jm))
    return JetVector(tuple(entries))


def jets_to_rows(jets: JetVector) -> list[tuple[float, float, str, int, float, float]]:
    rows = []
    for e in jets.entries:
        for slot, values in (("plus", e.jets_plus), ("minus", e.jets_minus)):
            for order, v in enumerate(values):
                rows.append((e.ordinate, e.location, slot, order, v.real, v.imag))
    return rows


def write_jet_csv(path: str | Path, jets: JetVector) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_k", "L_k", "slot", "order", "jet_re", "jet_im"])
        for t_k, L_k, slot, order, re, im in jets_to_rows(jets):
            writer.writerow(
                [f"{t_k:.14f}", f"{L_k:.14f}", slot, order, f"{re:.16e}", f"{im:.16e}"]
            )


def vanishing_certificate(section: GlobalSection) -> tuple[float, bool]:
    """Fit C on the upper half of the lowest grid decade, test the lower half.

    Returns (C, ok) where ok means |f_(+-)(L)| <= 2 C L^order holds down to
    the grid start. A section with order 0 certifies trivially.
    """
    k = section.vanishing_order_at_zero
    grid = section.grid
    decade_end = grid[0] * 10.0
    mask = grid <= decade_end
    if np.count_nonzero(mask) < 4:
        return (math.inf, True)
    pts = grid[mask]
    mags = np.maximum(np.abs(section.f_plus[mask]), np.abs(section.f_minus[mask]))
    split = pts[0] * math.sqrt(10.0)
    upper = pts >= split
    lower = ~upper
    if not upper.any() or not lower.any():
        return (math.inf, True)
    C = float(np.max(mags[upper] / pts[upper] ** k))
    ok = bool(np.all(mags[lower] <= 2.0 * C * pts[lower] ** k + 1e-300))
    return (C, ok)


@dataclass(frozen=True)
class JordanReport:
    """ϑ(λ) on order-2 jets at a synthetic double zero, as c (I + N)."""

    L0: float
    lam: float
    multiplier: complex
    nilpotent: np.ndarray
    matrix: np.ndarray
    fd_rel_error: float
    order0_residual: float
    order1_rel_error: float
    cocycle_residual: float
    nilpotent_sq_max: float


def _theta_multiplier(lam: float, L: float) -> complex:
    return cmath.exp(-2j * math.pi * math.log(lam) / L)


def jordan_structure(
    lam: float,
    section: GlobalSection,
    g: IdealGenerator,
) -> JordanReport:
    """2x2 jet representation of ϑ(λ) at the double zero of a synthetic g.

    The matrix is c (I + N) with c = λ^{-2 pi i / L0} and N strictly lower
    triangular, N[1,0] = 2 pi i ln(λ) / L0^2. N² = 0 holds exactly; the
    cocycle law (I+N(u))(I+N(v)) = I+N(uv) at (2,3) and the entry's
    finite-difference cross-check are verified numerically. Order-0 action
    on the supplied section is compared exactly; the order-1 row is
    cross-checked against grid differences of the multiplied samples, whose
    accuracy is limited by the grid spacing against the multiplier's
    oscillation, so that residual is reported at its honest scale.
    """
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if g.kind != "synthetic" or len(g.zeros) != 1 or g.zeros[0][1] != 2:
        raise ValueError("jordan_structure needs a synthetic double zero")
    L0 = g.zeros[0][0]

    c = _theta_multiplier(lam, L0)
    n21 = 2j * math.pi * math.log(lam) / (L0 * L0)
    N = np.array([[0.0, 0.0], [n21, 0.0]], dtype=complex)
    M = c * (np.eye(2) + N)

    # derivative of the multiplier two ways: symbolic c * n21 vs five-point
    # differences with a step independent of the section grid; the step
    # scales with L0^2 because the multiplier oscillates on that scale
    h = 5e-4 * L0 * L0
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    fd = sum(
        w * _theta_multiplier(lam, L0 + dx) for w, dx in zip(stencil, offsets)
    )
    sym = c * n21
    denom = max(abs(sym), 1e-300)
    fd_rel = abs(fd - sym) / denom if lam != 1.0 else abs(fd - sym)

    # action on the section's order-2 jet at L0
    jets_before = _jet(section.grid, section.f_plus, L0, 1)
    moved = theta_on_sections(lam, section)
    jets_after = _jet(moved.grid, moved.f_plus, L0, 1)
    predicted = M @ np.array(jets_before)
    scale0 = max(abs(predicted[0]), 1.0)
    order0 = abs(jets_after[0] - predicted[0]) / scale0
    scale1 = max(abs(predicted[1]), 1.0)
    order1 = abs(jets_after[1] - predicted[1]) / scale1

    # cocycle at (2, 3) against 6
    Nu = np.array([[0.0, 0.0], [2j * math.pi * math.log(2.0) / (L0 * L0), 0.0]])
    Nv = np.array([[0.0, 0.0], [2j * math.pi * math.log(3.0) / (L0 * L0), 0.0]])
    Nuv = np.array([[0.0, 0.0], [2j * math.pi * math.log(6.0) / (L0 * L0), 0.0]])
    lhs = (np.eye(2) + Nu) @ (np.eye(2) + Nv)
    rhs = np.eye(2) + Nuv
    cocycle = float(np.max(np.abs(lhs - rhs))) / max(float(np.max(np.abs(rhs))), 1.0)

    nsq = float(np.max(np.abs(N @ N)))
    return JordanReport(
        L0=L0,
        lam=lam,
        multiplier=c,
        nilpotent=N,
        matrix=M,
        fd_rel_error=fd_rel,
        order0_residual=order0,
        order1_rel_error=order1,
        cocycle_residual=cocycle,
        nilpotent_sq_max=nsq,
    )
