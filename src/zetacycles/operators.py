"""Lattice summation maps, the trace identity, and Fourier analysis on
multiplicative circles.

The two transform routes are deliberately independent: `fourier_closed`
multiplies critical-line zeta values against closed-form Mellin factors,
while `fourier_direct` periodizes the summation map on a log-uniform grid
and integrates numerically. Their agreement is the central cross-check of
the whole pipeline.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .schwartz import TestFunction, fourier_transform, mellin_psi_many
from .specfun import zeta_critical_many

__all__ = [
    "CircleFunction",
    "InsufficientModesError",
    "covering_sigma",
    "eval_E",
    "fourier_closed",
    "fourier_direct",
    "scaling_theta",
    "trace_identity_check",
]

_TWO_PI = 2.0 * math.pi


class InsufficientModesError(ValueError):
    """Covering map asked for more output modes than the input carries."""


def _positive(name: str, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def _count(name: str, value: int) -> None:
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class CircleFunction:
    """Truncated Fourier data on the circle of length L: the row
    c_-N, ..., c_N, with c_n at index n + N."""

    L: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", _positive("circle length L", self.L))
        row = np.array(self.coeffs, dtype=complex)
        if row.ndim != 1 or row.size < 3 or row.size % 2 == 0:
            raise ValueError("coeffs must be a 1-D row of odd length at least 3")
        object.__setattr__(self, "coeffs", row)

    @property
    def N(self) -> int:
        return self.coeffs.size // 2

    def coeff(self, n: int) -> complex:
        return complex(self.coeffs[n + self.N]) if abs(n) <= self.N else 0.0 + 0.0j


# ---------------------------------------------------------------------------
# The summation map E(f)(u) = u^(1/2) * sum_{n>=1} f(n u).

_MAX_TAIL_TERMS = 1 << 24


def eval_E(f: TestFunction, u: float, tol: float) -> tuple[float, float]:
    """Partial sum and a certified bound on its Gaussian tail.

    The cutoff M doubles until C * integral_M^inf exp(-b u^2 x^2) dx < tol,
    using the decay certificate (C, b); the returned bound is that integral
    scaled by u^(1/2), so it bounds the error of the returned value.
    """
    u = _positive("u", u)
    _positive("tol", tol)
    c_dec, b_dec = f.decay
    rb = math.sqrt(b_dec)
    prefactor = c_dec * math.sqrt(math.pi) / (2.0 * u * rb)
    m = 8
    while True:
        tail = prefactor * math.erfc(rb * u * m)
        if tail < tol:
            break
        m *= 2
        if m > _MAX_TAIL_TERMS:
            raise ValueError(f"tail tolerance {tol:g} unattainable at u = {u:g}")
    args = np.arange(1, m + 1, dtype=np.float64) * u
    value = math.sqrt(u) * float(np.sum(f(args)))
    return value, math.sqrt(u) * tail


def trace_identity_check(f: TestFunction, u: float) -> float:
    """|E(f)(u) - (u^(1/2)/2) * 2 sum f(nu)| via two disjoint summation paths.

    The second path picks its own cutoff and accumulates scalar terms with
    compensated summation; no code is shared with eval_E's vectorized sum.
    """
    u = _positive("u", u)
    if f.is_zero:
        return 0.0
    e_value, _ = eval_E(f, u, 1e-17)
    c_dec, b_dec = f.decay
    cutoff = int(math.ceil(math.sqrt(max(math.log(c_dec * 1e22), 1.0) / b_dec) / u)) + 4
    trace = 2.0 * math.fsum(float(f(n * u)) for n in range(1, cutoff + 1))
    return abs(e_value - 0.5 * math.sqrt(u) * trace)


# ---------------------------------------------------------------------------
# Closed-form Fourier coefficients: c_n = L^(-1/2) zeta(1/2 - 2 pi i n / L)
# times the Mellin factor psi_f(2 pi n / L).


def fourier_closed(f: TestFunction, L: float, N: int) -> CircleFunction:
    """c_n for |n| <= N on the array evaluators: zeta once for n >= 0, mirrored
    to n < 0 by conjugation, and psi_f on the whole row."""
    L = _positive("circle length L", L)
    _count("mode count N", N)
    s = _TWO_PI * np.arange(-N, N + 1) / L
    zeta = zeta_critical_many(-s[N:])[0]  # zeta(1/2 - i s_n), n = 0..N
    row = L ** -0.5 * np.concatenate([zeta[:0:-1].conj(), zeta]) * mellin_psi_many(f, s)
    return CircleFunction(L, row)


# ---------------------------------------------------------------------------
# Direct route: periodize E(f) over the lattice mu^Z and integrate the
# transform on a log-uniform grid.

_SPLIT_POINT = 0.5
_DROP_TOL = 1e-17  # translates and lattice terms that stay below this are left out
_MEAN_ROUNDING = 64.0 * np.finfo(np.float64).eps  # fh(0) this small, relative to its terms, is 0
_MAX_STEP = 0.05  # the grid spacing in log v stays at or below this
_MAX_SAMPLES = 10**7  # translates times grid points; a circle that needs more raises


def _gauss_edge(c: float, b: float) -> float:
    """log x above which sqrt(x) c exp(-b x^2) < _DROP_TOL: the fixed point of
    y = log((log(c / _DROP_TOL) + y/2) / b) / 2, reached to rounding from 0."""
    r, y = max(math.log(c / _DROP_TOL), 1.0), 0.0
    for _ in range(6):
        y = 0.5 * math.log((r + 0.5 * y) / b)
    return y


def _lattice_sum(g: TestFunction, v: np.ndarray) -> np.ndarray:
    """sqrt(v) sum_{n>=1} g(nv) at the points of an ascending 1-D array v > 0.

    A term g(nv) is summed only where nv <= e^edge, g's edge (_gauss_edge of
    its decay certificate), a prefix of v. The terms left out at a point each
    fall below _DROP_TOL and decay as a Gaussian in steps of v, so together
    they stay within a small multiple of _DROP_TOL for v >= 1/2.
    """
    top = math.exp(_gauss_edge(*g.decay))
    total = np.zeros_like(v)
    n = 1
    while (k := np.searchsorted(v, top / n, side="right")) > 0:
        total[:k] += g(n * v[:k])
        n += 1
    return np.sqrt(v) * total


def _eval_E_array(f: TestFunction, fh: TestFunction, v: np.ndarray) -> np.ndarray:
    """E(f) at the points of an ascending 1-D array v > 0, given f's Fourier
    transform fh with fh(0) = 0.

    Above the split the defining sum is taken; below it the Poisson form
    E_f(v) = E_fh(1/v) - v^(1/2) f(0)/2, which is the same lattice sum of fh
    at 1/v > 2 (reversed to ascending order).
    """
    split = np.searchsorted(v, _SPLIT_POINT)
    vl = v[:split]
    poisson = _lattice_sum(fh, 1.0 / vl[::-1])[::-1] - 0.5 * f.coeffs[0] * np.sqrt(vl)
    return np.concatenate([poisson, _lattice_sum(f, v[split:])])


def fourier_direct(f: TestFunction, L: float, N: int) -> CircleFunction:
    """Fourier coefficients of the periodized summation map, numerically.

    One period is sampled on a log-uniform grid of max(256, 64N, L/0.05)
    points, a step of at most 0.05 in log v (the trapezoid rule is spectrally
    accurate there), and E(f) is summed over the lattice translates mu^k only
    where log v lies in [lo, hi], outside which it stays below 1e-17: above
    hi by f's decay certificate (C, b), as sqrt(v) C exp(-b v^2) bounds it;
    below lo by that of fh = fourier_transform(f) in the Poisson form, and by
    the tail of -v^(1/2) f(0)/2, whose translates below v_lo sum to at most
    |f(0)|/2 sqrt(v_lo) / (1 - e^(-L/2)). The sum converges only for a
    mean-zero f: fh(0) at the rounding level of its terms (the transform of
    the |c_j| at 0) is set to 0, and any other value raises ValueError, as
    does a length whose translates times grid points exceed 10^7, before
    anything is allocated.
    """
    L = _positive("circle length L", L)
    _count("mode count N", N)
    grid = max(256, 64 * N, math.ceil(L / _MAX_STEP))
    if f.is_zero:
        return CircleFunction(L, np.zeros(2 * N + 1))
    fh = fourier_transform(f)
    origin_scale = fourier_transform(TestFunction(tuple(map(abs, f.coeffs)))).coeffs[0]
    if abs(fh.coeffs[0]) > _MEAN_ROUNDING * origin_scale:
        raise ValueError(f"{f.label or 'function'} is not mean-zero (integral "
                         f"{fh.coeffs[0]:.3g}); its periodization diverges")
    fh = TestFunction((0.0,) + fh.coeffs[1:])
    hi, lo = _gauss_edge(*f.decay), -_gauss_edge(*fh.decay)
    if (origin := abs(f.coeffs[0])) > 0.0:
        lo = min(lo, 2.0 * math.log(2.0 * _DROP_TOL * -math.expm1(-0.5 * L) / origin))
    first, stop = math.floor(lo / L), math.ceil(hi / L)
    if (samples := (stop - first) * grid) > _MAX_SAMPLES:
        raise ValueError(f"circle length L = {L:g} needs {samples} samples, "
                         f"more than the limit of {_MAX_SAMPLES}")
    x = (np.arange(grid, dtype=np.float64) * L) / grid
    log_v = (np.arange(first, stop, dtype=np.float64)[:, None] * L + x[None, :]).ravel()
    a, b = np.searchsorted(log_v, lo), np.searchsorted(log_v, hi, side="right")  # ascending
    xi = np.zeros_like(log_v)
    xi[a:b] = _eval_E_array(f, fh, np.exp(log_v[a:b]))
    spectrum = np.fft.fft(np.sum(xi.reshape(-1, grid), axis=0)) * (math.sqrt(L) / grid)
    return CircleFunction(L, spectrum[np.arange(-N, N + 1) % grid])


# ---------------------------------------------------------------------------
# Covering maps and the scaling action.


def covering_sigma(xi: CircleFunction, n: int) -> CircleFunction:
    """Push the circle of length n*L down to length L: out c_k = n^(1/2) c_{nk}."""
    _count("covering degree n", n)
    if n == 1:
        return xi
    out_n = xi.N // n
    if out_n < 1:
        raise InsufficientModesError(
            f"input carries N = {xi.N} modes, not enough for degree {n}"
        )
    return CircleFunction(xi.L / n, math.sqrt(n) * xi.coeffs[xi.N % n :: n])


def scaling_theta(lam: float, xi: CircleFunction) -> CircleFunction:
    """Scale by lambda: the n-th coefficient picks up lambda^(-2 pi i n / L)."""
    phase = -_TWO_PI * math.log(_positive("scaling parameter lambda", lam)) / xi.L
    return CircleFunction(xi.L, xi.coeffs * np.exp(1j * phase * np.arange(-xi.N, xi.N + 1)))
