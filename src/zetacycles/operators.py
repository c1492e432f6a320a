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

from .schwartz import TestFunction, _decay_certificate, mellin_psi_many
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
    if f.is_zero:
        return 0.0, 0.0
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


def _fourier_coeffs_of(f: TestFunction) -> tuple[np.ndarray, float]:
    """Polynomial coefficients (all parities) of the Fourier transform of f
    against exp(-pi y^2), the self-dual kernel that f's Gaussian is, and the
    sum of the |terms| that make up the constant one, fh(0).

    Multiplication by x^2 conjugates to -(1/4 pi^2) d^2/dy^2, applied per
    power of x^2 to the transformed Gaussian.
    """

    def differentiate(poly: list[float]) -> list[float]:
        out = [0.0] * (len(poly) + 1)
        for i, d in enumerate(poly):
            if i >= 1:
                out[i - 1] += i * d
            out[i + 1] -= _TWO_PI * d
        return out

    acc = [0.0] * (2 * len(f.coeffs) - 1)
    basis = [1.0]  # transform of the bare Gaussian
    factor, origin_scale = 1.0, 0.0
    for j, c in enumerate(f.coeffs):
        if j > 0:
            basis = differentiate(differentiate(basis))
            factor /= -4.0 * math.pi * math.pi
        if c != 0.0:
            for i, d in enumerate(basis):
                acc[i] += c * factor * d
            origin_scale += abs(c * factor * basis[0])
    return np.array(acc, dtype=np.float64), origin_scale


def _poly_gauss(coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    y = np.minimum(y, 40.0)  # exp(-pi y^2) is 0.0 there; the clip keeps the poly finite
    poly = np.zeros_like(y)
    for c in coeffs[::-1]:
        poly = poly * y + c
    return poly * np.exp(-math.pi * np.square(y))


_DIRECT_TERMS = 16
_POISSON_TERMS = 3
_SPLIT_POINT = 0.5
_DROP_TOL = 1e-17  # translates on which |E(f)| stays below this are left out
_MEAN_ROUNDING = 64.0 * np.finfo(np.float64).eps  # fh(0) this small, relative to its terms, is 0


def _eval_E_array(f: TestFunction, v: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """E(f) on an array of positive points, split by magnitude, for fh(0) = 0.

    Above the split the defining sum needs few terms; below it the Poisson
    resummation E(v) = v^(-1/2)(fh(0)/2 + sum_m fh(m/v)) - v^(1/2) f(0)/2
    converges immediately.
    """
    out = np.empty_like(v)
    hi = v >= _SPLIT_POINT
    vh, vl = v[hi], v[~hi]
    out[hi] = np.sqrt(vh) * sum(f(n * vh) for n in range(1, _DIRECT_TERMS + 1))
    poisson = sum(_poly_gauss(fhat, m / vl) for m in range(1, _POISSON_TERMS + 1))
    out[~hi] = poisson / np.sqrt(vl) - 0.5 * float(f(0.0)) * np.sqrt(vl)
    return out


def _gauss_edge(c: float, b: float) -> float:
    """log x above which sqrt(x) c exp(-b x^2) < _DROP_TOL: the fixed point of
    y = log((log(c / _DROP_TOL) + y/2) / b) / 2, reached to rounding from 0."""
    r, y = max(math.log(c / _DROP_TOL), 1.0), 0.0
    for _ in range(6):
        y = 0.5 * math.log((r + 0.5 * y) / b)
    return y


def fourier_direct(f: TestFunction, L: float, N: int) -> CircleFunction:
    """Fourier coefficients of the periodized summation map, numerically.

    The integrand is sampled on a log-uniform grid of max(256, 64N) points
    over one period (trapezoid rule is spectrally accurate there) after
    summing the lattice translates mu^k over the range of log v outside which
    each stays below 1e-17: above it, sqrt(v) C exp(-b v^2) bounds E(f) by f's
    decay certificate (C, b); below it, the Poisson form leaves v^(-1/2) sum_m
    fh(m/v), bounded alike by fh's certificate with v -> 1/v, and -v^(1/2)
    f(0)/2, whose translates below v_lo sum to at most |f(0)|/2 sqrt(v_lo) /
    (1 - e^(-L/2)). The sum converges only for a mean-zero f: fh(0) at the
    rounding level of its own terms is set to 0, and any other value raises a
    ValueError.
    """
    L = _positive("circle length L", L)
    _count("mode count N", N)
    grid = max(256, 64 * N)
    if f.is_zero:
        return CircleFunction(L, np.zeros(2 * N + 1))
    fhat, origin_scale = _fourier_coeffs_of(f)
    if abs(fhat[0]) > _MEAN_ROUNDING * origin_scale:
        raise ValueError(f"{f.label or 'function'} is not mean-zero (integral "
                         f"{fhat[0]:.3g}); its periodization diverges")
    fhat[0] = 0.0
    hi = _gauss_edge(*f.decay)
    lo = -_gauss_edge(*_decay_certificate(tuple(fhat[::2])))  # fh is even
    if (origin := abs(float(f(0.0)))) > 0.0:
        lo = min(lo, 2.0 * math.log(2.0 * _DROP_TOL * -math.expm1(-0.5 * L) / origin))
    x = (np.arange(grid, dtype=np.float64) * L) / grid
    shifts = np.arange(math.floor(lo / L), math.ceil(hi / L), dtype=np.float64) * L
    v = np.exp(shifts[:, None] + x[None, :])
    xi = np.sum(_eval_E_array(f, v, fhat), axis=0)
    spectrum = np.fft.fft(xi) * (math.sqrt(L) / grid)
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
