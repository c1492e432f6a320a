"""Even Gaussian-polynomial test functions and their Mellin transforms.

A test function is its coefficient list over x^(2j) against the self-dual
Gaussian exp(-pi x^2), and everything else is derived from the coefficients:
the dilation-generator operators act on them exactly, the decay certificate
is a sum over them, and the Mellin transform is one Gamma factor times a
polynomial in them (the closed form), with quadrature as the independent route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import zip_longest

import numpy as np
from scipy import special

from .specfun import gamma_complex

__all__ = [
    "MellinDomainError",
    "RepresentationError",
    "TestFunction",
    "apply_H",
    "apply_one_plus_H",
    "default_family",
    "fourier_transform",
    "gaussian_seed",
    "linear_combination",
    "make_test_function",
    "mellin_psi",
    "mellin_psi_many",
]

_MELLIN_IM_MIN = -0.49  # transform converges for Im z > -1/2; 0.01 margin
_LOG_PI = math.log(math.pi)


class RepresentationError(TypeError):
    """Operator applied to something that is not polynomial-times-Gaussian."""


class MellinDomainError(ValueError):
    """Mellin transform requested below its strip of convergence."""


def _trim(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0.0:
        n -= 1
    return tuple(coeffs[:n])


def _decay_certificate(coeffs: tuple[float, ...]) -> tuple[float, float]:
    """(C, 0.9*pi) with |f(x)| <= C exp(-0.9*pi*x^2) for all real x.

    Each |c_j| x^(2j) exp(-0.1*pi*x^2) is maximized at x^2 = j/(0.1*pi).
    """
    slack = 0.1 * math.pi
    total = 0.0
    for j, c in enumerate(coeffs):
        peak = 1.0 if j == 0 else (j / (slack * math.e)) ** j
        total += abs(c) * peak
    return total, 0.9 * math.pi


@dataclass(frozen=True)
class TestFunction:
    """f(x) = (sum_j coeffs[j] x^(2j)) * exp(-pi x^2), even and real.

    The coefficients are the whole function: the decay certificate and the
    closed-form Mellin transform are computed from them, so a copy with new
    coefficients (dataclasses.replace) carries its own.
    """

    coeffs: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trim(tuple(float(c) for c in self.coeffs)))

    @cached_property
    def decay(self) -> tuple[float, float]:
        """(C, b) with |f(x)| <= C exp(-b x^2) for all real x."""
        return _decay_certificate(self.coeffs)

    def __call__(self, x):
        x2 = np.square(x)
        poly = self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            poly = poly * x2 + c
        return poly * np.exp(-math.pi * x2)

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)


def _gamma_series_psi(coeffs: tuple[float, ...], z):
    """Closed form: the transform of x^(2j) exp(-pi x^2) against u^(1/2-iz) d*u
    is (1/2) pi^(-(a+j)) Gamma(a+j) with a = 1/4 - iz/2, so psi_f(z) is
    (1/2) pi^(-a) Gamma(a) sum_j c_j pi^(-j) (a)_j: one Gamma, and the sum by
    Horner in (a+j)/pi, for a complex z or an array. Gamma stays off its
    poles, as Re a > 0 for Im z > -1/2. numpy fuses its complex array
    products; multiplied out, an array rounds as a number does, bit for bit."""
    a = 0.25 - 0.5j * z
    if not isinstance(a, np.ndarray):
        q = coeffs[-1]
        for j in range(len(coeffs) - 2, -1, -1):
            q = coeffs[j] + q * ((a + j) / math.pi)
        return 0.5 * cmath.exp(-a * _LOG_PI) * gamma_complex(a) * q
    qr, qi = np.full(a.shape, coeffs[-1]), np.zeros(a.shape)
    for j in range(len(coeffs) - 2, -1, -1):
        wr, wi = (a.real + j) / math.pi, a.imag / math.pi
        qr, qi = coeffs[j] + (qr * wr - qi * wi), qr * wi + qi * wr
    e, g = 0.5 * np.exp(-a * _LOG_PI), special.gamma(a)
    xr, xi = e.real * g.real - e.imag * g.imag, e.real * g.imag + e.imag * g.real
    return (xr * qr - xi * qi) + 1j * (xr * qi + xi * qr)


def gaussian_seed(k: int) -> TestFunction:
    """g_k(x) = x^(2k) exp(-pi x^2), the even Gaussian-polynomial seed."""
    if not 0 <= k <= 8:
        raise ValueError("seed index k must be in [0, 8]")
    return TestFunction((0.0,) * k + (1.0,), label=f"g{k}")


def _require_representation(f) -> TestFunction:
    if not isinstance(f, TestFunction):
        raise RepresentationError(
            "operator needs the symbolic polynomial-times-Gaussian representation"
        )
    return f


def apply_H(f: TestFunction) -> TestFunction:
    """x d/dx acting symbolically: coefficient rule c_j -> 2j c_j - 2 pi c_{j-1}."""
    f = _require_representation(f)
    out = [0.0] * (len(f.coeffs) + 1)
    for j, c in enumerate(f.coeffs):
        out[j] += 2.0 * j * c
        out[j + 1] -= 2.0 * math.pi * c
    return TestFunction(tuple(out), label=f"H({f.label})")


@cache  # the rule's per-power terms, shared by every transform
def _transformed_power(j: int) -> tuple[float, tuple[float, ...]]:
    """((-1/4 pi^2)^j, the coefficients over y^(2i) of d^(2j)/dy^(2j) exp(-pi y^2)),
    whose product is the transform of x^(2j) exp(-pi x^2). One more d^2/dy^2
    takes y^(2i) exp(-pi y^2) to (2i(2i-1) y^(2i-2) - 2 pi (4i+1) y^(2i)
    + 4 pi^2 y^(2i+2)) exp(-pi y^2)."""
    if j == 0:
        return 1.0, (1.0,)
    factor, basis = _transformed_power(j - 1)
    step = [0.0] * (len(basis) + 1)
    for i, d in enumerate(basis):
        if i > 0:
            step[i - 1] += 2 * i * (2 * i - 1) * d
        step[i] -= 2.0 * math.pi * (4 * i + 1) * d
        step[i + 1] += 4.0 * math.pi * math.pi * d
    return factor / (-4.0 * math.pi * math.pi), tuple(step)


def fourier_transform(f: TestFunction) -> TestFunction:
    """fh(y) = integral of f(x) exp(-2 pi i x y) dx, by a coefficient rule:
    exp(-pi x^2) is its own transform and x^2 becomes -(1/4 pi^2) d^2/dy^2."""
    f = _require_representation(f)
    out = [0.0] * len(f.coeffs)
    for j, c in enumerate(f.coeffs):
        factor, basis = _transformed_power(j)
        for i, d in enumerate(basis):
            out[i] += c * factor * d
    return TestFunction(tuple(out), label=f"F({f.label})")


def apply_one_plus_H(f: TestFunction) -> TestFunction:
    """f + H f, summed on the coefficients of f and of apply_H(f)."""
    f = _require_representation(f)
    out = [c + h for c, h in zip_longest(f.coeffs, apply_H(f).coeffs, fillvalue=0.0)]
    return TestFunction(tuple(out), label=f"(1+H)({f.label})")


@cache  # a TestFunction is immutable, so each member is built once
def make_test_function(k: int) -> TestFunction:
    """f_k = H(1+H) g_k: even, f_k(0) = 0, integral over the line 0.

    Both vanishing conditions hold exactly at the coefficient level: the
    constant term is 2*0*(...) = 0 and the transform carries the factor
    -(z^2 + 1/4), which kills the integral value at z = i/2.
    """
    if not 0 <= k <= 8:
        raise ValueError("family index k must be in [0, 8]")
    return TestFunction(apply_H(apply_one_plus_H(gaussian_seed(k))).coeffs, label=f"f{k}")


def linear_combination(
    funcs: list[TestFunction], weights: list[float]
) -> TestFunction:
    if len(funcs) != len(weights) or not funcs:
        raise ValueError("need equally many functions and weights, at least one")
    out = [0.0] * max(len(f.coeffs) for f in funcs)
    for f, w in zip(funcs, weights):
        for j, c in enumerate(f.coeffs):
            out[j] += w * c
    label = "+".join(f"{w:g}*{f.label}" for f, w in zip(funcs, weights))
    return TestFunction(tuple(out), label=label)


def default_family() -> list[TestFunction]:
    """The detection family (f0, f1, f2); no real z annihilates all three
    transforms since each is a nonvanishing Gamma factor times -(z^2+1/4)."""
    return [make_test_function(k) for k in (0, 1, 2)]


# ---------------------------------------------------------------------------
# Mellin transform psi(z) = integral of f(u) u^(1/2 - iz) d*u over (0, inf).

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MELLIN_V_MAX = 30.0


def _mellin_quadrature(f: TestFunction, z: complex, panel_width: float) -> complex:
    # With f(0) != 0 the integrand decays only like e^{v/2} toward -inf, so
    # the window is doubled to keep the truncated tail below 1e-12.
    v_lo = -_MELLIN_V_MAX if f.coeffs[0] == 0.0 else -2.0 * _MELLIN_V_MAX
    n_panels = int(math.ceil((_MELLIN_V_MAX - v_lo) / panel_width))
    edges = np.linspace(v_lo, _MELLIN_V_MAX, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    v = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    integrand = f(np.exp(v)) * np.exp((0.5 - 1j * z) * v)
    return complex(np.sum(w * integrand))


def mellin_psi(f: TestFunction, z: complex, method: str = "closed") -> tuple[complex, float]:
    """(psi_f(z), error estimate); method in {closed, quadrature}.

    closed is one Gamma factor times a polynomial in f's coefficients. quadrature, the
    independent route, is composite 16-point Gauss-Legendre on the log axis
    with panel-halving as the error estimate.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("z must be finite")
    if z.imag <= _MELLIN_IM_MIN:
        raise MellinDomainError(
            f"Im(z) = {z.imag:g} is at or below the convergence margin {_MELLIN_IM_MIN}"
        )
    if method == "closed":
        value = complex(_gamma_series_psi(f.coeffs, z))
        return value, 1e-13 * (1.0 + abs(value))
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    h = min(0.2, 10.0 / (1.0 + abs(z.real)))
    coarse = _mellin_quadrature(f, z, h)
    fine = _mellin_quadrature(f, z, 0.5 * h)
    return fine, max(abs(fine - coarse), 1e-15)


def mellin_psi_many(f: TestFunction, z) -> np.ndarray:
    """psi_f at each point of a 1-D array z, by the closed form on the whole
    array; equal to mellin_psi's closed form point by point."""
    z = np.asarray(z, dtype=np.complex128)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    if z.size and (im_min := z.imag.min()) <= _MELLIN_IM_MIN:
        raise MellinDomainError(f"Im(z) = {im_min:g} is at or below the convergence margin")
    return _gamma_series_psi(f.coeffs, z)
