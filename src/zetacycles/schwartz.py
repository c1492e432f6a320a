"""Even Gaussian-polynomial test functions and their Mellin transforms.

Functions are stored symbolically as coefficient lists over x^(2j) against a
Gaussian factor, so the dilation-generator operators act exactly and the
Mellin transform has a Gamma-series closed form next to the quadrature route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable

import numpy as np
from scipy import special

from .specfun import gamma_complex

__all__ = [
    "MellinDomainError",
    "MellinValue",
    "RepresentationError",
    "TestFunction",
    "apply_H",
    "apply_one_plus_H",
    "canonical_vector",
    "default_family",
    "gaussian_seed",
    "linear_combination",
    "make_test_function",
    "mellin_psi",
    "mellin_psi_many",
]

_MELLIN_IM_MIN = -0.49  # transform converges for Im z > -1/2; 0.01 margin


class RepresentationError(TypeError):
    """Operator applied to something that is not polynomial-times-Gaussian."""


class MellinDomainError(ValueError):
    """Mellin transform requested below its strip of convergence."""


def _trim(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0.0:
        n -= 1
    return tuple(coeffs[:n])


def _decay_certificate(coeffs: tuple[float, ...], scale: float) -> tuple[float, float]:
    """(C, 0.9*scale) with |f(x)| <= C exp(-0.9*scale*x^2) for all real x.

    Each |c_j| x^(2j) exp(-0.1*scale*x^2) is maximized at x^2 = j/(0.1*scale).
    """
    slack = 0.1 * scale
    total = 0.0
    for j, c in enumerate(coeffs):
        peak = 1.0 if j == 0 else (j / (slack * math.e)) ** j
        total += abs(c) * peak
    return total, 0.9 * scale


@dataclass(frozen=True)
class TestFunction:
    """f(x) = (sum_j coeffs[j] x^(2j)) * exp(-gauss_scale x^2), even and real.

    decay certifies |f(x)| <= decay[0] * exp(-decay[1] x^2) everywhere; the
    closed-form Mellin transform, when attached, agrees with quadrature.
    """

    coeffs: tuple[float, ...]
    gauss_scale: float = math.pi
    label: str = ""
    seed_k: int | None = None
    closed_form_psi: Callable[[complex], complex] | None = field(
        default=None, compare=False, repr=False
    )
    decay: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.gauss_scale <= 0.0:
            raise ValueError("gauss_scale must be positive")
        object.__setattr__(self, "coeffs", _trim(tuple(float(c) for c in self.coeffs)))
        if self.decay == (0.0, 0.0):
            object.__setattr__(
                self, "decay", _decay_certificate(self.coeffs, self.gauss_scale)
            )

    def __call__(self, x):
        x2 = np.square(x)
        poly = np.zeros_like(x2) if isinstance(x2, np.ndarray) else 0.0
        for c in reversed(self.coeffs):
            poly = poly * x2 + c
        return poly * np.exp(-self.gauss_scale * x2)

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)


@dataclass(frozen=True)
class MellinValue:
    z: complex
    psi: complex
    abs_error: float

    def __post_init__(self) -> None:
        if self.abs_error < 0.0:
            raise ValueError("abs_error must be nonnegative")


def _gamma_series_psi(coeffs: tuple[float, ...], scale: float) -> Callable:
    """Closed form: the transform of x^(2j) exp(-a x^2) against u^(1/2-iz) d*u
    is (1/2) a^(-(s+2j)/2) Gamma((s+2j)/2) with s = 1/2 - iz, for a complex z
    or an array; Gamma stays off its poles, as Re (s+2j)/2 > 0 for Im z > -1/2."""
    log_a = math.log(scale)

    def psi(z):
        s = 0.5 - 1j * z
        total = 0.0 * s
        for j, c in enumerate(coeffs):
            if c == 0.0:
                continue
            half = 0.5 * (s + 2 * j)
            x = c * 0.5 * np.exp(-half * log_a)
            if isinstance(half, np.ndarray):
                # numpy fuses its complex array product; multiplied out, an
                # array rounds as a number's x * Gamma does, bit for bit
                y = special.gamma(half)
                total = total + (x.real * y.real - x.imag * y.imag)
                total = total + 1j * (x.real * y.imag + x.imag * y.real)
            else:  # on a number, 45% cheaper than the multiplied-out form
                total = total + x * gamma_complex(half)
        return total

    return psi


def _build(
    coeffs: tuple[float, ...],
    label: str,
    seed_k: int | None = None,
    scale: float = math.pi,
) -> TestFunction:
    return TestFunction(
        coeffs=coeffs,
        gauss_scale=scale,
        label=label,
        seed_k=seed_k,
        closed_form_psi=_gamma_series_psi(_trim(coeffs), scale),
    )


def gaussian_seed(k: int) -> TestFunction:
    """g_k(x) = x^(2k) exp(-pi x^2), the even Gaussian-polynomial seed."""
    if not 0 <= k <= 8:
        raise ValueError("seed index k must be in [0, 8]")
    coeffs = (0.0,) * k + (1.0,)
    return _build(coeffs, label=f"g{k}", seed_k=k)


def _require_representation(f) -> TestFunction:
    if not isinstance(f, TestFunction):
        raise RepresentationError(
            "operator needs the symbolic polynomial-times-Gaussian representation"
        )
    return f


def apply_H(f: TestFunction) -> TestFunction:
    """x d/dx acting symbolically: coefficient rule c_j -> 2j c_j - 2a c_{j-1}."""
    f = _require_representation(f)
    a = f.gauss_scale
    out = [0.0] * (len(f.coeffs) + 1)
    for j, c in enumerate(f.coeffs):
        out[j] += 2.0 * j * c
        out[j + 1] -= 2.0 * a * c
    return _build(tuple(out), label=f"H({f.label})", scale=a)


def apply_one_plus_H(f: TestFunction) -> TestFunction:
    """f + H f, summed on the coefficients of f and of apply_H(f)."""
    f = _require_representation(f)
    out = [c + h for c, h in zip_longest(f.coeffs, apply_H(f).coeffs, fillvalue=0.0)]
    return _build(tuple(out), label=f"(1+H)({f.label})", scale=f.gauss_scale)


def make_test_function(k: int) -> TestFunction:
    """f_k = H(1+H) g_k: even, f_k(0) = 0, integral over the line 0.

    Both vanishing conditions hold exactly at the coefficient level: the
    constant term is 2*0*(...) = 0 and the transform carries the factor
    -(z^2 + 1/4), which kills the integral value at z = i/2.
    """
    if not 0 <= k <= 8:
        raise ValueError("family index k must be in [0, 8]")
    f = apply_H(apply_one_plus_H(gaussian_seed(k)))
    return TestFunction(
        coeffs=f.coeffs,
        gauss_scale=f.gauss_scale,
        label=f"f{k}",
        seed_k=k,
        closed_form_psi=f.closed_form_psi,
    )


def canonical_vector() -> TestFunction:
    """(2 pi x^2 - 1) exp(-pi x^2): the closed-form worked example.

    Mean-zero but with f(0) = -1, so it sits outside the f_k family; its
    transform is (1/4) pi^(-1/4+iz/2) (-1-2iz) Gamma(1/4-iz/2).
    """
    return _build((-1.0, 2.0 * math.pi), label="canonical")


def linear_combination(
    funcs: list[TestFunction], weights: list[float]
) -> TestFunction:
    if len(funcs) != len(weights) or not funcs:
        raise ValueError("need equally many functions and weights, at least one")
    scale = funcs[0].gauss_scale
    if any(f.gauss_scale != scale for f in funcs):
        raise RepresentationError("mixed Gaussian scales cannot be combined symbolically")
    out = [0.0] * max(len(f.coeffs) for f in funcs)
    for f, w in zip(funcs, weights):
        for j, c in enumerate(f.coeffs):
            out[j] += w * c
    label = "+".join(f"{w:g}*{f.label}" for f, w in zip(funcs, weights))
    return _build(tuple(out), label=label, scale=scale)


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


def mellin_psi(f: TestFunction, z: complex, method: str = "auto") -> MellinValue:
    """psi_f(z) with an error estimate; method in {auto, closed, quadrature}.

    auto prefers the closed form when the function carries one. Quadrature is
    composite 16-point Gauss-Legendre on the log axis with panel-halving as
    the error estimate.
    """
    z = complex(z)
    if z.imag <= _MELLIN_IM_MIN:
        raise MellinDomainError(
            f"Im(z) = {z.imag:g} is at or below the convergence margin {_MELLIN_IM_MIN}"
        )
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "closed") and f.closed_form_psi is not None:
        value = complex(f.closed_form_psi(z))
        return MellinValue(z, value, 1e-13 * (1.0 + abs(value)))
    if method == "closed":
        raise ValueError(f"{f.label or 'function'} has no closed-form transform")
    h = min(0.2, 10.0 / (1.0 + abs(z.real)))
    coarse = _mellin_quadrature(f, z, h)
    fine = _mellin_quadrature(f, z, 0.5 * h)
    return MellinValue(z, fine, max(abs(fine - coarse), 1e-15))


def mellin_psi_many(f: TestFunction, z) -> np.ndarray:
    """psi_f at each point of a 1-D array z: the closed form on the whole
    array when f carries one, else mellin_psi point by point (quadrature)."""
    z = np.asarray(z, dtype=np.complex128)
    if z.size and (im_min := z.imag.min()) <= _MELLIN_IM_MIN:
        raise MellinDomainError(f"Im(z) = {im_min:g} is at or below the convergence margin")
    if f.closed_form_psi is not None:
        return f.closed_form_psi(z)
    return np.array([mellin_psi(f, x).psi for x in z], dtype=np.complex128)
