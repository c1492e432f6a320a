"""Riemann-Siegel, the tests' independent route to Z(t): main sum plus
remainder terms C0..C4 built from derivatives of
Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p).

The package evaluates zeta on Euler-Maclaurin alone; criterion 9 and
test_specfun check that kernel against this route, and this route's own
value, bound and Psi derivatives against mpmath. Its bound's remainder term
is an empirical envelope, not a derived one, which is why it lives here and
not in the package.
"""

import cmath
import math

import numpy as np

from zetacycles.specfun import siegel_theta

_TWO_PI = 2.0 * math.pi

_RS_REMAINDER_COEFF = 0.017  # empirical envelope: |R| <= 0.017 t^{-11/4}
_RS_CONTOUR_NODES = 64
_RS_CONTOUR_RADIUS = 0.4


def _psi_rs(z: complex) -> complex:
    """Psi(z), stable near the removable singularities z = 1/4 + k/2.

    Near a singular point s_k both numerator and denominator are rewritten as
    sines of O(e) arguments, so the ratio keeps full relative accuracy.
    """
    k = round((z.real - 0.25) * 2.0)
    e = z - (0.25 + 0.5 * k)
    if abs(e) < 0.15:
        sign_num = 1.0 if (k * k - k - 1) % 4 == 3 else -1.0
        sign_den = -1.0 if k % 2 == 0 else 1.0
        if e == 0:
            return complex((sign_num / sign_den) * (k - 0.5))
        num = cmath.sin(math.pi * e * (2 * k - 1 + 2 * e))
        den = cmath.sin(_TWO_PI * e)
        return (sign_num / sign_den) * num / den
    w = z * z - z - 0.0625
    return cmath.cos(_TWO_PI * w) / cmath.cos(_TWO_PI * z)


def _psi_rs_derivatives(p: float) -> list[float]:
    """Psi^(k)(p) for k = 0..12 from one trapezoid Cauchy integral.

    Nodes are rotated half a step so none lands on the real axis where the
    rewritten forms would be exercised at their own centers.
    """
    m = _RS_CONTOUR_NODES
    r = _RS_CONTOUR_RADIUS
    angles = _TWO_PI * (np.arange(m) + 0.5) / m
    rot = np.exp(1j * angles)
    samples = np.array([_psi_rs(p + r * w) for w in rot])
    out = []
    fact = 1.0
    for k in range(13):
        acc = np.sum(samples * np.exp(-1j * k * angles))
        out.append(float(fact / (m * r**k) * acc.real))  # Psi is real-analytic
        fact *= k + 1
    return out


def _rs_correction_coeffs(p: float) -> tuple[float, float, float, float, float]:
    d = _psi_rs_derivatives(p)
    pi2 = math.pi * math.pi
    pi4 = pi2 * pi2
    pi6 = pi4 * pi2
    pi8 = pi4 * pi4
    c0 = d[0]
    c1 = -d[3] / (96.0 * pi2)
    c2 = d[2] / (64.0 * pi2) + d[6] / (18432.0 * pi4)
    c3 = -d[1] / (64.0 * pi2) - d[5] / (3840.0 * pi4) - d[9] / (5308416.0 * pi6)
    c4 = (
        d[0] / (128.0 * pi2)
        + 19.0 * d[4] / (24576.0 * pi4)
        + 11.0 * d[8] / (5898240.0 * pi6)
        + d[12] / (2038431744.0 * pi8)
    )
    return c0, c1, c2, c3, c4


def _riemann_siegel_raw(t: float) -> tuple[float, float]:
    """Z(t) by the Riemann-Siegel formula; returns (value, error bound)."""
    tau = t / _TWO_PI
    rt = math.sqrt(tau)
    m = int(rt)
    p = rt - m
    theta = siegel_theta(t)
    n_arr = np.arange(1, m + 1, dtype=np.float64)
    main = 2.0 * float(np.sum(np.cos(theta - t * np.log(n_arr)) / np.sqrt(n_arr)))
    cs = _rs_correction_coeffs(p)
    corr = 0.0
    tau_pow = 1.0
    for c in cs:
        corr += c * tau_pow
        tau_pow /= math.sqrt(tau)
    corr *= (-1.0) ** (m - 1) * tau ** (-0.25)
    bound = _RS_REMAINDER_COEFF * t ** (-2.75) + 1e-13 * (1.0 + m)
    return main + corr, bound
