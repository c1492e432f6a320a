"""The dilation Laplacian's quotient spectrum over the zero set and the
negativity predicate equivalent to the critical-line statement.
"""

from __future__ import annotations

import numpy as np

from .schwartz import TestFunction, apply_H, apply_one_plus_H, mellin_psi_many
from .specfun import ZetaZero

__all__ = [
    "delta_eigenvalue",
    "delta_on_test_function",
    "direct_membership",
    "negativity_rows",
    "rh_predicate",
]

_IM_TOL = 1e-12


def delta_eigenvalue(rho: complex) -> complex:
    """Eigenvalue (rho - 1/2)^2 - 1/4 attached to a zero rho."""
    rho = complex(rho)
    return (rho - 0.5) ** 2 - 0.25


def rh_predicate(rho: complex) -> bool:
    """True iff the eigenvalue at rho is real and nonpositive.

    Equivalent to rho lying in [0, 1] or on the half-line axis Re = 1/2,
    decided here purely through the eigenvalue arithmetic.
    """
    e = delta_eigenvalue(rho)
    return abs(e.imag) <= _IM_TOL and e.real <= 0.0


_CHECK_POINTS = np.linspace(-9.5, 9.5, 20)


def delta_on_test_function(g: TestFunction) -> tuple[TestFunction, float]:
    """Apply H(1+H) symbolically and check that its Mellin multiplier is the
    Laplacian's eigenvalue at 1/2 + iz, -(z^2 + 1/4).

    Returns the image and the worst absolute residual of
    psi_image(z) - delta_eigenvalue(1/2 + iz) psi_g(z) over 20 real points.
    """
    image = apply_H(apply_one_plus_H(g))
    lhs, psi = (mellin_psi_many(f, _CHECK_POINTS).tolist() for f in (image, g))
    worst = max(abs(left - delta_eigenvalue(0.5 + 1j * z) * right)
                for z, left, right in zip(_CHECK_POINTS, lhs, psi))
    return image, worst


def negativity_rows(zeros: list[ZetaZero]) -> list[tuple[float, float, bool]]:
    """(ordinate, eigenvalue, negativity_ok) rows for reporting, one per zero
    rho = 1/2 + i t_k."""
    rows = []
    for z in zeros:
        rho = 0.5 + 1j * z.ordinate
        rows.append((z.ordinate, delta_eigenvalue(rho).real, rh_predicate(rho)))
    return rows


def direct_membership(rho: complex) -> bool:
    """rho on [0, 1] or on the critical line: the reference membership test,
    kept separate from the predicate algebra so callers can cross-check it."""
    if rho.imag == 0.0:
        return 0.0 <= rho.real <= 1.0
    return rho.real == 0.5
