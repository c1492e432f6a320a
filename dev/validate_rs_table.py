"""Check the package's Riemann-Siegel evaluator against mpmath; exit 1 on any excess.

Two stages, both on the code in src/zetacycles/specfun.py:
1. Value and bound: at 161 points of [20, 260] (the lowest rs_threshold
   EvalConfig accepts, up to VALIDATED_T_MAX), |Z - mpmath.siegelz| must not
   exceed the bound _riemann_siegel_raw returns with it.
2. Psi derivatives: _psi_rs_derivatives(p0), orders 0..12, against
   mpmath.diffs at p0 in [0, 1) off the removable singularities 1/4 + k/2
   (where an mpmath reference would divide 0 by 0). Each error must stay
   below 1e-13 of the Cauchy scale k! max|Psi| / r^k on the contour the
   code integrates over; rounding puts it near 2e-16 of that scale.

Run from the repository root (needs mpmath):

    PYTHONPATH=src python3 dev/validate_rs_table.py
"""

from __future__ import annotations

import sys

import mpmath as mp
import numpy as np

from zetacycles import specfun

T_POINTS = np.linspace(20.0, specfun.VALIDATED_T_MAX, 161)
P_POINTS = [p for p in np.arange(0.0, 1.0, 0.05) if min(abs(p - 0.25), abs(p - 0.75)) > 0.01]
DERIVATIVE_TOL = 1e-13  # of the Cauchy scale


def psi(p):
    return mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)


def stage_value_and_bound() -> int:
    print("stage 1: _riemann_siegel_raw against mpmath.siegelz")
    print(f"{'t':>8} {'|error|':>11} {'bound':>11} {'ratio':>7}")
    failures, worst = 0, (0.0, 0.0)
    for i, t in enumerate(T_POINTS):
        value, bound = specfun._riemann_siegel_raw(float(t))
        with mp.workdps(20):
            error = abs(value - float(mp.siegelz(float(t))))
        ratio = error / bound
        worst = max(worst, (ratio, float(t)))
        if ratio > 1.0 or i % 20 == 0:
            print(f"{t:8.2f} {error:11.3e} {bound:11.3e} {ratio:7.3f}" + ("  EXCEEDS" if ratio > 1.0 else ""))
        failures += ratio > 1.0
    print(f"worst ratio {worst[0]:.3f} at t = {worst[1]:.2f}; {failures} of {T_POINTS.size} exceed")
    return failures


def stage_psi_derivatives() -> int:
    print("stage 2: _psi_rs_derivatives against mpmath.diffs, orders 0..12")
    r, m = specfun._RS_CONTOUR_RADIUS, specfun._RS_CONTOUR_NODES
    failures = 0
    with mp.workdps(30):
        for p0 in P_POINTS:
            got = specfun._psi_rs_derivatives(float(p0))
            exact = list(mp.diffs(psi, mp.mpf(float(p0)), 12))
            top = max(abs(psi(p0 + r * mp.expjpi(2 * (j + 0.5) / m))) for j in range(m))
            scaled = [float(abs(g - e) * r**k / (mp.factorial(k) * top))
                      for k, (g, e) in enumerate(zip(got, exact))]
            bad = max(scaled) > DERIVATIVE_TOL
            print(f"p0 = {p0:4.2f}  worst error / Cauchy scale {max(scaled):.2e}"
                  + ("  EXCEEDS" if bad else ""))
            failures += bad
    return failures


def main() -> int:
    failures = stage_value_and_bound()
    print()
    failures += stage_psi_derivatives()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
