"""Special functions on the critical line: Gamma, zeta, Z, theta, and zeros.

Everything downstream (Fourier coefficients, dip scans, ideal generators)
funnels through `zeta_critical` or its array form `zeta_critical_many`, so
this module carries the accuracy contracts. There is one zeta evaluator: an
Euler-Maclaurin kernel (at one point, or over a block) up to VALIDATED_T_MAX,
and every evaluated point's certified bound meets _TARGET_ABS_ERROR. The
independent Riemann-Siegel route that cross-checks it is a test helper,
tests/_riemann_siegel.py, outside the package. Z is zeta rotated by
e^{i theta}, on an array by `rotate_to_Z`; a zero is a sign change of Z
between neighbouring points of such an array.
`find_zeros` takes the Gram points g_j, where theta(g_j) = j pi, checks
Gram's law (-1)^j Z(g_j) > 0 at each, and refines all its brackets at once;
`cycles.scan` looks its brackets up in that zero list.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, TextIO

import numpy as np
from scipy import special

__all__ = [
    "AccuracyError",
    "EvalConfig",
    "PoleError",
    "VALIDATED_T_MAX",
    "ZetaZero",
    "find_zeros",
    "finite_difference_weights",
    "gamma_complex",
    "log_gamma",
    "read_zero_cache",
    "riemann_siegel_Z",
    "rotate_to_Z",
    "siegel_theta",
    "write_zero_cache",
    "zeta_critical",
    "zeta_critical_many",
    "zeta_jet",
]

# Largest |t| accepted: Gram's law, which find_zeros' brackets rest on, holds
# at every Gram point below it (the first bad one is g_126 ~ 282.45).
VALIDATED_T_MAX = 260.0
_TARGET_ABS_ERROR = 1e-6  # the certified absolute error of every evaluated point

_TWO_PI = 2.0 * math.pi
_LOG_PI = math.log(math.pi)
_EPS = float(np.finfo(np.float64).eps)


class PoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


class AccuracyError(ArithmeticError):
    """The requested absolute error cannot be certified at this argument."""


class EvalConfig:
    """The |t| from which an evaluator takes Riemann-Siegel: none does, so it
    is infinite. zcbench reads it to count the calls that reach that route."""

    rs_threshold = math.inf


@dataclass(frozen=True)
class ZetaZero:
    """A critical-line zero 1/2 + i*ordinate with refinement metadata."""

    ordinate: float
    multiplicity: int
    abs_error: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ordinate < math.inf:
            raise ValueError("ordinate must be positive and finite")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")
        if not 0.0 <= self.abs_error < math.inf:
            raise ValueError("abs_error must be nonnegative and finite")


# ---------------------------------------------------------------------------
# Gamma: scipy.special on one complex point, with the pole check in front.


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def gamma_complex(z: complex) -> complex:
    """Gamma(z) for complex z; raises PoleError at non-positive integers."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z}")
    return complex(special.gamma(z))


def log_gamma(z: complex) -> complex:
    """log Gamma(z), analytic off the negative real axis (continuous, not mod 2*pi)."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log-gamma pole at z = {z}")
    return complex(special.loggamma(z))


def siegel_theta(t):
    """theta(t) = Im log Gamma(1/4 + i t/2) - (t/2) log pi, for a float or an array."""
    return special.loggamma(0.25 + 0.5j * t).imag - 0.5 * t * _LOG_PI


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluation of zeta(1/2 + it), at one point or a block.

# B_{2k} / (2k)! for k = 1..15, each rounded once from the exact rational.
_EM_COEFFS = np.array([
    float(Fraction(p, q) / math.factorial(2 * k))
    for k, (p, q) in enumerate(
        [(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
         (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
         (-23749461029, 870), (8615841276005, 14322)],
        start=1,
    )
])
_EM_SHIFTS = np.arange(2.0 * len(_EM_COEFFS) - 1)  # s + j for j = 0..28
_LOG_N = np.log(np.arange(1.0, 1025.0))


def _log_range(count: int) -> np.ndarray:
    """log 1, ..., log count."""
    return _LOG_N[:count] if count <= _LOG_N.size else np.log(np.arange(1.0, count + 1.0))


def _zeta_euler_maclaurin(t):
    """zeta(1/2 + it) for t >= 0 by Euler-Maclaurin; returns (value, error bound).

    t is a float, or a 1-D array evaluated as one block. Each point sums
    n^(-s) for n = 1..N with N = ceil(0.4 t) + 8, then 14 correction terms
    T_k = B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k) = B_2k/(2k)! q_(2k-2) N^(-s),
    where q_m is the running product of (s+j)/N for j = 0..m. That length
    keeps the truncation bound, from the first omitted term T_15, at most 2%
    of the rounding term below at every t up to 1000 (0.0164 at worst, at
    t = 477.5), and the whole bound non-decreasing in t: the rounding term
    gains more at each step of N than the truncation term loses. (The least
    N with the truncation term at most 2% of the rounding term is 6, 16, 45,
    86, 111 and 403 at t = 0, 30, 100, 200, 260 and 1000.) A block lays its
    rows end to end and sums each with np.add.reduceat, as a float sums its
    one row; both paths take q from the same numpy accumulate over
    (s + j) * (1/N), which is numpy's complex division by N without its
    cost, and multiply N^(-s) by w in real arithmetic, which numpy does not
    fuse, so a block and its points agree bit for bit. A float finishes on
    Python numbers, which round as numpy scalars do.

    Rounding: each phase t log n is off by up to eps t log N, which moves the
    sum by at most eps t log N sum n^(-1/2); and each of the N - 1 additions,
    in whatever order np.add.reduceat takes them, rounds a partial sum of
    modulus at most sum n^(-1/2). With sum n^(-1/2) <= 2 sqrt(N), that is
    eps (t log N + N) 2 sqrt(N).
    """
    s = 0.5 + 1j * t
    if block := isinstance(t, np.ndarray):
        big_n = np.ceil(0.4 * t).astype(np.int64) + 8
        starts = np.cumsum(big_n) - big_n
        log_n = _log_range(int(big_n.max()))
        n_index = np.arange(big_n.sum()) - np.repeat(starts, big_n)  # n - 1
        terms = np.exp(np.repeat(-s, big_n) * log_n[n_index])
        value = np.add.reduceat(terms, starts)
        n_neg = terms[starts + big_n - 1]  # N^{-s}
        shifted = np.add.outer(s, _EM_SHIFTS) * (1.0 / big_n)[:, None]
        log_big_n = log_n[big_n - 1]
    else:
        big_n = math.ceil(0.4 * t) + 8
        log_n = _log_range(big_n)
        terms = np.exp(-s * log_n)
        value = complex(np.add.reduceat(terms, [0])[0])
        n_neg = complex(terms[-1])
        shifted = (s + _EM_SHIFTS) * (1.0 / big_n)
        log_big_n = float(log_n[-1])
    # T_k / N^{-s} = B_2k/(2k)! q_{2k-2} for k = 1..15
    corr_terms = np.multiply.accumulate(shifted, axis=-1)[..., ::2] * _EM_COEFFS
    corrections, last = np.add.reduce(corr_terms[..., :-1], axis=-1), corr_terms[..., -1]
    if not block:
        corrections, last = complex(corrections), complex(last)
    # N^{1-s}/(s-1) - N^{-s}/2 + sum T_k = N^{-s} w, with 1/(s-1) = -(1/2 + it)/(1/4 + t^2)
    w_re = -0.5 * big_n / (0.25 + t * t) - 0.5 + corrections.real
    w_im = -big_n * t / (0.25 + t * t) + corrections.imag
    value = value + (n_neg.real * w_re - n_neg.imag * w_im)
    value = value + 1j * (n_neg.real * w_im + n_neg.imag * w_re)

    # |T_15| |s + 29| / 29.5, each modulus the root of its square, as abs may
    # round a number and an array element differently
    sqrt, m = np.sqrt if block else math.sqrt, _EM_SHIFTS.size + 0.5
    squares = (last.real * last.real + last.imag * last.imag) * (m * m + t * t)
    truncation = sqrt(squares * (n_neg.real * n_neg.real + n_neg.imag * n_neg.imag)) / m
    rounding = _EPS * (t * log_big_n + big_n) * 2.0 * sqrt(big_n)
    return value, truncation + rounding


# ---------------------------------------------------------------------------
# Public evaluators, and the accuracy guards every evaluated point passes.


def _range_error(t: float) -> AccuracyError:
    return AccuracyError(f"t = {t:.6g} exceeds the validated range ({VALIDATED_T_MAX:g})")


def _bound_error(bound: float, t: float) -> AccuracyError:
    return AccuracyError(
        f"certified error {bound:.3g} at t = {t:.6g} exceeds "
        f"target_abs_error = {_TARGET_ABS_ERROR:.3g}"
    )


def zeta_critical(t: float) -> complex:
    """zeta(1/2 + it) for real t, to within the target error, by the scalar
    Euler-Maclaurin kernel: equal bit for bit to zeta_critical_many at t."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    a = abs(t)
    if a > VALIDATED_T_MAX:
        raise _range_error(a)
    value, bound = _zeta_euler_maclaurin(a)
    if bound > _TARGET_ABS_ERROR:
        raise _bound_error(bound, a)
    return value.conjugate() if t < 0.0 else value


def riemann_siegel_Z(t: float) -> float:
    """Z(t) = e^{i theta(t)} zeta(1/2+it) at one point t >= 0: rotate_to_Z over
    zeta_critical_many, on Euler-Maclaurin under their guards."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("riemann_siegel_Z requires t >= 0")
    point = np.array([t])
    return float(rotate_to_Z(point, zeta_critical_many(point)[0])[0])


_GRID_BLOCK = 256  # points per Euler-Maclaurin block: 256 (0.4 t + 8) terms, 0.5 MB at t = 260


def zeta_critical_many(t) -> tuple[np.ndarray, np.ndarray]:
    """(zeta(1/2 + it), certified bound) at each point of a 1-D array of real t,
    on Euler-Maclaurin under every guard of zeta_critical: blocks of _GRID_BLOCK
    points in input order (a block sums each row to its own length, and equals
    its points bit for bit), and conjugation for t < 0."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError(f"t must be a 1-D array, got {t.ndim}-D")
    if not np.isfinite(t).all():
        raise ValueError("t must be finite")
    a = np.abs(t)
    if a.size and a.max() > VALIDATED_T_MAX:
        raise _range_error(a.max())
    values, bounds = np.empty(t.size, dtype=np.complex128), np.empty(t.size)
    for lo in range(0, t.size, _GRID_BLOCK):
        block = slice(lo, lo + _GRID_BLOCK)
        values[block], bounds[block] = _zeta_euler_maclaurin(a[block])
    if (over := bounds > _TARGET_ABS_ERROR).any():
        i = over.argmax()
        raise _bound_error(bounds[i], a[i])
    return np.where(t < 0.0, values.conj(), values), bounds


def rotate_to_Z(t: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Z(t) = e^{i theta(t)} zeta(1/2 + it) at each point of an array of t >= 0,
    given zeta there; raises if an imaginary residual of the rotation exceeds
    1e-9."""
    rotated = np.exp(1j * siegel_theta(t)) * zeta
    if (over := np.abs(rotated.imag) > 1e-9).any():
        i = over.argmax()
        raise AccuracyError(f"rotation residual {rotated.imag[i]:.3g} at t = {t[i]:.6g}"
                            " exceeds 1e-9")
    return rotated.real


def _sign_changes(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """np.nonzero of the places where values[i] and values[i + 1], along the
    first axis, bracket a zero. A point exactly on a zero is left to the
    bracket that ends there; a NaN brackets nothing."""
    left, right = values[:-1], values[1:]
    return np.nonzero((left != 0.0) & (left * right <= 0.0))


# ---------------------------------------------------------------------------
# Root refinement and zero finding.

_ROOT_XTOL = 1e-12


def _refine_roots(
    f: Callable[[np.ndarray], np.ndarray], a, fa, b, fb
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chandrupatla's method on every bracket [a_i, b_i] at once, given
    fa = f(a) and fb = f(b) of opposite signs (or zero). f maps an array of
    points to their values; each step calls it once, on the brackets still
    open. The first step is regula falsi, to the secant's root across the
    bracket; each later one is inverse quadratic interpolation where the last
    three points allow it, else bisection. A bracket closes when its better
    end x is a root, or when it is narrower than _ROOT_XTOL + 4 eps |x|; no
    bracket's arithmetic reads another's. Returns arrays (root, width,
    slope): f changes sign within width of the root (width 0 when
    f(root) == 0), and slope is the secant slope across that final bracket."""
    x1, f1, x2, f2 = (np.array(v, dtype=np.float64) for v in (a, fa, b, fb))
    x3, f3 = x2, f2  # x3 is set before it is read
    # regula falsi; ends that are both roots (f1 == f2 == 0) close before t is read
    t = np.divide(f1, f1 - f2, out=np.full(x1.size, 0.5), where=f1 != f2)
    lanes = np.arange(x1.size)
    root, width, slope = np.empty((3, x1.size))
    for _ in range(100):
        better = np.abs(f1) < np.abs(f2)
        x, fx = np.where(better, x1, x2), np.where(better, f1, f2)
        dx, tol = np.abs(x2 - x1), _ROOT_XTOL + 4.0 * _EPS * np.abs(x)
        if (done := (fx == 0.0) | (dx < tol)).any():
            k = lanes[done]
            root[k], width[k] = x[done], np.where(fx == 0.0, 0.0, dx)[done]
            slope[k] = np.abs(f2 - f1)[done] / dx[done]
            lanes, x1, f1, x2, f2, x3, f3, t, dx, tol = (
                v[~done] for v in (lanes, x1, f1, x2, f2, x3, f3, t, dx, tol)
            )
        if not lanes.size:
            return root, width, slope
        # a step at least tol / 2 inside the bracket, then keep the ends of other sign
        xt = x1 + np.clip(t, 0.5 * tol / dx, 1.0 - 0.5 * tol / dx) * (x2 - x1)
        if np.isnan(ft := np.asarray(f(xt), dtype=np.float64)).any():
            raise ValueError(f"f({xt[np.isnan(ft).argmax()]!r}) is NaN; refinement cannot go on")
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        # inverse quadratic interpolation where the three points allow it, else bisection
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
        g1, g2, g3, alpha = f1[iqi], f2[iqi], f3[iqi], ((x3 - x1) / (x2 - x1))[iqi]
        t = np.full(x1.size, 0.5)
        t[iqi] = g1 / (g1 - g2) * g3 / (g3 - g2) - alpha * g1 / (g3 - g1) * g2 / (g2 - g3)
    raise RuntimeError("Chandrupatla's method failed to converge after 100 steps")


def _gram_points(t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(j, g_j) for every Gram point g_j <= t_max on the rising branch of theta,
    where theta(g_j) = j pi, from j = -1 (g_{-1} ~ 9.667) up. Newton's method on
    siegel_theta, with theta' from digamma, from the Lambert-W solution of the
    asymptotic theta(t) ~ (t/2) log(t / (2 pi e)) - pi/8."""
    j = np.arange(-1, math.floor(siegel_theta(t_max) / math.pi) + 1)
    g = _TWO_PI * math.e * np.exp(special.lambertw((8 * j + 1) / (8 * math.e)).real)
    for _ in range(20):
        step = (siegel_theta(g) - j * math.pi) / (
            0.5 * special.digamma(0.25 + 0.5j * g).real - 0.5 * _LOG_PI
        )
        g = g - step
        if not np.abs(step).max(initial=0.0) > 1e-10:
            return j, g
    raise RuntimeError("Newton's method for the Gram points failed to converge")


def find_zeros(t_min: float, t_max: float) -> list[ZetaZero]:
    """All critical zeros with ordinate in (t_min, t_max].

    Z is evaluated in one block on the Gram points g_j in (t_min, t_max) and
    the two ends. Gram's law, (-1)^j Z(g_j) > 0, is checked at every Gram
    point, and a bad one raises AccuracyError; it holds below VALIDATED_T_MAX
    (the first bad Gram point is g_126 ~ 282.45). The sign changes are refined
    together by _refine_roots, one zeta_critical_many and rotate_to_Z call per
    step, on Euler-Maclaurin, whose floor ~1e-13 certifies a 1e-9 ordinate.
    abs_error is the final bracket's width plus the larger evaluation bound at
    the Gram bracket's two ends over the secant slope; the Euler-Maclaurin
    bound rises with t, so that covers every point refined in between. Gram's
    law gives an odd number of zeros in each Gram interval, not one:
    multiplicity = 1 is assumed, not proven.
    """
    if not (0.0 <= t_min < t_max):
        raise ValueError("need 0 <= t_min < t_max")
    if t_max > VALIDATED_T_MAX:  # before the Gram points, whose count grows with t_max
        raise _range_error(t_max)

    j, gram = _gram_points(t_max)
    inside = (gram > t_min) & (gram < t_max)
    j, gram = j[inside], gram[inside]
    grid = np.concatenate(([t_min], gram, [t_max]))
    zeta, bounds = zeta_critical_many(grid)
    values = rotate_to_Z(grid, zeta)
    if (bad := (-1.0) ** j * values[1:-1] <= 0.0).any():
        k = bad.argmax()
        raise AccuracyError(
            f"Gram's law fails at g_{j[k]} = {gram[k]:.6f}: Z(g_{j[k]}) = {values[k + 1]:.3g}"
        )
    i = _sign_changes(values)[0]
    root, width, slope = _refine_roots(
        lambda t: rotate_to_Z(t, zeta_critical_many(t)[0]),
        grid[i], values[i], grid[i + 1], values[i + 1],
    )
    abs_error = width + np.maximum(bounds[i], bounds[i + 1]) / slope
    return [ZetaZero(float(r), 1, float(e)) for r, e in zip(root, abs_error)]


# ---------------------------------------------------------------------------
# Finite differences (Fornberg weights) and zeta jets.


def finite_difference_weights(x0: float, nodes: np.ndarray, max_order: int) -> np.ndarray:
    """Weights w[k, i] with f^(k)(x0) ~= sum_i w[k, i] f(nodes[i]).

    Fornberg's recurrence on arbitrary (distinct) nodes; exact up to float
    rounding, accuracy order len(nodes) - max_order.
    """
    x = np.asarray(nodes, dtype=np.float64).tolist()  # Python floats: same arithmetic, no numpy scalars
    x0 = float(x0)
    n = len(x)
    if n == 0:
        raise ValueError("need at least one node")
    w = [[0.0] * n for _ in range(max_order + 1)]  # w[k][i]
    c1 = 1.0
    c4 = x[0] - x0
    w[0][0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k][i] = c1 * (k * w[k - 1][i - 1] - c5 * w[k][i - 1]) / c2
                w[0][i] = -c1 * c5 * w[0][i - 1] / c2
            for k in range(mn, 0, -1):
                w[k][j] = (c4 * w[k][j] - k * w[k - 1][j]) / c3
            w[0][j] = c4 * w[0][j] / c3
        c1 = c2
    return np.array(w)


_JET_STEP = 0.03
_JET_HALF_WIDTH = 6  # 13-point stencil, accuracy order >= 8 for orders <= 4


def zeta_jet(t0: float, order: int) -> list[complex]:
    """[zeta(s0), zeta'(s0), ..., zeta^(order)(s0)] at s0 = 1/2 + i t0.

    Central finite differences along the t-axis on 13 samples (1 at order 0)
    from one zeta_critical_many call, whose centre node is t0 itself,
    converted to s-derivatives with d/ds = -i d/dt per order. The stencil
    reaches t0 +- 0.18 (t0 alone at order 0); a t0 whose stencil reaches past
    VALIDATED_T_MAX raises AccuracyError, naming t0, before any evaluation.
    """
    if not (isinstance(order, numbers.Integral) and 0 <= order <= 4):
        raise ValueError(f"order must be an integer between 0 and 4, got {order!r}")
    half = _JET_HALF_WIDTH if order else 0
    if math.isfinite(t0) and abs(t0) + (reach := half * _JET_STEP) > VALIDATED_T_MAX:
        raise AccuracyError(f"zeta_jet at t0 = {t0:.6g} samples t0 +- {reach:.2g}, past the"
                            f" validated range ({VALIDATED_T_MAX:g})")
    nodes = t0 + np.arange(-half, half + 1, dtype=np.float64) * _JET_STEP
    samples = zeta_critical_many(nodes)[0]
    weights = finite_difference_weights(t0, nodes, order)  # row 0: 1 at t0, exactly 0 elsewhere
    return [(-1j) ** k * complex(np.sum(weights[k] * samples)) for k in range(order + 1)]


# ---------------------------------------------------------------------------
# Zero-cache persistence, replaced whole. Each row of the CSV is one zero plus
# the coverage: the t_max the list is complete up to, and its count of zeros.


@contextmanager
def _open_replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file beside path that is moved over path when the block exits,
    and removed if the block raises, so path never holds a partial write."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _csv_text(header: list[str], rows) -> str:
    """The text csv.writer would write for the header and rows: every field is
    a number, a bool or a plain word, so none needs quoting; lines end in \\r\\n.
    Write it with newline="" to keep those line ends."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in [header, *rows])


_CACHE_HEADER = ["ordinate", "multiplicity", "abs_error", "t_max", "count"]


def write_zero_cache(path: str | Path, zeros: list[ZetaZero], t_max: float) -> None:
    """Write zeros, every zero in (0, t_max], to path. Each row carries t_max
    and the count; a range without zeros is the one row `,,,<t_max>,0`."""
    if not all(a.ordinate < b.ordinate for a, b in zip(zeros, zeros[1:])):
        raise ValueError("zero ordinates must be strictly increasing")
    if not 0.0 < t_max < math.inf or (zeros and zeros[-1].ordinate > t_max):
        raise ValueError(f"t_max = {t_max} must be finite and at least every ordinate")
    # repr round-trips a float exactly (float(): numpy 2 reprs np.float64(...))
    coverage = [repr(float(t_max)), len(zeros)]
    rows = ([repr(float(z.ordinate)), z.multiplicity, f"{z.abs_error:.6e}", *coverage]
            for z in zeros) if zeros else [["", "", "", *coverage]]
    with _open_replacing(path) as fh:
        fh.write(_csv_text(_CACHE_HEADER, rows))


def read_zero_cache(path: str | Path, t_max: float | None = None) -> list[ZetaZero]:
    """The zeros of a cache that write_zero_cache wrote; given t_max, those at
    or below it, and a ValueError naming the covered t_max if that is smaller.
    A cache whose header, fields, coverage, order or row count is off is
    damaged: a ValueError naming the file and, but for the row count, the line."""
    zeros: list[ZetaZero] = []
    rows, last = 0, 0.0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if (header := next(reader, None)) != _CACHE_HEADER:
                raise ValueError(f"unexpected zero-cache header {header}")
            for rows, row in enumerate(reader, start=1):
                if len(row) != 5:
                    raise ValueError("expected 5 fields")
                if rows == 1:
                    covered_text, count_text = row[3], row[4]
                    covered, count = float(covered_text), int(count_text)
                    if not 0.0 < covered < math.inf:
                        raise ValueError("t_max must be positive and finite")
                elif row[3] != covered_text or row[4] != count_text:
                    raise ValueError(f"t_max,count {row[3]},{row[4]} differ from line 2's")
                if row[0] == row[1] == row[2] == "":  # the row of a range without zeros
                    continue
                zero = ZetaZero(float(row[0]), int(row[1]), float(row[2]))
                if zero.ordinate > covered:
                    raise ValueError(f"ordinate {row[0]} above t_max {row[3]}")
                if zero.ordinate <= last:
                    raise ValueError("ordinates not strictly increasing")
                last = zero.ordinate
                zeros.append(zero)
        except (ValueError, csv.Error) as exc:  # csv.Error: a field past csv's size limit
            raise ValueError(f"zero cache {path}, line {reader.line_num}: {exc}") from exc
    if rows == 0:
        raise ValueError(f"zero cache {path} has no rows")
    if len(zeros) != count or rows != max(count, 1):
        raise ValueError(f"zero cache {path} holds {len(zeros)} zeros in {rows} rows,"
                         f" but its count is {count}")
    t_max = covered if t_max is None else t_max
    if covered < t_max:
        raise ValueError(f"zero cache {path} covers t <= {covered}, need {t_max}")
    return [z for z in zeros if z.ordinate <= t_max]
