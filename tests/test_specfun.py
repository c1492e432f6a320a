"""Special-function layer: gamma, theta, critical-line zeta, zeros, jets."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracle_frozen import (
    GAMMA_SAMPLES,
    SIEGEL_THETA_SAMPLES,
    SIEGEL_Z_SAMPLES,
    ZERO_ORDINATES,
    ZETA_CRITICAL_SAMPLES,
    ZETA_HALF,
    ZETA_JET_SAMPLES,
)
from zetacycles import specfun
from zetacycles.specfun import (
    VALIDATED_T_MAX,
    AccuracyError,
    EvalConfig,
    PoleError,
    ZetaZero,
    finite_difference_weights,
    find_zeros,
    gamma_complex,
    log_gamma,
    read_zero_cache,
    refine_root,
    refinement_config,
    riemann_siegel_Z,
    rotate_to_Z,
    siegel_theta,
    write_zero_cache,
    zeta_critical,
    zeta_critical_many,
    zeta_jet,
)


class TestGamma:
    @pytest.mark.parametrize("z,expected", list(GAMMA_SAMPLES.items()))
    def test_frozen_samples(self, z, expected):
        got = gamma_complex(complex(*z))
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_poles(self):
        for z in (0.0, -1.0, -5.0):
            with pytest.raises(PoleError):
                gamma_complex(z)

    def test_reflection_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            z = complex(rng.uniform(-8, 8), rng.uniform(-20, 20))
            if abs(z.imag) < 0.1 and abs(z - round(z.real)) < 0.1:
                continue
            lhs = gamma_complex(z) * gamma_complex(1.0 - z) * np.sin(np.pi * z) / np.pi
            assert abs(lhs - 1.0) <= 1e-10

    def test_log_gamma_exponentiates(self):
        for z in (0.25 - 3.5j, 3.7 + 11.0j, 0.25 + 0.0j):
            assert abs(np.exp(log_gamma(z)) - gamma_complex(z)) <= 1e-12 * abs(
                gamma_complex(z)
            )

    def test_log_gamma_continuous_on_vertical_line(self):
        # the principal-branch wrap would show up as a 2 pi jump
        prev = log_gamma(0.25 + 0.5j).imag
        for t in np.arange(1.0, 80.0, 0.5):
            cur = log_gamma(0.25 + 1j * t / 2).imag
            assert abs(cur - prev) < 3.0
            prev = cur


class TestSiegelTheta:
    @pytest.mark.parametrize("t,expected", list(SIEGEL_THETA_SAMPLES.items()))
    def test_frozen_samples(self, t, expected):
        assert siegel_theta(t) == pytest.approx(expected, abs=1e-10, rel=1e-12)

    def test_odd(self):
        for t in (5.0, 33.3, 101.0):
            assert siegel_theta(-t) == pytest.approx(-siegel_theta(t), abs=1e-12)


class TestZetaCritical:
    @pytest.mark.parametrize("t,expected", list(ZETA_CRITICAL_SAMPLES.items()))
    def test_frozen_samples(self, t, expected, cfg):
        got = zeta_critical(t, cfg)
        assert abs(got - expected) <= 1e-6

    def test_zeta_half(self, cfg):
        got = zeta_critical(0.0, cfg)
        assert got.imag == 0.0
        assert got.real == pytest.approx(ZETA_HALF, abs=1e-12)

    def test_conjugate_symmetry(self, cfg):
        rng = np.random.default_rng(7)
        for t in rng.uniform(-60.0, 60.0, size=1000):
            left = zeta_critical(-t, cfg)
            right = zeta_critical(t, cfg).conjugate()
            assert abs(left - right) <= 1e-10

    @pytest.mark.parametrize("t,expected", list(SIEGEL_Z_SAMPLES.items()))
    def test_z_frozen_samples(self, t, expected, cfg):
        assert riemann_siegel_Z(t, cfg) == pytest.approx(expected, abs=1e-6)

    def test_z_reality(self, cfg):
        # Z is the rotation of zeta onto the real axis; recompute the
        # rotation directly and bound its imaginary part
        for t in (5.0, 30.0, 57.3, 80.0, 99.0, 130.0, 220.0):
            rotated = np.exp(1j * siegel_theta(t)) * zeta_critical(t, cfg)
            assert abs(rotated.imag) <= 1e-9
            assert riemann_siegel_Z(t, cfg) == pytest.approx(rotated.real, abs=1e-9)

    def test_method_overlap_band(self):
        # force each path by moving the switch point across the band
        for t in np.linspace(85.0, 115.0, 13):
            em = zeta_critical(t, EvalConfig(rs_threshold=200.0))
            rs = zeta_critical(t, EvalConfig(rs_threshold=80.0))
            assert abs(em - rs) <= 1e-7

    def test_out_of_validated_range(self, cfg):
        with pytest.raises(AccuracyError):
            zeta_critical(VALIDATED_T_MAX + 5.0, cfg)

    def test_unreachable_target(self):
        tight = EvalConfig(target_abs_error=1e-14)
        with pytest.raises(AccuracyError):
            zeta_critical(150.0, tight)


class TestEvalConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(rs_threshold=5.0)
        with pytest.raises(ValueError):
            EvalConfig(target_abs_error=0.0)
        with pytest.raises(TypeError):
            EvalConfig(euler_maclaurin_terms=40)  # a module constant: it had no caller

    def test_zero_record_validation(self):
        with pytest.raises(ValueError):
            ZetaZero(ordinate=-1.0, multiplicity=1, abs_error=1e-9)
        with pytest.raises(ValueError):
            ZetaZero(ordinate=14.0, multiplicity=0, abs_error=1e-9)


class TestFindZeros:
    def test_first_thirteen(self, zeros60, cfg):
        oracle = [t for t in ZERO_ORDINATES if t <= 60.0]
        assert len(zeros60) == len(oracle) == 13
        for z, t in zip(zeros60, oracle):
            assert abs(z.ordinate - t) <= 1e-9
            assert abs(z.ordinate - t) <= z.abs_error
            assert z.multiplicity == 1
            assert abs(zeta_critical(z.ordinate, cfg)) < 1e-6

    def test_empty_below_first_zero(self):
        assert find_zeros(0.0, 5.0) == []

    def test_gram_points(self):
        """theta(g_j) = j pi for j = -1..112, every Gram point below
        VALIDATED_T_MAX, and g_j agrees with mpmath.grampoint."""
        j, gram = specfun._gram_points(VALIDATED_T_MAX)
        assert j.tolist() == list(range(-1, 113))
        assert gram[0] == pytest.approx(9.666908056, abs=1e-9)
        assert (np.diff(gram) > 0.0).all() and gram[-1] <= VALIDATED_T_MAX
        assert np.abs(siegel_theta(gram) - j * math.pi).max() <= 1e-12
        mpmath = pytest.importorskip("mpmath")
        for k in (0, 1, 17, 50, 88, 112):
            assert gram[k + 1] == pytest.approx(float(mpmath.grampoint(k)), abs=1e-12)

    def test_to_validated_t_max(self):
        """The whole validated range: 114 zeros, frozen from mpmath.nzeros(260),
        the first 108 being those below 250. The last zero's bracket ends at
        t_max = VALIDATED_T_MAX, which is on Euler-Maclaurin too, so its
        abs_error stays below 1e-9 and bounds the distance to mpmath."""
        zeros = find_zeros(0.0, VALIDATED_T_MAX)
        assert len(zeros) == 114
        below = find_zeros(0.0, 250.0)
        assert [z.ordinate for z in zeros[:108]] == pytest.approx(
            [z.ordinate for z in below], abs=1e-12
        )
        assert 250.0 < zeros[108].ordinate and zeros[-1].ordinate < VALIDATED_T_MAX
        assert max(z.abs_error for z in zeros) <= 1e-9
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            exact = float(mpmath.zetazero(114).imag)
        assert abs(zeros[-1].ordinate - exact) <= zeros[-1].abs_error

    @pytest.mark.parametrize("t_min", [20.0, "g_0", 100.0])
    def test_lower_end_cuts_a_slice(self, t_min):
        """A lower end inside a Gram interval, on a Gram point, or anywhere
        gives the zeros of find_zeros(0, 250) above it; only the first zero's
        bracket differs, so every later one is the same record."""
        if t_min == "g_0":
            t_min = float(specfun._gram_points(20.0)[1][1])
        whole = find_zeros(0.0, 250.0)
        above = [z for z in whole if z.ordinate > t_min]
        part = find_zeros(t_min, 250.0)
        assert [z.ordinate for z in part] == pytest.approx(
            [z.ordinate for z in above], abs=1e-12
        )
        assert part[1:] == above[1:]

    def test_first_zero_alone(self):
        (zero,) = find_zeros(0.0, 14.2)
        assert abs(zero.ordinate - ZERO_ORDINATES[0]) <= zero.abs_error <= 1e-9

    def test_bad_gram_point_raises(self, monkeypatch):
        """A Gram point where (-1)^j Z(g_j) <= 0, forced here by flipping the
        sign of Z at g_20, is reported by name rather than trusted."""
        g_20 = specfun._gram_points(100.0)[1][21]
        exact = specfun.rotate_to_Z

        def flip_at_g_20(t, zeta):
            return np.where(t == g_20, -1.0, 1.0) * exact(t, zeta)

        monkeypatch.setattr(specfun, "rotate_to_Z", flip_at_g_20)
        with pytest.raises(AccuracyError, match=f"Gram's law fails at g_20 = {g_20:.6f}"):
            find_zeros(0.0, 100.0)

    def test_multiplicity_override_unimplemented(self):
        # the knob is gone: zeros are simple, multiplicities live in the sheaf layer
        with pytest.raises(TypeError):
            EvalConfig(assume_simple_zeros=False)

    def test_cache_round_trip(self, tmp_path, zeros60):
        path = tmp_path / "zeros.csv"
        write_zero_cache(path, zeros60)
        back = read_zero_cache(path)
        assert [z.ordinate for z in back] == pytest.approx(
            [z.ordinate for z in zeros60], abs=1e-13
        )
        assert [z.multiplicity for z in back] == [z.multiplicity for z in zeros60]

    def test_interrupted_write_keeps_previous_cache(self, tmp_path, zeros60):
        path = tmp_path / "zeros.csv"
        write_zero_cache(path, zeros60)
        before = path.read_bytes()
        # the second row fails to format after the header and first row are written
        broken = [zeros60[0], SimpleNamespace(ordinate=99.0, multiplicity=1, abs_error="x")]
        with pytest.raises(ValueError):
            write_zero_cache(path, broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["zeros.csv"]

    def test_cache_rejects_unsorted(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "ordinate,multiplicity,abs_error\n"
            "21.0,1,1e-9\n"
            "14.1,1,1e-9\n"
        )
        with pytest.raises(ValueError):
            read_zero_cache(path)


class TestBlockEvaluation:
    """The block path of the Euler-Maclaurin routine, and Z rotated from it."""

    @staticmethod
    def em_points():
        lifted = refinement_config(250.0).rs_threshold
        return np.concatenate(
            [np.linspace(0.0, 99.9, 700), np.linspace(lifted - 1.0, lifted, 50, endpoint=False)]
        )

    def test_block_matches_points(self):
        t = self.em_points()
        for lo in range(0, t.size, 256):
            block = t[lo : lo + 256]
            values, bounds = specfun._zeta_euler_maclaurin(block)
            for x, value, bound in zip(block, values, bounds):
                v1, b1 = specfun._zeta_euler_maclaurin(float(x))
                assert abs(value - v1) <= 1e-15 * abs(v1), x
                assert abs(bound - b1) <= 1e-15 * b1, x

    @staticmethod
    def z_many(t, cfg):
        zeta, bounds = zeta_critical_many(t, cfg)
        return rotate_to_Z(t, zeta), bounds

    def test_z_grid_matches_points(self):
        rcfg = refinement_config(250.0)
        t = self.em_points()
        values, _ = self.z_many(t, rcfg)
        for x, value in zip(t, values):
            z1 = riemann_siegel_Z(float(x), rcfg)
            assert abs(value - z1) <= 1e-15 * abs(z1), x

    def test_points_at_threshold_take_riemann_siegel(self, cfg):
        t = np.array([90.0, 99.5, cfg.rs_threshold, 130.0])
        values, bounds = self.z_many(t, cfg)
        for x, value in zip(t, values):
            assert value == pytest.approx(riemann_siegel_Z(float(x), cfg), rel=1e-15)
        for x, bound in zip(t[2:], bounds[2:]):
            assert bound == specfun._riemann_siegel_raw(float(x))[1]
        # scalar Z above the threshold is the same dispatch, rotated back
        for x in (100.0, 130.0, 259.0):
            raw = specfun._riemann_siegel_raw(x)[0]
            assert riemann_siegel_Z(x) == pytest.approx(raw, rel=1e-15, abs=0.0)

    def test_guards_raise_on_block(self, cfg, monkeypatch):
        with pytest.raises(AccuracyError, match="validated range"):
            self.z_many(np.array([250.0, VALIDATED_T_MAX + 1.0]), cfg)
        tight = EvalConfig(target_abs_error=1e-14)
        with pytest.raises(AccuracyError, match="certified error"):
            self.z_many(np.linspace(1.0, 50.0, 10), tight)
        with pytest.raises(AccuracyError, match="certified error"):
            riemann_siegel_Z(1.0, tight)
        # the Riemann-Siegel points keep their own bound check
        rs_tight = EvalConfig(target_abs_error=1e-10)
        self.z_many(np.array([50.0, 99.0]), rs_tight)
        with pytest.raises(AccuracyError, match="certified error"):
            self.z_many(np.array([50.0, 150.0]), rs_tight)
        exact_theta = specfun.siegel_theta
        monkeypatch.setattr(specfun, "siegel_theta", lambda t: exact_theta(t) + 1e-3)
        with pytest.raises(AccuracyError, match="rotation residual"):
            self.z_many(np.linspace(10.0, 20.0, 5), cfg)
        with pytest.raises(AccuracyError, match="rotation residual"):
            riemann_siegel_Z(10.0, cfg)


class TestZetaCriticalMany:
    """The array evaluator against scalar zeta_critical, and its guards."""

    def test_matches_scalar(self, cfg):
        rng = np.random.default_rng(7)
        t = np.concatenate([rng.uniform(-259.0, 259.0, 400), [0.0, 99.9, -100.0, 100.0]])
        assert (np.abs(t) < cfg.rs_threshold).sum() > 100
        assert (np.abs(t) >= cfg.rs_threshold).sum() > 100
        many, bounds = zeta_critical_many(t, cfg)
        for x, value, bound in zip(t, many, bounds):
            one = zeta_critical(float(x), cfg)
            assert abs(value - one) <= 1e-15 * abs(one), x
            assert 0.0 < bound <= cfg.target_abs_error
            if abs(x) >= cfg.rs_threshold:
                assert bound == specfun._riemann_siegel_raw(abs(float(x)))[1]

    def test_empty(self, cfg):
        values, bounds = zeta_critical_many(np.array([]), cfg)
        assert values.shape == bounds.shape == (0,)

    def test_guards_raise_on_block(self, cfg):
        with pytest.raises(ValueError, match="finite"):
            zeta_critical_many(np.array([1.0, np.nan]), cfg)
        with pytest.raises(ValueError, match="finite"):
            zeta_critical_many(np.array([-np.inf, 1.0]), cfg)
        with pytest.raises(AccuracyError, match="validated range"):
            zeta_critical_many(np.array([10.0, -(VALIDATED_T_MAX + 1.0)]), cfg)
        tight = EvalConfig(target_abs_error=1e-14)
        with pytest.raises(AccuracyError, match="certified error"):
            zeta_critical_many(np.linspace(1.0, 50.0, 10), tight)
        # the Riemann-Siegel points keep their own bound check
        rs_tight = EvalConfig(target_abs_error=1e-10)
        zeta_critical_many(np.array([50.0, -99.0]), rs_tight)
        with pytest.raises(AccuracyError, match="certified error"):
            zeta_critical_many(np.array([50.0, -150.0]), rs_tight)


class TestRefineRoot:
    """refine_root runs scipy's brentq iteration: same root, same evaluations."""

    @staticmethod
    def agree_with_brentq(f, a, b):
        brentq = pytest.importorskip("scipy.optimize").brentq
        calls = []
        root, f_root, width, _ = refine_root(
            lambda x: calls.append(x) or f(x), a, f(a), b, f(b)
        )
        expected, info = brentq(f, a, b, xtol=1e-12, full_output=True)
        assert root == expected
        assert len(calls) + 2 == info.function_calls
        assert f_root == f(root)
        assert width <= 2e-12 + 1e-15 * abs(root)

    def test_z_brackets_of_the_zero_grid(self):
        """The Gram-point brackets that find_zeros refines, about 40 times
        wider than a 0.04 grid's."""
        rcfg = refinement_config(250.0)
        gram = specfun._gram_points(250.0)[1]
        grid = np.concatenate(([0.0], gram, [250.0]))
        values = rotate_to_Z(grid, zeta_critical_many(grid, rcfg)[0])
        brackets = np.flatnonzero(values[:-1] * values[1:] < 0.0)
        assert brackets.size == 108
        for i in brackets[::3]:
            self.agree_with_brentq(
                lambda x: riemann_siegel_Z(x, rcfg), float(grid[i]), float(grid[i + 1])
            )

    def test_sign_changes(self):
        """A point on a zero goes to the bracket that ends there; NaN brackets
        nothing; on a 2-D array the rule runs down each column."""
        values = np.array([1.0, 0.0, -1.0, -2.0, np.nan, 3.0, 4.0, -0.5])
        assert specfun._sign_changes(values)[0].tolist() == [0, 6]
        rows, cols = specfun._sign_changes(np.stack([values, -values], axis=1))
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0), (0, 1), (6, 0), (6, 1)]

    @pytest.mark.parametrize("c", np.linspace(-0.9, 0.9, 7))
    def test_analytic_functions(self, c):
        self.agree_with_brentq(lambda x: math.cos(x) - c, 0.0, math.pi)
        self.agree_with_brentq(lambda x: math.exp(x) - 2.0 - c, -1.0, 3.0)

    def test_end_on_a_root_and_bad_bracket(self):
        assert refine_root(math.sin, 0.0, 0.0, 1.0, math.sin(1.0))[:3] == (0.0, 0.0, 0.0)
        assert refine_root(math.sin, -1.0, math.sin(-1.0), 0.0, 0.0)[:3] == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="different signs"):
            refine_root(math.cos, 0.0, 1.0, 1.0, math.cos(1.0))
        with pytest.raises(ValueError, match="NaN"):
            refine_root(lambda x: math.nan, -1.0, -1.0, 1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=VALIDATED_T_MAX))
def test_em_bound_covers_error(t):
    """The Euler-Maclaurin bound holds against a 30-digit evaluation."""
    mpmath = pytest.importorskip("mpmath")
    value, bound = specfun._zeta_euler_maclaurin(t)
    with mpmath.workdps(30):
        exact = complex(mpmath.zeta(mpmath.mpc(0.5, t)))
    assert abs(value - exact) <= bound


def test_em_bound_rises_with_t():
    """find_zeros takes the larger Euler-Maclaurin bound of a Gram bracket's
    two ends as the bound at every point refine_root evaluates inside it; that
    holds because the bound never falls as t rises."""
    t = np.linspace(0.0, VALIDATED_T_MAX, 26001)
    bounds = np.concatenate(
        [specfun._zeta_euler_maclaurin(t[lo : lo + 256])[1] for lo in range(0, t.size, 256)]
    )
    assert (np.diff(bounds) >= 0.0).all()


def test_find_zeros_to_250_against_mpmath():
    """108 zeros up to t = 250; each abs_error bounds the distance to the
    matching mpmath zero (a spread sample: the full set takes 20 s)."""
    mpmath = pytest.importorskip("mpmath")
    zeros = find_zeros(0.0, 250.0)
    assert len(zeros) == 108
    for k in (1, 16, 31, 46, 61, 76, 91, 106, 108):
        with mpmath.workdps(20):
            exact = float(mpmath.zetazero(k).imag)
        assert abs(zeros[k - 1].ordinate - exact) <= zeros[k - 1].abs_error <= 1e-9


class TestJets:
    @pytest.mark.parametrize("t0", list(ZETA_JET_SAMPLES.keys()))
    def test_frozen_jets(self, t0):
        expected = ZETA_JET_SAMPLES[t0]
        got = zeta_jet(t0, order=4)
        budgets = [1e-9, 1e-9, 1e-8, 1e-7, 1e-6]
        for k, (g, e) in enumerate(zip(got, expected)):
            assert abs(g - e) <= budgets[k], f"order {k} at t0={t0}"

    def test_order_validation(self):
        with pytest.raises(ValueError):
            zeta_jet(25.0, order=5)


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(min_value=0, max_value=5),
    x0=st.floats(min_value=-2.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(degree=5, x0=0.4, seed=6282)  # 4.5e-7 error at k = 3: node gaps of a few 1e-3
def test_fd_weights_differentiate_polynomials(degree, x0, seed):
    """Fornberg weights are exact on polynomials up to the node count, to
    within 1e-7 or the rounding floor of the dot product sum_i w_i p(x_i),
    whichever is larger: on close nodes the weights grow and their terms
    cancel, and float summation alone then errs by a few eps sum |w_i p(x_i)|.
    """
    rng = np.random.default_rng(seed)
    nodes = np.sort(x0 + rng.uniform(-1.5, 1.5, size=9))
    if np.min(np.diff(nodes)) < 1e-3:
        return
    coeffs = rng.uniform(-2, 2, size=degree + 1)
    poly = np.polynomial.Polynomial(coeffs)
    w = finite_difference_weights(x0, nodes, max_order=3)
    samples = poly(nodes)
    for k in range(4):
        exact = poly.deriv(k)(x0) if k <= degree else 0.0
        approx = float(np.dot(w[k], samples))
        rounding = 16.0 * np.finfo(float).eps * float(np.sum(np.abs(w[k] * samples)))
        assert abs(approx - exact) <= max(1e-7 * max(1.0, abs(exact)), rounding)
