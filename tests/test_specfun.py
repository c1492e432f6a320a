"""Special-function layer: gamma, theta, critical-line zeta, zeros, jets."""

import cmath
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
from _riemann_siegel import (
    _RS_CONTOUR_NODES,
    _RS_CONTOUR_RADIUS,
    _psi_rs_derivatives,
    _riemann_siegel_raw,
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

    def test_log_gamma_poles(self):
        with pytest.raises(PoleError, match="log-gamma pole"):
            log_gamma(-2)

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
    def test_frozen_samples(self, t, expected):
        got = zeta_critical(t)
        assert abs(got - expected) <= 1e-6

    def test_zeta_half(self):
        got = zeta_critical(0.0)
        assert got.imag == 0.0
        assert got.real == pytest.approx(ZETA_HALF, abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        for t in rng.uniform(-60.0, 60.0, size=1000):
            left = zeta_critical(-t)
            right = zeta_critical(t).conjugate()
            assert abs(left - right) <= 1e-10

    @pytest.mark.parametrize("t,expected", list(SIEGEL_Z_SAMPLES.items()))
    def test_z_frozen_samples(self, t, expected):
        assert riemann_siegel_Z(t) == pytest.approx(expected, abs=1e-6)

    def test_z_reality(self):
        # Z is the rotation of zeta onto the real axis; recompute the
        # rotation directly and bound its imaginary part
        for t in (5.0, 30.0, 57.3, 80.0, 99.0, 130.0, 220.0):
            rotated = np.exp(1j * siegel_theta(t)) * zeta_critical(t)
            assert abs(rotated.imag) <= 1e-9
            assert riemann_siegel_Z(t) == pytest.approx(rotated.real, abs=1e-9)

    def test_method_overlap_band(self):
        # Euler-Maclaurin against the independent Riemann-Siegel route, 85 to 115
        for t in np.linspace(85.0, 115.0, 13):
            em = specfun._zeta_euler_maclaurin(t)[0]
            rs = _riemann_siegel_raw(t)[0] * np.exp(-1j * siegel_theta(t))
            assert abs(em - rs) <= 1e-7

    def test_out_of_validated_range(self):
        with pytest.raises(AccuracyError):
            zeta_critical(VALIDATED_T_MAX + 5.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_z_needs_finite_t(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            riemann_siegel_Z(t)
        with pytest.raises(ValueError, match="t must be finite"):
            zeta_critical(t)

    def test_z_needs_nonnegative_t(self):
        with pytest.raises(ValueError, match="requires t >= 0"):
            riemann_siegel_Z(-1.0)

    def test_unreachable_target(self, monkeypatch):
        monkeypatch.setattr(specfun, "_TARGET_ABS_ERROR", 1e-14)
        with pytest.raises(AccuracyError, match="certified error"):
            zeta_critical(150.0)
        with pytest.raises(AccuracyError, match="certified error"):
            zeta_critical(-50.0)

    def test_above_100_against_mpmath(self):
        """41 points of [100, 260], where the Riemann-Siegel route errs by
        up to 3.7e-8; the scalar Euler-Maclaurin kernel's worst is 2.1e-13."""
        mpmath = pytest.importorskip("mpmath")
        for t in np.linspace(100.0, VALIDATED_T_MAX, 41):
            with mpmath.workdps(30):
                exact = complex(mpmath.zeta(mpmath.mpc(0.5, float(t))))
            assert abs(zeta_critical(float(t)) - exact) <= 1e-11, f"t = {t}"


class TestEvalConfig:
    def test_validation(self):
        # no field: no evaluator takes Riemann-Siegel, the value the benchmark reads
        assert EvalConfig().rs_threshold == math.inf
        with pytest.raises(TypeError):
            EvalConfig(100.0)
        with pytest.raises(TypeError):
            EvalConfig(rs_threshold=100.0)
        assert specfun._TARGET_ABS_ERROR == 1e-6

    def test_zero_record_validation(self):
        with pytest.raises(ValueError):
            ZetaZero(ordinate=-1.0, multiplicity=1, abs_error=1e-9)
        with pytest.raises(ValueError):
            ZetaZero(ordinate=14.0, multiplicity=0, abs_error=1e-9)


class TestFindZeros:
    def test_first_thirteen(self, zeros60):
        oracle = [t for t in ZERO_ORDINATES if t <= 60.0]
        assert len(zeros60) == len(oracle) == 13
        for z, t in zip(zeros60, oracle):
            assert abs(z.ordinate - t) <= 1e-9
            assert abs(z.ordinate - t) <= z.abs_error
            assert z.multiplicity == 1
            assert abs(zeta_critical(z.ordinate)) < 1e-6

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

    def test_range_validation(self):
        with pytest.raises(ValueError, match="need 0 <= t_min < t_max"):
            find_zeros(5.0, 5.0)
        with pytest.raises(AccuracyError, match="exceeds the validated range"):
            find_zeros(0.0, 300.0)

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
        """Ordinates come back bit for bit, so a locus 2 pi / t_k computed
        from the cache is the one computed from the zeros that wrote it."""
        path = tmp_path / "zeros.csv"
        write_zero_cache(path, zeros60)
        back = read_zero_cache(path)
        assert [z.ordinate for z in back] == [z.ordinate for z in zeros60]
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

    def test_cache_rejects_a_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,m,e\n14.1,1,1e-9\n")
        with pytest.raises(ValueError, match="unexpected zero-cache header"):
            read_zero_cache(path)

    def test_write_rejects_decreasing_zeros_and_writes_nothing(self, tmp_path, zeros60):
        with pytest.raises(ValueError, match="strictly increasing"):
            write_zero_cache(tmp_path / "zeros.csv", zeros60[::-1])
        assert list(tmp_path.iterdir()) == []

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
        top = VALIDATED_T_MAX
        return np.concatenate(
            [np.linspace(0.0, 99.9, 700), np.linspace(top - 1.0, top, 50, endpoint=False)]
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
    def z_many(t):
        zeta, bounds = zeta_critical_many(t)
        return rotate_to_Z(t, zeta), bounds

    @staticmethod
    def z_point(x: float) -> float:
        """Z(x) from the scalar Euler-Maclaurin kernel, rotated one point at a time."""
        return (cmath.exp(1j * siegel_theta(x)) * specfun._zeta_euler_maclaurin(x)[0]).real

    def test_spread_unsorted_block_matches_points_exactly(self):
        """One block of shuffled t over [0, 260], the Gram points to 250 and
        random points, so its rows' sum lengths differ by more than 100: each
        point's value and bound equal the float path's bit for bit."""
        rng = np.random.default_rng(11)
        gram = specfun._gram_points(250.0)[1]
        random = rng.uniform(0.0, VALIDATED_T_MAX, 256 - gram.size)
        t = rng.permutation(np.concatenate([gram, random]))
        values, bounds = specfun._zeta_euler_maclaurin(t)
        for x, value, bound in zip(t, values, bounds):
            assert specfun._zeta_euler_maclaurin(float(x)) == (value, bound), x

    def test_z_grid_matches_points(self):
        t = self.em_points()
        values, _ = self.z_many(t)
        for x, value in zip(t, values):
            z1 = self.z_point(float(x))
            assert abs(value - z1) <= 1e-15 * abs(z1), x

    def test_scalar_and_block_agree_at_and_above_100(self):
        """The block and scalar Z, and scalar zeta_critical, are one
        Euler-Maclaurin route on both sides of t = 100."""
        t = np.array([90.0, 99.5, 100.0, 130.0, 259.0])
        values, bounds = self.z_many(t)
        zeta = zeta_critical_many(t)[0]
        for x, value, bound, one in zip(t, values, bounds, zeta):
            assert value == pytest.approx(self.z_point(float(x)), rel=1e-15)
            assert bound == pytest.approx(specfun._zeta_euler_maclaurin(float(x))[1], rel=1e-15)
            assert zeta_critical(float(x)) == one

    def test_guards_raise_on_block(self, monkeypatch):
        with pytest.raises(AccuracyError, match="validated range"):
            self.z_many(np.array([250.0, VALIDATED_T_MAX + 1.0]))
        with pytest.raises(AccuracyError, match="validated range"):
            riemann_siegel_Z(VALIDATED_T_MAX + 1.0)
        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_TARGET_ABS_ERROR", 1e-14)
            with pytest.raises(AccuracyError, match="certified error"):
                self.z_many(np.linspace(1.0, 50.0, 10))
            with pytest.raises(AccuracyError, match="certified error"):
                riemann_siegel_Z(1.0)
        exact_theta = specfun.siegel_theta
        monkeypatch.setattr(specfun, "siegel_theta", lambda t: exact_theta(t) + 1e-3)
        with pytest.raises(AccuracyError, match="rotation residual"):
            self.z_many(np.linspace(10.0, 20.0, 5))
        with pytest.raises(AccuracyError, match="rotation residual"):
            riemann_siegel_Z(10.0)


class TestZetaCriticalMany:
    """The array evaluator against scalar zeta_critical, and its guards."""

    def test_matches_scalar(self):
        """Scalar zeta_critical equals the block value bit for bit, over
        [-259, 259]; both agree with the scalar Euler-Maclaurin kernel."""
        rng = np.random.default_rng(7)
        t = np.concatenate([rng.uniform(-259.0, 259.0, 400), [0.0, 99.9, -100.0, 100.0]])
        many, bounds = zeta_critical_many(t)
        for x, value, bound in zip(t, many, bounds):
            one, em_bound = specfun._zeta_euler_maclaurin(abs(float(x)))
            one = one.conjugate() if x < 0.0 else one
            assert zeta_critical(float(x)) == value, x
            assert abs(value - one) <= 1e-15 * abs(one), x
            assert 0.0 < bound <= specfun._TARGET_ABS_ERROR
            assert bound == pytest.approx(em_bound, rel=1e-15)

    def test_empty(self):
        values, bounds = zeta_critical_many(np.array([]))
        assert values.shape == bounds.shape == (0,)

    @pytest.mark.parametrize("t", [3.0, np.ones((2, 2))], ids=["scalar", "2-D"])
    def test_input_must_be_one_dimensional(self, t):
        with pytest.raises(ValueError, match="t must be a 1-D array"):
            zeta_critical_many(t)

    def test_guards_raise_on_block(self, monkeypatch):
        with pytest.raises(ValueError, match="finite"):
            zeta_critical_many(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            zeta_critical_many(np.array([-np.inf, 1.0]))
        with pytest.raises(AccuracyError, match="validated range"):
            zeta_critical_many(np.array([10.0, -(VALIDATED_T_MAX + 1.0)]))
        monkeypatch.setattr(specfun, "_TARGET_ABS_ERROR", 1e-14)
        with pytest.raises(AccuracyError, match="certified error"):
            zeta_critical_many(np.linspace(1.0, 50.0, 10))
        with pytest.raises(AccuracyError, match="certified error"):
            zeta_critical_many(np.array([-50.0, 150.0]))


class TestRefineRoot:
    """The lockstep refiner: many brackets in one call, each lane to within
    xtol = 1e-12 + 4 eps |x| of its root, whatever lanes it shares calls with."""

    @staticmethod
    def refine(f, a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return specfun._refine_roots(f, a, f(a), b, f(b))

    def test_z_brackets_of_the_zero_grid(self):
        """The 108 Gram-point brackets of find_zeros(0, 250) in one call:
        each root within 2 xtol of scipy's brentq on the same bracket."""
        brentq = pytest.importorskip("scipy.optimize").brentq
        gram = specfun._gram_points(250.0)[1]
        grid = np.concatenate(([0.0], gram, [250.0]))
        values = rotate_to_Z(grid, zeta_critical_many(grid)[0])
        i = np.flatnonzero(values[:-1] * values[1:] < 0.0)
        assert i.size == 108
        z_at = lambda t: rotate_to_Z(t, zeta_critical_many(t)[0])
        root, width, slope = self.refine(z_at, grid[i], grid[i + 1])
        assert (width <= 1e-12 + 4.0 * np.finfo(float).eps * root).all()
        assert (slope > 0.0).all() and (np.abs(z_at(root)) <= slope * width).all()
        for k in range(0, 108, 3):
            expected = brentq(riemann_siegel_Z, grid[i[k]], grid[i[k] + 1], xtol=1e-12)
            assert abs(root[k] - expected) <= 2e-12

    def test_sign_changes(self):
        """A point on a zero goes to the bracket that ends there; NaN brackets
        nothing; on a 2-D array the rule runs down each column."""
        values = np.array([1.0, 0.0, -1.0, -2.0, np.nan, 3.0, 4.0, -0.5])
        assert specfun._sign_changes(values)[0].tolist() == [0, 6]
        rows, cols = specfun._sign_changes(np.stack([values, -values], axis=1))
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0), (0, 1), (6, 0), (6, 1)]

    @pytest.mark.parametrize("c", np.linspace(-0.9, 0.9, 7))
    def test_analytic_functions(self, c):
        """cos x - c on [k pi, (k + 1) pi] for k = 0..39, and e^x - 2 - c on
        40 brackets of widths from 0.1 to 8 around log(2 + c): one call each,
        every root within xtol of the closed form."""
        xtol = lambda x: 1e-12 + 4.0 * np.finfo(float).eps * np.abs(x)
        k = np.arange(40.0)
        root, width, _ = self.refine(lambda x: np.cos(x) - c, k * np.pi, (k + 1) * np.pi)
        exact = np.where(k % 2 == 0, k * np.pi + np.arccos(c), (k + 1) * np.pi - np.arccos(c))
        assert (np.abs(root - exact) <= xtol(exact)).all() and (width < xtol(root)).all()
        exact = math.log(2.0 + c)
        spread = np.linspace(0.1, 8.0, 40)
        root, width, _ = self.refine(
            lambda x: np.exp(x) - 2.0 - c, exact - 0.3 * spread, exact + 0.7 * spread
        )
        assert (np.abs(root - exact) <= xtol(exact)).all() and (width < xtol(root)).all()

    def test_end_on_a_root_and_bad_bracket(self):
        """An end on a root is returned at once with width 0. A bracket on
        which f gives NaN raises (ends of one sign are not checked: the one
        caller passes sign changes only)."""
        root, width, _ = self.refine(np.sin, [0.0, -1.0, 2.0], [1.0, 0.0, 4.0])
        assert root[:2].tolist() == [0.0, 0.0] and width[:2].tolist() == [0.0, 0.0]
        assert abs(root[2] - math.pi) <= 1e-12 and width[2] > 0.0
        with pytest.raises(ValueError, match="NaN"):
            specfun._refine_roots(lambda x: np.full(x.size, np.nan), [-1.0], [-1.0], [1.0], [1.0])

    def test_a_subset_gives_identical_lanes(self):
        """Refining some of the brackets returns, for each, the very floats of
        refining all of them: find_zeros' records do not depend on t_min."""
        gram = specfun._gram_points(250.0)[1]
        values = rotate_to_Z(gram, zeta_critical_many(gram)[0])
        i = np.flatnonzero(values[:-1] * values[1:] < 0.0)
        f = lambda t: rotate_to_Z(t, zeta_critical_many(t)[0])
        whole = np.stack(self.refine(f, gram[i], gram[i + 1]))
        for part in (i[1::2], i[40:47], i[-1:]):
            picked = np.isin(i, part)
            assert np.array_equal(np.stack(self.refine(f, gram[part], gram[part + 1])),
                                  whole[:, picked])


@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1000.0))
def test_em_bound_covers_error(t):
    """The Euler-Maclaurin bound holds against a 30-digit evaluation, up to
    t = 1000, past VALIDATED_T_MAX: the main-sum length N = ceil(0.4 t) + 8
    keeps the truncation term at most 2% of the rounding term there."""
    mpmath = pytest.importorskip("mpmath")
    value, bound = specfun._zeta_euler_maclaurin(t)
    with mpmath.workdps(30):
        exact = complex(mpmath.zeta(mpmath.mpc(0.5, t)))
    assert abs(value - exact) <= bound


def test_riemann_siegel_bound_covers_error():
    """The Riemann-Siegel bound holds against mpmath at 161 points of
    [20, VALIDATED_T_MAX]. The worst point uses 0.76 of its bound, near
    t = 21.5."""
    mpmath = pytest.importorskip("mpmath")
    for t in np.linspace(20.0, VALIDATED_T_MAX, 161):
        value, bound = _riemann_siegel_raw(float(t))
        with mpmath.workdps(20):
            exact = float(mpmath.siegelz(float(t)))
        assert abs(value - exact) <= bound, f"t = {t}"


def test_psi_rs_derivatives_against_mpmath():
    """The Riemann-Siegel correction's Psi^(k)(p0), k = 0..12, from one Cauchy
    integral, against mpmath.diffs at p0 in [0, 1) off the removable
    singularities 1/4 + k/2 (where the reference would divide 0 by 0). Each
    error stays below 1e-13 of the Cauchy scale k! max|Psi| / r^k on the
    contour; rounding puts it near 3e-16 of that scale."""
    mp = pytest.importorskip("mpmath")

    def psi(p):
        return mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)

    r, m = _RS_CONTOUR_RADIUS, _RS_CONTOUR_NODES
    for p0 in np.arange(0.0, 1.0, 0.05).tolist():
        if min(abs(p0 - 0.25), abs(p0 - 0.75)) <= 0.01:
            continue
        got = _psi_rs_derivatives(p0)
        with mp.workdps(30):
            exact = mp.diffs(psi, mp.mpf(p0), 12)
            top = max(abs(psi(p0 + r * mp.expjpi(2 * (j + 0.5) / m))) for j in range(m))
            for k, (g, e) in enumerate(zip(got, exact)):
                scaled = float(abs(g - e) * r**k / (mp.factorial(k) * top))
                assert scaled <= 1e-13, f"p0 = {p0:.2f}, order {k}"


def test_em_bound_rises_with_t():
    """find_zeros takes the larger Euler-Maclaurin bound of a Gram bracket's
    two ends as the bound at every point the refiner evaluates inside it; that
    holds because the bound never falls as t rises, checked up to t = 1000."""
    t = np.linspace(0.0, 1000.0, 100001)
    bounds = np.concatenate(
        [specfun._zeta_euler_maclaurin(t[lo : lo + 256])[1] for lo in range(0, t.size, 256)]
    )
    assert (np.diff(bounds) >= 0.0).all()


def test_em_length_rule():
    """The main sum runs to N = ceil(0.4 t) + 8: the bound is the rounding
    term eps (t log N + N) 2 sqrt(N) at that N plus a truncation term of at
    most 2% of it. A shorter sum has a smaller rounding term, and a longer one
    a larger (ceil(t/2) + 10 raises the bound 16% past it at t = 1000)."""
    t = np.linspace(0.0, 1000.0, 20001)
    bounds = np.concatenate(
        [specfun._zeta_euler_maclaurin(t[lo : lo + 256])[1] for lo in range(0, t.size, 256)]
    )
    big_n = np.ceil(0.4 * t) + 8.0
    rounding = np.finfo(float).eps * (t * np.log(big_n) + big_n) * 2.0 * np.sqrt(big_n)
    assert (bounds >= (1.0 - 1e-12) * rounding).all()
    assert (bounds <= 1.02 * rounding).all()


def test_find_zeros_evaluation_budget(monkeypatch):
    """find_zeros(0, 250) evaluates zeta at 888 points: 110 on the Gram grid
    and 778 in refinement, whose first step is regula falsi (bisection there
    took 948 in all)."""
    points, zeta_critical_many = [], specfun.zeta_critical_many
    monkeypatch.setattr(
        specfun, "zeta_critical_many", lambda t: points.append(len(t)) or zeta_critical_many(t)
    )
    assert len(find_zeros(0.0, 250.0)) == 108
    assert sum(points) <= 890


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

    @pytest.mark.parametrize("t0", [120.0, 180.0, 250.0])
    def test_jets_above_100_against_mpmath(self, t0):
        """The 13 samples are on Euler-Maclaurin above 100 too. Budgets are
        relative to max(1, |zeta^(k)|), at least 3x the worst error over
        t0 in [100, 259.8]: 3.0e-13, 4.4e-12, 1.6e-10, 7.3e-10, 4.1e-8."""
        mpmath = pytest.importorskip("mpmath")
        got = zeta_jet(t0, order=4)
        budgets = [1e-12, 2e-11, 5e-10, 3e-9, 2e-7]
        with mpmath.workdps(30):
            s0 = mpmath.mpc(0.5, t0)
            exact = [complex(mpmath.zeta(s0, derivative=k)) for k in range(5)]
        for k, (g, e) in enumerate(zip(got, exact)):
            assert abs(g - e) <= budgets[k] * max(1.0, abs(e)), f"order {k} at t0={t0}"

    def test_order_zero_is_the_centre_sample(self):
        (value,) = zeta_jet(33.0, order=0)
        assert value == zeta_jet(33.0, order=4)[0] == zeta_critical_many([33.0])[0][0]

    def test_order_validation(self):
        with pytest.raises(ValueError):
            zeta_jet(25.0, order=5)

    @pytest.mark.parametrize("order", [2.5, "2"])
    def test_order_must_be_an_integer(self, monkeypatch, order):
        monkeypatch.setattr(specfun, "zeta_critical_many", None)  # checked before evaluating
        with pytest.raises(ValueError, match=f"order must be an integer between 0 and 4, got {order!r}"):
            zeta_jet(1.0, order)

    def test_stencil_stays_inside_the_validated_range(self):
        """The 13 nodes reach t0 +- 0.18: at the top of the range a jet
        returns while its nodes end at VALIDATED_T_MAX, and past that it
        raises before any evaluation, naming t0 and not a node."""
        top = VALIDATED_T_MAX - 0.18
        assert len(zeta_jet(top, 4)) == 5
        assert len(zeta_jet(-top, 4)) == 5
        for t0 in (259.9, -259.9, 260.0):
            with pytest.raises(AccuracyError, match=rf"t0 = {t0:g} samples t0 \+- 0.18"):
                zeta_jet(t0, 4)
        assert zeta_jet(VALIDATED_T_MAX, 0) == [zeta_critical(VALIDATED_T_MAX)]


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


def test_fd_weights_need_a_node():
    with pytest.raises(ValueError, match="need at least one node"):
        finite_difference_weights(0.0, [], 0)


def test_fd_weights_at_a_first_node_pick_its_sample():
    """With x0 the first node, the order-0 weights are exactly (1, 0, ..., 0):
    a stencil that lists a node at its point first reads that node's sample."""
    nodes = [0.7, 0.69, 0.72, 0.66, 0.75]
    w = finite_difference_weights(0.7, nodes, max_order=2)
    assert w[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
