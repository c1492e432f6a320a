"""Test-function family, symbolic operator actions, Mellin transforms."""

import dataclasses
import math
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle_frozen import (
    PSI_CANONICAL_SAMPLES,
    PSI_F0_SAMPLES,
    PSI_F1_SAMPLES,
)
from zetacycles import schwartz
from zetacycles.schwartz import (
    MellinDomainError,
    RepresentationError,
    apply_H,
    apply_one_plus_H,
    default_family,
    fourier_transform,
    gaussian_seed,
    linear_combination,
    make_test_function,
    mellin_psi,
    mellin_psi_many,
)


def gaussian_moment(j: int, scale: float) -> float:
    """integral of x^(2j) exp(-scale x^2) over the real line."""
    return math.gamma(j + 0.5) / scale ** (j + 0.5)


class TestFamilyConstruction:
    def test_seed_is_monomial(self):
        for k in range(4):
            g = gaussian_seed(k)
            assert g.coeffs == (0.0,) * k + (1.0,)
            # the Gaussian factor is exp(-pi x^2)
            assert g(0.5) == 0.25**k * np.exp(-math.pi * 0.25)

    def test_member_coefficients(self):
        pi = math.pi
        assert make_test_function(0).coeffs == (0.0, -6.0 * pi, 4.0 * pi * pi)
        assert make_test_function(1).coeffs == (0.0, 6.0, -14.0 * pi, 4.0 * pi * pi)
        # f_k = H (1 + H) g_k, by the rules c_j -> (2j+1) c_j - 2a c_{j-1} and
        # then c_j -> 2j c_j - 2a c_{j-1}, bit for bit
        for k in range(9):
            c = (0.0,) * k + (1.0, 0.0)
            c = [(2 * j + 1) * c[j] - 2 * pi * (c[j - 1] if j else 0.0) for j in range(k + 2)]
            c.append(0.0)
            rule = [2 * j * c[j] - 2 * pi * (c[j - 1] if j else 0.0) for j in range(k + 3)]
            assert make_test_function(k).coeffs == tuple(rule)

    def test_canonical_vector(self, canonical):
        # (2 pi x^2 - 1) exp(-pi x^2), outside the f_k family since f(0) = -1
        assert canonical(0.0) == -1.0
        for x in (0.3, 1.0, 2.5):
            expected = (2.0 * math.pi * x * x - 1.0) * math.exp(-math.pi * x * x)
            assert canonical(x) == pytest.approx(expected, rel=1e-14)

    def test_member_vanishes_at_origin(self):
        for f in default_family():
            assert f.coeffs[0] == 0.0
            assert f(0.0) == 0.0

    def test_member_mean_zero(self, canonical):
        # integral of H(1+H)g vanishes identically; check via moments
        for f in default_family() + [canonical]:
            total = sum(
                c * gaussian_moment(j, math.pi)
                for j, c in enumerate(f.coeffs)
            )
            assert abs(total) <= 1e-10

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            make_test_function(9)
        with pytest.raises(ValueError):
            gaussian_seed(-1)

    def test_linear_combination_pointwise(self, family):
        combo = linear_combination(family, [1.0, -2.0, 0.5])
        for x in (0.0, 0.3, 1.7):
            direct = family[0](x) - 2.0 * family[1](x) + 0.5 * family[2](x)
            assert combo(x) == pytest.approx(direct, rel=1e-14, abs=1e-300)

    def test_linear_combination_needs_one_weight_per_function(self, family):
        with pytest.raises(ValueError, match="equally many functions and weights"):
            linear_combination(family[:1], [])

    def test_representation_guard(self):
        with pytest.raises(RepresentationError):
            apply_H(lambda x: x)


class TestFourierTransform:
    def test_seed_one(self):
        """g1 = x^2 exp(-pi x^2) transforms to (1/(2 pi) - y^2) exp(-pi y^2)."""
        assert fourier_transform(gaussian_seed(1)).coeffs == (1.0 / (2.0 * math.pi), -1.0)

    def test_twice_is_the_identity(self):
        """Each f is even, so F(F f) = f: within 1e-10 of max|c_j| over f0-f8
        and g0-g8 (1.6e-11 at worst, for f8)."""
        for k in range(9):
            for f in (make_test_function(k), gaussian_seed(k)):
                back = fourier_transform(fourier_transform(f)).coeffs
                assert len(back) == len(f.coeffs), f.label
                worst = max(abs(b - c) for b, c in zip(back, f.coeffs))
                assert worst <= 1e-10 * max(map(abs, f.coeffs)), f.label

    def test_representation_guard(self):
        with pytest.raises(RepresentationError):
            fourier_transform(lambda x: x)


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=6))
def test_fourier_transform_of_any_coefficients(coeffs):
    """Against the trapezoid sum of f(x) cos(2 pi x y) on [-8, 8], which is
    spectrally accurate for a Gaussian, and F(F f) = f on the coefficients."""
    f = schwartz.TestFunction(tuple(coeffs))
    fh = fourier_transform(f)
    scale = sum(abs(c) * gaussian_moment(j, math.pi) for j, c in enumerate(f.coeffs))
    x = np.linspace(-8.0, 8.0, 1601)
    for y in (0.0, 0.35, 1.3, 2.0):
        quadrature = 0.01 * float(np.sum(f(x) * np.cos(2.0 * math.pi * x * y)))
        assert abs(float(fh(y)) - quadrature) <= 1e-12 * scale + 1e-300, y
    back = fourier_transform(fh).coeffs
    worst = max(abs(b - c) for b, c in zip_longest(back, f.coeffs, fillvalue=0.0))
    assert worst <= 1e-10 * max(map(abs, f.coeffs)) + 1e-300


class TestOperatorAction:
    def test_H_matches_x_ddx(self, family):
        h = 1e-6
        for f in family:
            hf = apply_H(f)
            for x in (0.25, 0.8, 1.9):
                fd = x * (f(x + h) - f(x - h)) / (2.0 * h)
                assert hf(x) == pytest.approx(fd, rel=1e-8, abs=1e-12)

    def test_one_plus_H(self, family):
        for f in family:
            g = apply_one_plus_H(f)
            for x in (0.4, 1.1):
                assert g(x) == pytest.approx(f(x) + apply_H(f)(x), rel=1e-13)

    def test_mellin_multiplier_of_H(self, family):
        # psi(H f)(z) = (iz - 1/2) psi(f)(z); the full composition
        # H(1+H) therefore multiplies by -(z^2 + 1/4)
        for f in family:
            for z in (-4.0, 0.7, 2.5):
                lhs = mellin_psi(apply_H(f), z)[0]
                rhs = (1j * z - 0.5) * mellin_psi(f, z)[0]
                assert abs(lhs - rhs) <= 1e-9


class TestMellin:
    @pytest.mark.parametrize("z,expected", list(PSI_F0_SAMPLES.items()))
    def test_frozen_f0(self, z, expected):
        got = mellin_psi(make_test_function(0), z)[0]
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))

    @pytest.mark.parametrize("z,expected", list(PSI_F1_SAMPLES.items()))
    def test_frozen_f1(self, z, expected):
        got = mellin_psi(make_test_function(1), z)[0]
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))

    @pytest.mark.parametrize("z,expected", list(PSI_CANONICAL_SAMPLES.items()))
    def test_frozen_canonical(self, canonical, z, expected):
        got = mellin_psi(canonical, z)[0]
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_closed_form_against_mpmath(self, family, canonical):
        """The one-Gamma closed form is within 1e-11 relative of the Gamma
        series summed term by term at 40 digits, on |z| <= 280 and at complex
        z down to Im z = -0.48. Near psi's zero at i/2 a Gamma per term would
        leave its rounding uncancelled (f2 reached 6e-11 at 0.499i that way)."""
        mpmath = pytest.importorskip("mpmath")
        points = [*np.linspace(-280.0, 280.0, 141), 0.3j, 0.45j, 0.499j, 0.501j, 1j,
                  3.0 + 0.2j, -1.0 - 0.4j, 7.0 - 0.48j, 100.0 + 1.0j]
        with mpmath.workdps(40):
            for f in [*family, canonical, gaussian_seed(8)]:
                for z in points:
                    a = mpmath.mpf(1) / 4 - mpmath.mpc(0, 1) * mpmath.mpc(complex(z)) / 2
                    exact = sum(mpmath.mpf(c) * mpmath.pi ** -(a + j) * mpmath.gamma(a + j)
                                for j, c in enumerate(f.coeffs) if c != 0.0) / 2
                    got = mellin_psi(f, z)[0]
                    assert abs(got - exact) <= 1e-11 * abs(exact), (f.label, z)

    def test_vanishing_at_i_half(self, family, canonical):
        for f in family + [canonical]:
            assert abs(mellin_psi(f, 0.5j)[0]) <= 1e-9

    def test_closed_vs_quadrature(self, family, canonical):
        for f in family + [canonical]:
            for z in np.linspace(-8.0, 8.0, 9):
                closed = mellin_psi(f, float(z), method="closed")[0]
                quad, quad_error = mellin_psi(f, float(z), method="quadrature")
                assert abs(closed - quad) <= 1e-9
                assert quad_error >= 0.0

    def test_reality_symmetry(self, family):
        for f in family:
            for s in (0.9, 4.2, 17.0):
                assert abs(
                    mellin_psi(f, -s)[0] - mellin_psi(f, s)[0].conjugate()
                ) <= 1e-10

    def test_rapid_decay_monotone_tail(self, family):
        ss = np.arange(20.0, 60.1, 2.0)
        for f in family:
            for m in (1, 2, 3, 4):
                vals = [s**m * abs(mellin_psi(f, float(s))[0]) for s in ss]
                assert all(a > b for a, b in zip(vals, vals[1:]))
                assert vals[-1] < 1e-6

    def test_domain_error(self, family):
        with pytest.raises(MellinDomainError):
            mellin_psi(family[0], -0.5j, method="quadrature")

    @pytest.mark.parametrize("part", [math.inf, -math.inf, math.nan])
    def test_z_must_be_finite(self, family, part):
        for z in (complex(part, 1.0), complex(1.0, part)):
            for method in ("closed", "quadrature"):
                with pytest.raises(ValueError, match="z must be finite"):
                    mellin_psi(family[0], z, method=method)
            with pytest.raises(ValueError, match="z must be finite"):
                mellin_psi_many(family[0], np.array([0.5, z]))

    def test_zero_function(self):
        zero = linear_combination([make_test_function(0)], [0.0])
        assert zero.is_zero
        assert mellin_psi(zero, 1.0)[0] == 0.0
        assert np.array_equal(mellin_psi_many(zero, np.array([0.0, 2.0])), [0.0, 0.0])


class TestMellinMany:
    """The array path shares the closed form with the scalar one."""

    def test_matches_scalar(self, family, canonical):
        z = np.concatenate([np.linspace(-280.0, 280.0, 401), [0.5j, 3.0 + 0.2j, -1.0 - 0.4j]])
        for f in [*family, canonical, gaussian_seed(8)]:
            many = mellin_psi_many(f, z)
            assert many.shape == z.shape
            for x, value in zip(z, many):
                one = mellin_psi(f, x)[0]
                assert abs(value - one) <= 1e-15 * abs(one), (f.label, x)

    def test_domain_error(self, family):
        with pytest.raises(MellinDomainError):
            mellin_psi_many(family[0], np.array([1.0, 2.0 - 0.5j]))
        assert mellin_psi_many(family[0], np.array([])).shape == (0,)

    def test_bare_function_takes_the_closed_form(self, family):
        # a function built from its coefficients alone has the closed form
        # on both paths, and it agrees with the independent quadrature
        bare = schwartz.TestFunction(family[1].coeffs)
        z = np.array([-3.0, 0.0, 1.5, 4.0])
        many = mellin_psi_many(bare, z)
        for x, value in zip(z, many):
            one, one_error = mellin_psi(bare, x)
            assert value == one == mellin_psi(family[1], x)[0]
            assert one_error == 1e-13 * (1.0 + abs(one))
            assert abs(value - mellin_psi(bare, x, method="quadrature")[0]) <= 1e-9

    def test_unknown_method(self, family):
        with pytest.raises(ValueError, match="unknown method"):
            mellin_psi(family[0], 1.0, method="auto")


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(min_value=0.01, max_value=3.0),
    w0=st.floats(min_value=-2.0, max_value=2.0),
    w1=st.floats(min_value=-2.0, max_value=2.0),
)
def test_combination_evaluates_linearly(x, w0, w1):
    f0, f1 = make_test_function(0), make_test_function(1)
    combo = linear_combination([f0, f1], [w0, w1])
    assert combo(x) == pytest.approx(w0 * f0(x) + w1 * f1(x), rel=1e-12, abs=1e-15)


def test_horner_from_the_leading_coefficient(family, canonical):
    """f(x) starts its Horner sum at the leading coefficient; a sum started
    at 0 gives 0 x^2 + c = c, so the two are equal bit for bit."""
    x = np.concatenate([np.linspace(-6.0, 6.0, 1201), [0.0, 1e-300, 38.0]])
    for f in [*family, canonical, gaussian_seed(0), gaussian_seed(8)]:
        poly = np.zeros_like(x)
        for c in reversed(f.coeffs):
            poly = poly * x**2 + c
        assert np.array_equal(f(x), poly * np.exp(-math.pi * x**2)), f.label
        assert all(f(float(t)) == value for t, value in zip(x[::50], f(x)[::50]))


def test_replaced_coefficients_carry_their_own_transform_and_decay(family):
    f0, f1 = family[0], family[1]
    g = dataclasses.replace(f0, coeffs=f1.coeffs)
    z = np.array([-6.0, 0.0, 2.0, 7.5])
    assert np.array_equal(mellin_psi_many(g, z), mellin_psi_many(f1, z))
    for x in z:
        psi = mellin_psi(g, x)[0]
        assert psi == mellin_psi(f1, x)[0]
        assert abs(psi - mellin_psi(g, x, method="quadrature")[0]) <= 1e-9
    assert g.decay == f1.decay  # which test_decay_certificate_bounds_samples checks


def test_decay_certificate_bounds_samples(family):
    # |f(x)| <= C exp(-rate x^2) must hold on a coarse sweep
    for f in family:
        C, rate = f.decay
        for x in np.linspace(0.0, 5.0, 41):
            assert abs(f(x)) <= C * math.exp(-rate * x * x) * (1.0 + 1e-12) + 1e-300
