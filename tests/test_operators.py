"""Summation operator E, periodization, Fourier analysis on circles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle_frozen import E_SUM_CANONICAL_U1
from zetacycles.operators import (
    CircleFunction,
    InsufficientModesError,
    ResolutionError,
    circle_from_payload,
    circle_to_payload,
    covering_sigma,
    eval_E,
    fourier_closed,
    fourier_direct,
    scaling_theta,
    trace_identity_check,
)
from zetacycles.schwartz import gaussian_seed, linear_combination, make_test_function, mellin_psi
from zetacycles.specfun import zeta_critical

EPS = np.finfo(float).eps
CRITERION_1_LENGTHS = (0.8, 1.0, math.log(4.0))


def vector_rel_diff(a: CircleFunction, b: CircleFunction) -> float:
    scale = max(abs(b.coeff(n)) for n in range(-b.N, b.N + 1))
    worst = max(abs(a.coeff(n) - b.coeff(n)) for n in range(-b.N, b.N + 1))
    return worst / scale


class TestEvalE:
    def test_canonical_frozen_value(self, canonical):
        value, tail = eval_E(canonical, 1.0, 1e-13)
        assert value == pytest.approx(E_SUM_CANONICAL_U1, abs=1e-12)
        assert tail.bound <= 1e-13
        assert tail.terms_used >= 8

    def test_far_tail_is_certifiably_tiny(self, family):
        value, tail = eval_E(family[0], 10.0, 1e-110)
        assert abs(value) + tail.bound < 1e-100

    def test_input_validation(self, family):
        with pytest.raises(ValueError):
            eval_E(family[0], 0.0, 1e-10)
        with pytest.raises(ValueError):
            eval_E(family[0], 1.0, 0.0)

    def test_near_zero_envelope(self, family, canonical):
        """|E(f)(u)| <= C sqrt(u) with C fit at u = 1e-2.

        The family members are mean-zero with f(0) = 0, so their true E
        underflows and only summation rounding remains; the check adds an
        explicit rounding envelope eps * S_f / sqrt(u) for that reason.
        """
        for f in family + [canonical]:
            S = sum(
                abs(c) * math.gamma(j + 0.5) / f.gauss_scale ** (j + 0.5)
                for j, c in enumerate(f.coeffs)
            )
            C = abs(eval_E(f, 1e-2, 1e-13)[0]) / math.sqrt(1e-2)
            for u in (1e-3, 1e-4, 1e-5):
                value, _ = eval_E(f, u, 1e-13)
                noise = 256.0 * EPS * S / math.sqrt(u)
                assert abs(value) <= C * math.sqrt(u) * (1.0 + 1e-9) + noise

    def test_trace_identity_sample(self, family):
        rng = np.random.default_rng(31)
        for _ in range(20):
            f = family[int(rng.integers(3))]
            u = float(rng.uniform(0.05, 4.0))
            assert trace_identity_check(f, u) <= 1e-14


class TestCircleFunction:
    def test_payload_round_trip(self):
        xi = CircleFunction(L=1.5, coeffs={0: 1 + 2j, 3: -0.5j, -2: 4.0}, N=4)
        back = circle_from_payload(circle_to_payload(xi))
        assert back.L == xi.L and back.N == xi.N
        for n in range(-4, 5):
            assert back.coeff(n) == xi.coeff(n)

    def test_payload_round_trip_through_json(self):
        xi = CircleFunction(L=0.8, coeffs={1: 1j}, N=2)
        text = json.dumps(circle_to_payload(xi))
        back = circle_from_payload(json.loads(text))
        assert back.coeff(1) == 1j and back.coeff(2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircleFunction(L=-1.0, coeffs={}, N=1)
        with pytest.raises(ValueError):
            CircleFunction(L=1.0, coeffs={5: 1.0}, N=2)


class TestFourier:
    def test_direct_matches_closed(self, family):
        for f in family:
            direct = fourier_direct(f, 1.0, N=16)
            closed = fourier_closed(f, 1.0, N=16)
            assert vector_rel_diff(direct, closed) <= 1e-6

    def test_closed_factorization(self, family, cfg):
        # c_n = L^{-1/2} zeta(1/2 - 2 pi i n / L) psi(2 pi n / L)
        L = 1.3
        xi = fourier_closed(family[1], L, N=8)
        for n in (-5, 1, 4):
            z = 2.0 * math.pi * n / L
            expected = zeta_critical(-z, cfg) * mellin_psi(family[1], z).psi
            expected /= math.sqrt(L)
            assert abs(xi.coeff(n) - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_closed_is_the_scalar_product_on_criterion_1(self, family):
        """The array rows equal L^(-1/2) zeta(-s) psi_f(s) from the scalar
        evaluators at every mode of criterion 1's nine cases."""
        for f in family:
            for L in CRITERION_1_LENGTHS:
                xi = fourier_closed(f, L, N=32)
                for n in range(-32, 33):
                    s = 2.0 * math.pi * n / L
                    expected = zeta_critical(-s) * mellin_psi(f, s).psi / math.sqrt(L)
                    assert abs(xi.coeff(n) - expected) <= 1e-15 * abs(expected), (f.label, L, n)

    def test_direct_matches_closed_on_criterion_1(self, family):
        worst = max(
            vector_rel_diff(fourier_direct(f, L, N=32), fourier_closed(f, L, N=32))
            for f in family
            for L in CRITERION_1_LENGTHS
        )
        assert worst <= 1e-12

    def test_canonical_vector_tail(self, canonical):
        """f(0) = -1: the -v^(1/2) f(0)/2 tail of E is summed far enough down
        for the two routes to agree to 1e-12. With a degree-20 part, fh's
        polynomial at m/v ~ e^80 would overflow if it were not clipped."""
        steep = linear_combination([canonical, make_test_function(8)], [1.0, 1e-6])
        for f in (canonical, steep):
            for L in CRITERION_1_LENGTHS:
                direct = fourier_direct(f, L, N=16)
                assert vector_rel_diff(direct, fourier_closed(f, L, N=16)) <= 1e-12

    def test_not_mean_zero_is_rejected(self):
        """The periodization of a function with nonzero integral diverges."""
        with pytest.raises(ValueError, match="not mean-zero"):
            fourier_direct(gaussian_seed(0), 0.8, N=16)
        for k in range(9):  # integral 0 up to the rounding of its terms
            fourier_direct(make_test_function(k), 0.8, N=16)

    def test_conjugate_symmetry_of_coefficients(self, family):
        xi = fourier_direct(family[0], 0.9, N=12)
        for n in range(1, 13):
            assert abs(xi.coeff(-n) - xi.coeff(n).conjugate()) <= 1e-12

    def test_zero_function_shortcut(self):
        zero = linear_combination([make_test_function(0)], [0.0])
        xi = fourier_direct(zero, 1.0, N=8)
        assert all(xi.coeff(n) == 0.0 for n in range(-8, 9))

    def test_resolution_guard(self, family):
        with pytest.raises(ResolutionError):
            fourier_direct(family[0], 1.0, N=16, grid_points=64)

    def test_parseval_truncation(self, family):
        """Truncated coefficient mass stays below (and near) the grid
        quadrature of the mean square; truncation only removes mass.

        The periodized samples here come from scalar eval_E calls, not the
        vectorized transform path.  Translates below e^-9 are dropped: f is
        mean-zero with f(0) = 0, so each contributes under 1e-12, and a
        certified direct sum cannot reach arguments that small.
        """
        f = family[0]
        L, N, G = 1.0, 4, 64
        mu = math.exp(L)
        xs = np.exp(L * np.arange(G) / G)
        samples = np.zeros(G)
        for j, u0 in enumerate(xs):
            samples[j] = math.fsum(
                eval_E(f, u0 * mu**k, 1e-15)[0] for k in range(-9, 31)
            )
        mean_sq = float(np.mean(samples**2))
        xi = fourier_direct(f, L, N=N, grid_points=G)
        mass = sum(abs(xi.coeff(n)) ** 2 for n in range(-N, N + 1)) / L
        assert mass <= mean_sq * (1.0 + 1e-9)
        assert mean_sq - mass <= 1e-6 * max(mean_sq, 1.0)


class TestCoveringAndScaling:
    def test_covering_rule(self):
        xi = CircleFunction(
            L=2.0, coeffs={n: complex(n, 1) for n in range(-6, 7)}, N=6
        )
        folded = covering_sigma(xi, 3)
        assert folded.L == pytest.approx(2.0 / 3.0)
        assert folded.N == 2
        for k in range(-2, 3):
            assert folded.coeff(k) == pytest.approx(
                math.sqrt(3.0) * xi.coeff(3 * k), rel=1e-15
            )

    def test_identity_covering(self):
        xi = CircleFunction(L=1.0, coeffs={1: 2j}, N=3)
        assert covering_sigma(xi, 1) is xi

    def test_insufficient_modes(self):
        xi = CircleFunction(L=1.0, coeffs={1: 1.0}, N=2)
        with pytest.raises(InsufficientModesError):
            covering_sigma(xi, 3)

    def test_scaling_preserves_moduli(self):
        xi = CircleFunction(L=1.0, coeffs={n: 1.0 + 0.5j * n for n in (-2, 1)}, N=2)
        out = scaling_theta(2.5, xi)
        for n in (-2, 1):
            assert abs(out.coeff(n)) == pytest.approx(abs(xi.coeff(n)), rel=1e-14)

    def test_scaling_group_action(self):
        xi = CircleFunction(L=0.7, coeffs={n: complex(1, n) for n in (-3, 2)}, N=3)
        a = scaling_theta(3.0, scaling_theta(2.0, xi))
        b = scaling_theta(6.0, xi)
        for n in range(-3, 4):
            assert abs(a.coeff(n) - b.coeff(n)) <= 1e-12 * (1.0 + abs(b.coeff(n)))

    def test_scaling_identity(self):
        xi = CircleFunction(L=0.7, coeffs={2: 1j}, N=2)
        out = scaling_theta(1.0, xi)
        assert out.coeff(2) == 1j


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=9999),
)
def test_covering_commutes_with_scaling(n, seed):
    """Folding onto the n-fold quotient commutes with the scaling flow:
    the shorter circle's length rescales the phase to compensate."""
    rng = np.random.default_rng(seed)
    N = 2 * n
    coeffs = {
        k: complex(rng.normal(), rng.normal()) for k in range(-N, N + 1) if k
    }
    xi = CircleFunction(L=1.0, coeffs=coeffs, N=N)
    lam = 1.7
    left = covering_sigma(scaling_theta(lam, xi), n)
    right = scaling_theta(lam, covering_sigma(xi, n))
    for k in range(-left.N, left.N + 1):
        assert abs(left.coeff(k) - right.coeff(k)) <= 1e-10
