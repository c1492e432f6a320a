"""Quotient Laplacian spectrum and the negativity predicate."""

import numpy as np
import pytest

from _oracle_frozen import ZERO_ORDINATES
from zetacycles.laplacian import (
    delta_eigenvalue,
    delta_on_test_function,
    direct_membership,
    negativity_rows,
    rh_predicate,
)
from zetacycles.schwartz import (
    apply_H,
    apply_one_plus_H,
    gaussian_seed,
    make_test_function,
    mellin_psi,
)


def probe_points(rng, count):
    """Mixed probes: exact critical line, exact segment, generic points kept
    1e-5 clear of both (the predicate's 1e-12 imaginary-part tolerance is
    not meant to classify points closer than that)."""
    points = []
    while len(points) < count:
        kind = rng.integers(4)
        if kind == 0:
            points.append(complex(0.5, rng.uniform(-50.0, 50.0)))
        elif kind == 1:
            points.append(complex(rng.uniform(0.0, 1.0), 0.0))
        elif kind == 2:
            if rng.integers(2):
                points.append(complex(rng.uniform(-1.0, -1e-5), 0.0))
            else:
                points.append(complex(rng.uniform(1.0 + 1e-5, 2.0), 0.0))
        else:
            a = rng.uniform(-1.0, 2.0)
            t = rng.uniform(-50.0, 50.0)
            if abs(a - 0.5) < 1e-5 or abs(t) < 1e-5:
                continue
            points.append(complex(a, t))
    return points


class TestEigenvalueAlgebra:
    def test_critical_line_values_are_negative_reals(self):
        for t in ZERO_ORDINATES:
            e = delta_eigenvalue(0.5 + 1j * t)
            assert e.imag == 0.0
            assert e.real == pytest.approx(-(t * t + 0.25), rel=1e-15)

    def test_multiplier_agrees_with_eigenvalue(self):
        # H(1+H) multiplies psi by the eigenvalue at 1/2 + iz, also off the
        # real z that delta_on_test_function samples
        rng = np.random.default_rng(7)
        for k in range(3):
            g = gaussian_seed(k)
            image = apply_H(apply_one_plus_H(g))
            for _ in range(100):
                z = complex(rng.uniform(-20.0, 20.0), rng.uniform(-0.45, 3.0))
                lhs = mellin_psi(image, z)[0]
                rhs = delta_eigenvalue(0.5 + 1j * z) * mellin_psi(g, z)[0]
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_predicate_matches_direct_membership(self):
        rng = np.random.default_rng(11)
        for rho in probe_points(rng, 500):
            assert rh_predicate(rho) == direct_membership(rho)

    def test_predicate_rejects_off_line(self):
        assert not rh_predicate(complex(0.75, 14.1))
        assert not rh_predicate(complex(2.0, 0.0))
        assert rh_predicate(complex(0.5, 14.134725))
        assert rh_predicate(complex(0.25, 0.0))


class TestQuotientSpectrum:
    def test_rows_over_cached_zeros(self, zeros60):
        rows = negativity_rows(zeros60)
        assert len(rows) == len(zeros60)
        for (ordinate, value, ok), z in zip(rows, zeros60):
            assert ordinate == z.ordinate
            assert ok
            assert value == pytest.approx(-(z.ordinate**2 + 0.25), rel=1e-14)


class TestOperatorRoute:
    def test_image_is_the_library_family_member(self):
        for k in range(3):
            image, worst = delta_on_test_function(gaussian_seed(k))
            assert image.coeffs == make_test_function(k).coeffs
            assert worst <= 1e-8

    def test_residual_is_tiny_for_smooth_inputs(self):
        _, worst = delta_on_test_function(gaussian_seed(2))
        assert worst <= 1e-12
