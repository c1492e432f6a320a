"""Sections over the length axis, jets at zero loci, ideal membership,
the scaling action, and its Jordan block at a double zero."""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zetacycles import sheaf
from zetacycles.operators import covering_sigma
from zetacycles.sheaf import (
    GlobalSection,
    IdealGenerator,
    UnderResolvedGridError,
    build_section_grid,
    circle_at,
    gamma_inverse,
    ideal_membership,
    jordan_structure,
    make_section,
    quotient_jets,
    read_section,
    section_from_payload,
    section_to_payload,
    synthetic_generator,
    theta_on_sections,
    zeta_generator,
)
from zetacycles.specfun import VALIDATED_T_MAX, ZetaZero, find_zeros

TWO_PI = 2.0 * math.pi
NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])


def smooth_plus(L):
    return math.sin(3.0 * L) + 2.0 + 0.5j * math.cos(L)


def smooth_minus(L):
    return math.cos(2.0 * L) - 0.25j * L


def theta_minus(L):
    """The minus slot of criterion 8's theta section; smooth_plus is its plus slot."""
    return math.cos(2.0 * L) + 3.0 - 0.25j * L


@pytest.fixture(scope="module")
def section(section_grid):
    return make_section(smooth_plus, smooth_minus, section_grid)


class TestSectionGrid:
    def test_range_and_monotonicity(self, section_grid):
        assert section_grid[0] == pytest.approx(TWO_PI / 60.0)
        assert section_grid[-1] == 4.0
        assert np.all(np.diff(section_grid) > 0.0)

    def test_zero_loci_and_multiples_on_grid(self, section_grid, zeros60):
        for z in zeros60:
            L_k = TWO_PI / z.ordinate
            for k in range(1, 5):
                point = k * L_k
                if section_grid[0] <= point <= 4.0:
                    assert np.min(np.abs(section_grid - point)) == 0.0

    def test_no_near_duplicate_nodes(self, section_grid):
        gaps = np.diff(section_grid)
        assert np.min(gaps / section_grid[:-1]) > 1e-7

    def test_validation(self, zeros60):
        with pytest.raises(ValueError):
            build_section_grid(-1.0, zeros60)
        with pytest.raises(ValueError):
            build_section_grid(1.0, zeros60)

    def test_smallest_grid_holds_one_read(self):
        """At t_max 2 the geometric grid on [pi, 4] has fewer points than the
        9 nodes of a read; the floor gives it enough, so every node reads
        back its samples and gamma_inverse yields one circle per node."""
        grid = build_section_grid(2.0, [])
        assert grid.size >= 9
        sec = make_section(smooth_plus, smooth_minus, grid)
        for i, L in enumerate(grid):
            assert sec.eval_plus(float(L)) == sec.f_plus[i]
            assert sec.eval_minus(float(L)) == sec.f_minus[i]
        circles = gamma_inverse(sec, 2)
        assert [xi.L for xi in circles] == list(grid)

    @NON_FINITE
    def test_t_max_must_be_finite(self, zeros60, bad):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            build_section_grid(bad, zeros60)


class TestGlobalSection:
    def test_shape_and_grid_validation(self):
        grid = np.linspace(1.0, 2.0, 8)
        ones = np.ones(8)
        with pytest.raises(ValueError):
            GlobalSection(grid, ones[:5], ones)
        with pytest.raises(ValueError):
            GlobalSection(np.zeros(8), ones, ones)
        with pytest.raises(ValueError):
            GlobalSection(grid[::-1], ones, ones)
        with pytest.raises(ValueError):
            GlobalSection(grid, ones, ones, vanishing_order_at_zero=-1)
        near = grid.copy()
        near[4] = near[3] * (1.0 + 1e-10)  # stencils need nodes 1e-9 apart
        with pytest.raises(ValueError):
            GlobalSection(near, ones, ones)
        for bad in (math.nan, math.inf, -math.inf):
            broken = grid.copy()
            broken[3] = bad
            samples = ones.astype(complex)
            samples[3] = complex(0.0, bad)
            with pytest.raises(ValueError, match="finite"):
                GlobalSection(broken, ones, ones)
            with pytest.raises(ValueError, match="finite"):
                GlobalSection(grid, ones, samples)

    def test_one_point_grid_rejected(self):
        with pytest.raises(ValueError, match="at least two points"):
            GlobalSection([1.0], [1.0], [1.0])

    def test_zero_extension_below_grid(self):
        grid = np.linspace(1.0, 2.0, 16)
        sec = GlobalSection(grid, np.ones(16), np.ones(16))
        assert sec.eval_plus(0.5) == 0.0
        flat = GlobalSection(grid, np.ones(16), np.ones(16), 0)
        with pytest.raises(UnderResolvedGridError):
            flat.eval_plus(0.5)

    def test_above_range_always_rejected(self):
        grid = np.linspace(1.0, 2.0, 16)
        sec = GlobalSection(grid, np.ones(16), np.ones(16))
        with pytest.raises(UnderResolvedGridError):
            sec.eval_minus(2.5)

    def test_interpolates_nodes_exactly(self, section, section_grid):
        j = section_grid.size // 2
        assert section.eval_plus(float(section_grid[j])) == section.f_plus[j]

    def test_off_grid_values_match_the_sampled_functions(self, section_grid):
        """Between nodes both slots are read through the local stencil, which
        misses criterion 8's theta section by about 1.3e-6 on this grid (a
        cubic spline missed by 7.1e-4)."""
        theta = make_section(smooth_plus, theta_minus, section_grid)
        rng = np.random.default_rng(6)
        worst = 0.0
        for L in rng.uniform(section_grid[0], section_grid[-1], size=500):
            L = float(L)
            worst = max(worst, abs(theta.eval_plus(L) - smooth_plus(L)),
                        abs(theta.eval_minus(L) - theta_minus(L)))
        assert worst <= 1e-5

    def test_off_grid_evaluation_leaves_scipy_interpolate_unloaded(self):
        code = (
            "import sys, numpy as np; from zetacycles.sheaf import make_section; "
            "s = make_section(np.sin, np.cos, np.linspace(1.0, 2.0, 16)); "
            "s.eval_plus(1.2345); s.eval_minus(1.6789); "
            "print('scipy.interpolate' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sheaf.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestSerialization:
    def test_payload_keys(self, section):
        payload = section_to_payload(section)
        assert set(payload) == {
            "grid",
            "f_plus",
            "f_minus",
            "vanishing_order_at_zero",
        }

    def test_file_round_trip(self, tmp_path, section):
        path = tmp_path / "section.json"
        path.write_text(json.dumps(section_to_payload(section)))
        back = read_section(path)
        assert np.array_equal(back.grid, section.grid)
        assert np.array_equal(back.f_plus, section.f_plus)
        assert np.array_equal(back.f_minus, section.f_minus)
        assert back.vanishing_order_at_zero == section.vanishing_order_at_zero

    def test_missing_order_defaults_to_zero(self, section):
        payload = section_to_payload(section)
        del payload["vanishing_order_at_zero"]
        back = section_from_payload(json.loads(json.dumps(payload)))
        assert back.vanishing_order_at_zero == 0

    def test_malformed_payload(self, section):
        with pytest.raises(ValueError):
            section_from_payload({"grid": [1.0, 2.0]})
        payload = section_to_payload(section)
        for order in (None, [6], "6", 2.5, True):
            payload["vanishing_order_at_zero"] = order
            with pytest.raises(ValueError, match="vanishing_order_at_zero"):
                section_from_payload(payload)


class TestCirclesAndCovering:
    def test_reconstruction_rule(self, section):
        xi = circle_at(section, 1.5, 4)
        for n in (1, 2, 3, 4):
            w = 1.0 / math.sqrt(n)
            assert xi.coeff(n) == w * section.eval_plus(1.5 / n)
            assert xi.coeff(-n) == w * section.eval_minus(1.5 / n)
        assert xi.coeff(0) == 0.0

    def test_gamma_inverse_covers_grid(self, section, section_grid):
        circles = gamma_inverse(section, 2)
        assert len(circles) == section_grid.size
        for xi, L in zip(circles[:10], section_grid[:10]):
            assert xi.L == L
            assert abs(xi.coeff(1) - section.eval_plus(float(L))) <= 1e-14

    @NON_FINITE
    def test_length_must_be_finite_before_any_read(self, section, bad, monkeypatch):
        monkeypatch.setattr(GlobalSection, "_read", lambda *_: pytest.fail("section read"))
        with pytest.raises(ValueError, match="circle length L must be positive and finite"):
            circle_at(section, bad, 2)

    def test_one_stencil_per_length(self, section, monkeypatch):
        """circle_at reads both slots at each L / n through one stencil."""
        centres, stencil = [], sheaf._stencil
        monkeypatch.setattr(sheaf, "_stencil", lambda *a: centres.append(a[1]) or stencil(*a))
        circle_at(section, 1.5, 4)
        assert centres == [1.5 / n for n in (1, 2, 3, 4)]

    def test_mode_count_must_be_an_integer(self, section):
        with pytest.raises(ValueError, match="mode count N must be a positive integer"):
            circle_at(section, 1.0, 2.5)
        with pytest.raises(ValueError, match="mode count N must be a positive integer"):
            gamma_inverse(section, 2.5)

    def test_gamma_inverse_needs_enough_points(self):
        grid = np.linspace(1.0, 2.0, 6)
        sec = GlobalSection(grid, np.ones(6), np.ones(6))
        with pytest.raises(UnderResolvedGridError):
            gamma_inverse(sec, 2)

    def test_covering_compatible_with_reconstruction(self, section):
        # folding the circle at nL reproduces the circle at L exactly
        for n in (2, 3, 4):
            big = circle_at(section, n * 0.5, 8)
            small = circle_at(section, 0.5, 8 // n)
            folded = covering_sigma(big, n)
            for k in range(-folded.N, folded.N + 1):
                assert abs(folded.coeff(k) - small.coeff(k)) <= 1e-12


class TestScalingAction:
    def test_slotwise_multiplier(self, section, section_grid):
        lam = 2.5
        moved = theta_on_sections(lam, section)
        phases = np.exp(-2j * math.pi * math.log(lam) / section_grid)
        assert np.allclose(moved.f_plus, section.f_plus * phases, rtol=0, atol=0)
        assert np.allclose(
            moved.f_minus, section.f_minus * np.conj(phases), rtol=0, atol=0
        )

    def test_group_law(self, section):
        a = theta_on_sections(2.0, theta_on_sections(3.0, section))
        b = theta_on_sections(6.0, section)
        scale = float(np.max(np.abs(b.f_plus)))
        assert float(np.max(np.abs(a.f_plus - b.f_plus))) <= 1e-12 * scale
        assert float(np.max(np.abs(a.f_minus - b.f_minus))) <= 1e-12 * scale

    def test_identity(self, section):
        moved = theta_on_sections(1.0, section)
        assert np.array_equal(moved.f_plus, section.f_plus)
        assert np.array_equal(moved.f_minus, section.f_minus)

    def test_validation(self, section):
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                theta_on_sections(lam, section)


class TestJets:
    def test_zero_section_has_zero_jets(self, section_grid, zeros60):
        zero = GlobalSection(
            section_grid, np.zeros(section_grid.size), np.zeros(section_grid.size)
        )
        jets = quotient_jets(zero, zeros60)
        assert len(jets) == len(zeros60)
        assert all(v == 0.0 for e in jets for v in e.jets_plus + e.jets_minus)

    def test_constant_section_jets(self, section_grid, zeros60):
        ones = np.ones(section_grid.size)
        jets = quotient_jets(GlobalSection(section_grid, ones, ones), zeros60)
        for entry in jets:
            assert entry.jets_plus[0] == pytest.approx(1.0, abs=1e-12)
            assert abs(entry.location - TWO_PI / entry.ordinate) == 0.0

    def test_jets_match_analytic_derivatives(self, section_grid):
        # exact cubic: every difference scheme of enough nodes is exact,
        # so the extracted jet must hit the closed-form derivatives
        L_k = 1.3
        fake = ZetaZero(TWO_PI / L_k, 3, 0.0)

        def poly(L):
            d = L - L_k
            return 1.0 + 0.5 * d + (2.0 + 0.25j) * d * d + d**3

        sec = make_section(poly, poly, section_grid)
        entry = quotient_jets(sec, [fake])[0]
        truth = [1.0, 0.5, 4.0 + 0.5j]
        for j, budget in enumerate((1e-13, 1e-11, 1e-10)):
            assert abs(entry.jets_plus[j] - truth[j]) <= budget
            assert abs(entry.jets_minus[j] - truth[j]) <= budget

    def test_order_0_jets_at_the_loci_are_the_samples(self, section_grid, zeros60):
        """Every locus is a node of the grid, and a stencil lists its nodes
        nearest first, where Fornberg's order-0 weights are exactly (1, 0, ...):
        the order-0 jets are the samples there, bit for bit."""
        sec = make_section(lambda L: L * L, lambda L: 1j * L, section_grid)
        jets = quotient_jets(sec, zeros60)
        assert len(jets) == 13
        for entry in jets:
            i = int(np.searchsorted(section_grid, entry.location))
            assert section_grid[i] == entry.location
            assert entry.jets_plus[0] == sec.f_plus[i]
            assert entry.jets_minus[0] == sec.f_minus[i]

    def test_under_resolved_grid(self, zeros60):
        grid = np.geomspace(0.1, 4.0, 6)
        sec = GlobalSection(grid, np.ones(6), np.ones(6))
        with pytest.raises(UnderResolvedGridError):
            quotient_jets(sec, zeros60[:1])



class TestGenerators:
    def test_synthetic_declares_its_zero(self):
        g = synthetic_generator(0.8, order=2)
        assert g.zeros == ((0.8, 2),)
        assert g.evaluator(0.8) == 0.0

    def test_synthetic_validation(self):
        with pytest.raises(ValueError):
            synthetic_generator(-1.0)
        with pytest.raises(ValueError):
            synthetic_generator(1.0, order=0)
        with pytest.raises(ValueError, match="order must be a positive integer"):
            synthetic_generator(1.0, order=2.5)

    @NON_FINITE
    def test_synthetic_location_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="L0 must be positive and finite"):
            synthetic_generator(bad)

    def test_zeta_generator_vanishes_at_loci(self, zeros60):
        g = zeta_generator(1, zeros60)
        assert len(g.zeros) == len(zeros60)
        locus = g.zeros[0][0]
        assert abs(g.evaluator(locus)) <= 1e-8

    def test_zeta_generator_validation(self, zeros60):
        with pytest.raises(ValueError):
            zeta_generator(2, zeros60)
        with pytest.raises(ValueError):
            zeta_generator(1, [])

    def test_zeta_generator_on_every_zero_of_the_validated_range(self, monkeypatch):
        """Both signs accept all 114 zeros up to VALIDATED_T_MAX: the vanishing
        check reads zeta, in one array call per sign, at |t| = 2 pi / L at or
        below each zero, never above the last one (259.874), so never past
        the range."""
        zeros = find_zeros(0.0, VALIDATED_T_MAX)
        read, zeta_critical_many = [], sheaf.zeta_critical_many
        monkeypatch.setattr(
            sheaf, "zeta_critical_many", lambda t: read.append(np.abs(t)) or zeta_critical_many(t)
        )
        for sign in (1, -1):
            assert len(zeta_generator(sign, zeros).zeros) == len(zeros) == 114
        assert len(read) == 2
        assert max(r.max() for r in read) == pytest.approx(zeros[-1].ordinate, rel=1e-15)

    def test_one_stencil_per_order(self, zeros60, monkeypatch):
        """The generator check scores every zero on one layout L_k x, so it
        builds one stencil for each distinct order, not one per zero."""
        orders, stencil = [], sheaf._stencil
        monkeypatch.setattr(sheaf, "_stencil", lambda *a: orders.append(a[2] + 1) or stencil(*a))
        zeta_generator(1, zeros60)
        assert orders == [1]
        orders.clear()
        IdealGenerator(((0.8, 2), (1.2, 3), (1.5, 2)),
                       lambda L: (L - 0.8) ** 2 * (L - 1.2) ** 3 * (L - 1.5) ** 2)
        assert sorted(orders) == [2, 3]

    def test_generator_without_zeros_rejected(self):
        with pytest.raises(ValueError, match="at least one zero"):
            IdealGenerator((), lambda L: L - 1.0)

    def test_non_vanishing_evaluator_rejected(self):
        with pytest.raises(ValueError):
            IdealGenerator(((1.0, 1),), lambda L: 1.0 + L)

    @NON_FINITE
    def test_zero_location_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="zero location must be positive and finite"):
            IdealGenerator(((bad, 1),), lambda L: L - 1.0)

    def test_zero_order_must_be_an_integer(self):
        with pytest.raises(ValueError, match="zero order must be a positive integer"):
            IdealGenerator(((1.0, 1.5),), lambda L: L - 1.0)


class TestIdealMembership:
    def test_constant_fails_with_one_witness_per_zero(self, section_grid, zeros60):
        g = zeta_generator(1, zeros60)
        member, witnesses = ideal_membership(section_grid, np.ones(section_grid.size), g)
        assert not member
        assert len(witnesses) == len(zeros60)
        assert {w.order for w in witnesses} == {0}
        assert min(w.score for w in witnesses) > 0.1
        locs = sorted(w.location for w in witnesses)
        assert locs[-1] == pytest.approx(TWO_PI / zeros60[0].ordinate)

    def test_multiple_of_generator_is_member(self, section_grid, zeros60):
        g = zeta_generator(1, zeros60)
        values = np.array(
            [(2.0 + math.sin(L)) * g.evaluator(float(L)) for L in section_grid]
        )
        member, witnesses = ideal_membership(section_grid, values, g)
        assert member and witnesses == []

    def test_simple_zero_misses_double_requirement(self, section_grid):
        g = synthetic_generator(1.0, order=2)
        values = np.array(
            [(L - 1.0) * (2.0 + math.cos(L)) for L in section_grid]
        )
        member, witnesses = ideal_membership(section_grid, values, g)
        assert not member
        assert [w.order for w in witnesses] == [1]

    def test_double_zero_is_member(self, section_grid):
        g = synthetic_generator(1.0, order=2)
        values = np.array(
            [(L - 1.0) ** 2 * (2.0 + math.sin(L)) for L in section_grid]
        )
        member, _ = ideal_membership(section_grid, values, g)
        assert member

    def test_grid_and_sample_validation(self):
        """The grid and samples meet GlobalSection's checks: stencil nodes at
        least 1e-9 relative apart, finite points and samples."""
        g = synthetic_generator(1.5)
        grid = np.linspace(1.0, 2.0, 16)
        ones = np.ones(16)
        near = grid.copy()
        near[4] = near[3] * (1.0 + 1e-10)
        with pytest.raises(ValueError, match="1e-9 relative"):
            ideal_membership(near, ones, g)
        with pytest.raises(ValueError, match="match the grid shape"):
            ideal_membership(grid, ones[:5], g)
        for bad in (math.nan, math.inf, -math.inf):
            broken = grid.copy()
            broken[3] = bad
            samples = ones.astype(complex)
            samples[3] = complex(0.0, bad)
            with pytest.raises(ValueError, match="finite"):
                ideal_membership(broken, ones, g)
            with pytest.raises(ValueError, match="finite"):
                ideal_membership(grid, samples, g)


class TestJordanStructure:
    def test_block_form_and_invariants(self, section):
        g = synthetic_generator(0.75, order=2)
        report = jordan_structure(2.0, section, g)
        c = report.matrix[0, 0]
        assert abs(c) == pytest.approx(1.0, rel=1e-15)
        expected_n21 = 2j * math.pi * math.log(2.0) / 0.75**2
        assert report.nilpotent[1, 0] == expected_n21
        assert report.nilpotent[0, 1] == 0.0
        assert np.array_equal(report.matrix, c * (np.eye(2) + report.nilpotent))
        assert np.array_equal(report.nilpotent @ report.nilpotent, np.zeros((2, 2)))
        M = {lam: jordan_structure(lam, section, g).matrix for lam in (2.0, 3.0, 6.0)}
        cocycle = np.max(np.abs(M[2.0] @ M[3.0] - M[6.0])) / max(np.max(np.abs(M[6.0])), 1.0)
        assert cocycle <= 1e-10
        # c N[1,0] is d/dL of the multiplier at L0: five-point differences
        # with a step on the L0^2 scale the multiplier oscillates on
        h = 5e-4 * 0.75**2
        fd = sum(w * cmath.exp(-2j * math.pi * math.log(2.0) / (0.75 + k * h))
                 for w, k in zip((1.0, -8.0, 8.0, -1.0), (-2, -1, 1, 2))) / (12.0 * h)
        assert abs(fd - c * expected_n21) <= 1e-10 * abs(c * expected_n21)
        assert report.order0_residual <= 1e-10
        assert report.order1_rel_error <= 1e-9

    def test_action_residuals_across_parameters(self, section):
        for lam, L0 in [(1.5, 0.45), (3.0, 1.2)]:
            report = jordan_structure(lam, section, synthetic_generator(L0, 2))
            assert report.order0_residual <= 1e-9
            assert report.order1_rel_error <= 1e-7

    def test_identity_scaling_gives_identity_matrix(self, section):
        report = jordan_structure(1.0, section, synthetic_generator(0.75, 2))
        assert np.array_equal(report.matrix, np.eye(2))
        assert report.order0_residual == 0.0
        assert report.order1_rel_error == 0.0

    def test_validation(self, section, zeros60):
        for lam in (-2.0, math.nan):
            with pytest.raises(ValueError):
                jordan_structure(lam, section, synthetic_generator(0.75, 2))
        with pytest.raises(ValueError):
            jordan_structure(2.0, section, synthetic_generator(0.75, 1))
        with pytest.raises(ValueError):
            jordan_structure(2.0, section, zeta_generator(1, zeros60))
