"""Sections over the length axis, jets at zero loci, ideal membership,
the scaling action, and its Jordan block at a double zero."""

import json
import math

import numpy as np
import pytest

from zetacycles.operators import covering_sigma
from zetacycles.sheaf import (
    GlobalSection,
    IdealGenerator,
    JetEntry,
    SampledFunction,
    UnderResolvedGridError,
    build_section_grid,
    circle_at,
    gamma_inverse,
    ideal_membership,
    jets_to_rows,
    jordan_structure,
    make_section,
    quotient_jets,
    read_section,
    section_from_payload,
    section_to_payload,
    synthetic_generator,
    theta_on_sections,
    vanishing_certificate,
    write_jet_csv,
    write_section,
    zeta_generator,
)
from zetacycles.specfun import ZetaZero

TWO_PI = 2.0 * math.pi


def smooth_plus(L):
    return math.sin(3.0 * L) + 2.0 + 0.5j * math.cos(L)


def smooth_minus(L):
    return math.cos(2.0 * L) - 0.25j * L


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
        write_section(path, section)
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

    def test_malformed_payload(self):
        with pytest.raises(ValueError):
            section_from_payload({"grid": [1.0, 2.0]})


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
        with pytest.raises(ValueError):
            theta_on_sections(0.0, section)


class TestJets:
    def test_zero_section_has_zero_jets(self, section_grid, zeros60):
        zero = GlobalSection(
            section_grid, np.zeros(section_grid.size), np.zeros(section_grid.size)
        )
        jets = quotient_jets(zero, zeros60)
        assert len(jets) == len(zeros60)
        assert jets.max_abs() == 0.0

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
        entry = quotient_jets(sec, [fake]).entries[0]
        truth = [1.0, 0.5, 4.0 + 0.5j]
        for j, budget in enumerate((1e-13, 1e-11, 1e-10)):
            assert abs(entry.jets_plus[j] - truth[j]) <= budget
            assert abs(entry.jets_minus[j] - truth[j]) <= budget

    def test_under_resolved_grid(self, zeros60):
        grid = np.geomspace(0.1, 4.0, 6)
        sec = GlobalSection(grid, np.ones(6), np.ones(6))
        with pytest.raises(UnderResolvedGridError):
            quotient_jets(sec, zeros60[:1])

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            JetEntry(14.1, 0.44, (1.0,), (1.0, 2.0))
        with pytest.raises(ValueError):
            JetEntry(14.1, 0.44, (), ())

    def test_csv_rows_and_header(self, tmp_path, section, zeros60):
        jets = quotient_jets(section, zeros60)
        rows = jets_to_rows(jets)
        assert len(rows) == 2 * len(zeros60)
        path = tmp_path / "jets.csv"
        write_jet_csv(path, jets)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_k,L_k,slot,order,jet_re,jet_im"
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[2] == "plus" and first[3] == "0"
        assert float(first[4]) == pytest.approx(rows[0][4], rel=1e-12)


class TestGenerators:
    def test_synthetic_declares_its_zero(self):
        g = synthetic_generator(0.8, order=2, amplitude=3.0)
        assert g.kind == "synthetic"
        assert g.zeros == ((0.8, 2),)
        assert g.evaluator(0.8) == 0.0

    def test_synthetic_validation(self):
        with pytest.raises(ValueError):
            synthetic_generator(-1.0)
        with pytest.raises(ValueError):
            synthetic_generator(1.0, order=0)

    def test_zeta_generator_vanishes_at_loci(self, zeros60):
        g = zeta_generator(1, zeros60)
        assert g.kind == "zeta_plus"
        assert len(g.zeros) == len(zeros60)
        locus = g.zeros[0][0]
        assert abs(g.evaluator(locus)) <= 1e-8

    def test_zeta_generator_validation(self, zeros60):
        with pytest.raises(ValueError):
            zeta_generator(2, zeros60)
        with pytest.raises(ValueError):
            zeta_generator(1, [])

    def test_non_vanishing_evaluator_rejected(self):
        with pytest.raises(ValueError):
            IdealGenerator("synthetic", ((1.0, 1),), lambda L: 1.0 + L)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            IdealGenerator("other", ((1.0, 1),), lambda L: L - 1.0)


class TestIdealMembership:
    def test_constant_fails_with_one_witness_per_zero(self, section_grid, zeros60):
        g = zeta_generator(1, zeros60)
        f = SampledFunction(section_grid, np.ones(section_grid.size))
        member, witnesses = ideal_membership(f, g)
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
        member, witnesses = ideal_membership(
            SampledFunction(section_grid, values), g
        )
        assert member and witnesses == []

    def test_simple_zero_misses_double_requirement(self, section_grid):
        g = synthetic_generator(1.0, order=2)
        values = np.array(
            [(L - 1.0) * (2.0 + math.cos(L)) for L in section_grid]
        )
        member, witnesses = ideal_membership(
            SampledFunction(section_grid, values), g
        )
        assert not member
        assert [w.order for w in witnesses] == [1]

    def test_double_zero_is_member(self, section_grid):
        g = synthetic_generator(1.0, order=2)
        values = np.array(
            [(L - 1.0) ** 2 * (2.0 + math.sin(L)) for L in section_grid]
        )
        member, _ = ideal_membership(SampledFunction(section_grid, values), g)
        assert member

    def test_tol_validation(self, section_grid):
        g = synthetic_generator(1.0)
        f = SampledFunction(section_grid, np.ones(section_grid.size))
        with pytest.raises(ValueError):
            ideal_membership(f, g, tol=0.0)


class TestVanishingCertificate:
    def test_true_order_six_passes(self, section_grid):
        vals = np.array([L**6 * (1.0 + 0.1 * math.sin(L)) for L in section_grid])
        sec = GlobalSection(section_grid, vals, vals, 6)
        C, ok = vanishing_certificate(sec)
        assert ok
        assert 0.5 < C < 2.0

    def test_flat_section_fails_claimed_order(self, section_grid):
        ones = np.ones(section_grid.size)
        _, ok = vanishing_certificate(GlobalSection(section_grid, ones, ones, 6))
        assert not ok

    def test_order_zero_trivial(self, section_grid):
        ones = np.ones(section_grid.size)
        C, ok = vanishing_certificate(GlobalSection(section_grid, ones, ones, 0))
        assert ok
        assert C == pytest.approx(1.0)


class TestJordanStructure:
    def test_block_form_and_invariants(self, section):
        g = synthetic_generator(0.75, order=2)
        report = jordan_structure(2.0, section, g)
        c = report.multiplier
        assert abs(c) == pytest.approx(1.0, rel=1e-15)
        expected_n21 = 2j * math.pi * math.log(2.0) / 0.75**2
        assert report.nilpotent[1, 0] == expected_n21
        assert report.nilpotent[0, 1] == 0.0
        assert np.array_equal(report.matrix, c * (np.eye(2) + report.nilpotent))
        assert report.nilpotent_sq_max == 0.0
        assert report.cocycle_residual <= 1e-10
        assert report.fd_rel_error <= 1e-10
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
        with pytest.raises(ValueError):
            jordan_structure(-2.0, section, synthetic_generator(0.75, 2))
        with pytest.raises(ValueError):
            jordan_structure(2.0, section, synthetic_generator(0.75, 1))
        with pytest.raises(ValueError):
            jordan_structure(2.0, section, zeta_generator(1, zeros60))
