"""Acceptance gate: one test per primary criterion, run at the stated
tolerances and sample sizes. Each test prints its measured metric so the
verbose log carries one quantitative pass/fail line per criterion."""

import cmath
import math
import time

import numpy as np

from _oracle_frozen import ZERO_ORDINATES
from _riemann_siegel import _riemann_siegel_raw
from test_cycles import match_one_to_one, predicted_cycles
from test_laplacian import probe_points
from zetacycles.cycles import covering_stability, detect, scan
from zetacycles.laplacian import (
    delta_eigenvalue,
    delta_on_test_function,
    direct_membership,
    rh_predicate,
)
from zetacycles.operators import (
    covering_sigma,
    fourier_closed,
    fourier_direct,
    scaling_theta,
    trace_identity_check,
)
from zetacycles.schwartz import gaussian_seed, linear_combination, mellin_psi
from zetacycles.sheaf import (
    circle_at,
    gamma_inverse,
    ideal_membership,
    jordan_structure,
    make_section,
    quotient_jets,
    synthetic_generator,
    theta_on_sections,
    zeta_generator,
)
from zetacycles.specfun import (
    _zeta_euler_maclaurin,
    gamma_complex,
    siegel_theta,
    zeta_critical,
)

T1 = ZERO_ORDINATES[0]
L_STAR = 2.0 * math.pi / T1


def test_criterion_1_fourier_identity(family):
    started = time.perf_counter()
    worst = 0.0
    for f in family:
        for L in (0.8, 1.0, math.log(4.0)):
            direct = fourier_direct(f, L, N=32)
            closed = fourier_closed(f, L, N=32)
            scale = max(abs(closed.coeff(n)) for n in range(-32, 33))
            diff = max(
                abs(direct.coeff(n) - closed.coeff(n)) for n in range(-32, 33)
            )
            worst = max(worst, diff / scale)
    elapsed = time.perf_counter() - started
    print(f"criterion 1: worst relative deviation {worst:.3e} in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_2_zero_recovery(family):
    started = time.perf_counter()
    result = scan(0.40, 0.46, 1e-3, family, t_max=60.0)
    elapsed = time.perf_counter() - started
    assert result.dips
    best = min(abs(d.s - T1) for d in result.dips)
    print(
        f"criterion 2: {len(result.dips)} dips, closest ordinate error"
        f" {best:.3e} in {elapsed:.1f}s"
    )
    assert best <= 1e-4
    assert elapsed < 60.0


def test_criterion_3_dip_sweep(family, zeros60):
    result = scan(0.3, 1.5, 1e-3, family, t_max=60.0)
    ordinates = [z.ordinate for z in zeros60]
    worst = 0.0
    covered = set()
    for dip in result.dips:
        dist, idx = min(
            (abs(dip.s - t), i) for i, t in enumerate(ordinates)
        )
        worst = max(worst, dist)
        covered.add(idx)
    print(
        f"criterion 3: {len(result.dips)} dips, worst match {worst:.3e},"
        f" {len(covered)}/{len(ordinates)} ordinates covered"
    )
    assert worst <= 5e-3
    assert covered == set(range(len(ordinates)))
    # and the dips are the cycles 2 pi n / t_k of the window, one to one
    match_one_to_one(result.dips, predicted_cycles(0.3, 1.5, 60.0), 1e-12)


def test_criterion_4_covering_stability(family, zeros60):
    reports = covering_stability(
        L_STAR, [2, 3, 4], family, t_max=60.0, zeros=zeros60
    )
    for k, report in zip([2, 3, 4], reports):
        assert report.verdict
        assert k in report.flagged and -k in report.flagged
    for sign in (1.0, -1.0):
        perturbed = detect(
            L_STAR + sign * 1e-3, family, t_max=60.0, zeros=zeros60
        )
        assert not perturbed.verdict

    # the covering sigma_n folds the closed coefficients of the circle n L*
    # onto those of L*, and commutes with the scaling action theta(lambda)
    worst_fold = worst_commute = 0.0
    for f in family:
        base = fourier_closed(f, L_STAR, 4).coeffs
        scale = float(np.max(np.abs(base)))
        for n in (2, 3, 4):
            xi = fourier_closed(f, n * L_STAR, n * 4)
            folded = covering_sigma(xi, n)
            worst_fold = max(worst_fold, float(np.max(np.abs(folded.coeffs - base))) / scale)
            left = covering_sigma(scaling_theta(2.0, xi), n).coeffs
            right = scaling_theta(2.0, folded).coeffs
            worst_commute = max(worst_commute, float(np.max(np.abs(left - right))) / scale)
    print(
        "criterion 4: multiples {2,3,4} verified, both perturbations negative,"
        f" covering fold {worst_fold:.3e}, covering vs scaling {worst_commute:.3e}"
    )
    assert worst_fold <= 1e-12
    assert worst_commute <= 1e-12


def test_criterion_5_trace_identity(family):
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(100):
        weights = rng.uniform(-2.0, 2.0, size=len(family))
        f = linear_combination(family, list(weights))
        u = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
        worst = max(worst, trace_identity_check(f, u))
    print(f"criterion 5: worst trace residual {worst:.3e} over 100 draws")
    assert worst <= 1e-14


def test_criterion_6_psi_vanishing_and_dual_route(family):
    worst_vanish = max(abs(mellin_psi(f, 0.5j)[0]) for f in family)
    worst_route = 0.0
    for z in np.linspace(-8.0, 8.0, 50):
        for f in family:
            closed = mellin_psi(f, float(z), method="closed")[0]
            quad = mellin_psi(f, float(z), method="quadrature")[0]
            worst_route = max(worst_route, abs(closed - quad))
    print(
        f"criterion 6: |psi(i/2)| <= {worst_vanish:.3e},"
        f" closed vs quadrature <= {worst_route:.3e}"
    )
    assert worst_vanish <= 1e-9
    assert worst_route <= 1e-9


def test_criterion_7_laplacian_negativity(zeros60):
    worst_eig = 0.0
    for z in zeros60:
        e = delta_eigenvalue(0.5 + 1j * z.ordinate)
        assert e.imag == 0.0
        assert e.real < 0.0
        target = -(z.ordinate**2 + 0.25)
        worst_eig = max(worst_eig, abs(e.real - target) / (1.0 + abs(target)))
    assert worst_eig <= 1e-12

    rng = np.random.default_rng(17)
    disagreements = sum(
        rh_predicate(rho) != direct_membership(rho) for rho in probe_points(rng, 10_000)
    )
    # H(1+H) acts on the Mellin side as multiplication by delta_eigenvalue(1/2 + iz)
    worst_mult = max(delta_on_test_function(gaussian_seed(k))[1] for k in range(3))
    print(
        f"criterion 7: eigenvalue residual {worst_eig:.3e},"
        f" {disagreements}/10000 predicate disagreements,"
        f" multiplier residual {worst_mult:.3e}"
    )
    assert disagreements == 0
    assert worst_mult <= 1e-14


def test_criterion_8_sheaf_layer(section_grid, zeros60):
    rng = np.random.default_rng(8)

    worst_gamma = 0.0
    for _ in range(50):
        a, b, c = rng.normal(size=3)
        d, e = rng.normal(size=2)

        def fn_plus(L):
            return a + b * math.sin(3.0 * L) + 1j * c * math.cos(2.0 * L)

        def fn_minus(L):
            return d * math.cos(L) + 1j * e * math.sin(L) + 2.0

        section = make_section(fn_plus, fn_minus, section_grid)
        circles = gamma_inverse(section, 2)
        for j in rng.integers(0, section_grid.size, size=8):
            xi = circles[int(j)]
            worst_gamma = max(
                worst_gamma,
                abs(xi.coeff(1) - section.f_plus[int(j)]),
                abs(xi.coeff(-1) - section.f_minus[int(j)]),
            )
        L = float(rng.uniform(2.0 * section_grid[0], 4.0))
        xi = circle_at(section, L, 2)
        for n in (1, 2):
            worst_gamma = max(
                worst_gamma,
                abs(math.sqrt(n) * xi.coeff(n) - section.eval_plus(L / n)),
            )
    assert worst_gamma <= 1e-10

    zg = zeta_generator(1, zeros60)
    gvals = np.array([zg.evaluator(float(L)) for L in section_grid])
    sg = synthetic_generator(1.0, order=2)
    svals = np.array([sg.evaluator(float(L)) for L in section_grid])
    correct = 0
    max_member = 0.0
    min_nonmember = math.inf
    for i in range(50):
        h = 2.0 + np.sin((1.0 + 0.1 * i) * section_grid)
        gen, base = (zg, gvals) if i % 2 == 0 else (sg, svals)
        member, _ = ideal_membership(section_grid, h * base, gen)
        correct += bool(member)
        deficient = h if i % 4 < 2 else h * (section_grid - 1.0)
        bad, witnesses = ideal_membership(section_grid, deficient, sg)
        correct += not bad
        if witnesses:
            min_nonmember = min(min_nonmember, max(w.score for w in witnesses))
    assert correct == 100

    lam = 2.0
    section = make_section(
        lambda L: math.sin(3.0 * L) + 2.0 + 0.5j * math.cos(L),
        lambda L: math.cos(2.0 * L) + 3.0 - 0.25j * L,
        section_grid,
    )
    before = quotient_jets(section, zeros60)
    after = quotient_jets(theta_on_sections(lam, section), zeros60)
    worst_theta = 0.0
    for eb, ea in zip(before, after):
        expected = cmath.exp(-1j * eb.ordinate * math.log(lam))
        worst_theta = max(
            worst_theta,
            abs(ea.jets_plus[0] / eb.jets_plus[0] - expected),
            abs(ea.jets_minus[0] / eb.jets_minus[0] - expected.conjugate()),
        )
    assert worst_theta <= 1e-10

    double_zero = synthetic_generator(0.75, order=2)
    report = jordan_structure(lam, section, double_zero)
    nilpotent_sq = float(np.max(np.abs(report.nilpotent @ report.nilpotent)))
    assert nilpotent_sq == 0.0
    M = {u: jordan_structure(u, section, double_zero).matrix for u in (2.0, 3.0, 6.0)}
    cocycle = float(np.max(np.abs(M[2.0] @ M[3.0] - M[6.0]))) / max(
        float(np.max(np.abs(M[6.0]))), 1.0
    )
    assert cocycle <= 1e-10
    print(
        f"criterion 8: gamma {worst_gamma:.3e}, classifier 100/100"
        f" (nonmember floor {min_nonmember:.3f}), theta multiplier"
        f" {worst_theta:.3e}, N^2 = {nilpotent_sq}, cocycle {cocycle:.3e}"
    )


def test_criterion_9_special_function_invariants():
    rng = np.random.default_rng(9)

    worst_conj = 0.0
    for t in rng.uniform(-60.0, 60.0, size=1000):
        left = zeta_critical(float(-t))
        right = zeta_critical(float(t)).conjugate()
        worst_conj = max(worst_conj, abs(left - right))
    assert worst_conj <= 1e-10

    worst_real = 0.0
    for t in rng.uniform(1.0, 60.0, size=200):
        rotated = cmath.exp(1j * siegel_theta(float(t))) * zeta_critical(float(t))
        worst_real = max(worst_real, abs(rotated.imag))
    assert worst_real <= 1e-9

    worst_refl = 0.0
    checked = 0
    while checked < 300:
        z = complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
        # redraw near the poles of both sides, where neither route is defined
        if abs(z - round(z.real)) < 0.05 or abs(z.imag) < 0.01:
            continue
        product = gamma_complex(z) * gamma_complex(1.0 - z)
        target = math.pi / cmath.sin(math.pi * z)
        worst_refl = max(worst_refl, abs(product - target) / abs(target))
        checked += 1
    assert worst_refl <= 1e-10

    # Euler-Maclaurin against the independent Riemann-Siegel route, 85 to 115
    worst_overlap = 0.0
    for t in np.linspace(85.0, 115.0, 40):
        em = _zeta_euler_maclaurin(float(t))[0]
        rs = _riemann_siegel_raw(float(t))[0] * cmath.exp(-1j * siegel_theta(float(t)))
        worst_overlap = max(worst_overlap, abs(em - rs))
    assert worst_overlap <= 1e-7
    print(
        f"criterion 9: conjugacy {worst_conj:.3e}, Z-reality {worst_real:.3e},"
        f" reflection {worst_refl:.3e}, method overlap {worst_overlap:.3e}"
    )
