"""Cycle detection: row scores, scans, coverings."""

import math

import numpy as np
import pytest

from _oracle_frozen import ZERO_ORDINATES
from zetacycles import cycles
from zetacycles.cycles import (
    FamilyDegenerateError,
    covering_stability,
    detect,
    mode_count,
    scan,
)
from zetacycles.schwartz import linear_combination, make_test_function
from zetacycles.specfun import (
    _GRID_BLOCK,
    VALIDATED_T_MAX,
    AccuracyError,
    find_zeros,
    zeta_critical,
    zeta_critical_many,
)

T1 = ZERO_ORDINATES[0]
L_STAR = 2.0 * math.pi / T1


def predicted_cycles(
    L_min: float, L_max: float, t_max: float, ordinates=ZERO_ORDINATES
) -> dict[tuple[int, int], float]:
    """Every cycle L = 2 pi n / t_k in [L_min, L_max] with t_k <= t_max, keyed
    by (mode n, index k of the zero t_k), from the frozen ordinates."""
    return {
        (n, k): 2.0 * math.pi * n / t
        for k, t in enumerate(ordinates, start=1)
        if t <= t_max
        for n in range(1, math.floor(L_max * t / (2.0 * math.pi)) + 1)
        if L_min <= 2.0 * math.pi * n / t
    }


def match_one_to_one(dips, predicted: dict[tuple[int, int], float], tol: float) -> None:
    """Each dip lands within tol of the predicted length of its own mode, and
    dips and predicted cycles pair off one to one."""
    matched = []
    for dip in dips:
        key = min((key for key in predicted if key[0] == dip.n),
                  key=lambda key: abs(predicted[key] - dip.L_star))
        assert abs(dip.L_star - predicted[key]) <= tol, (dip, key)
        matched.append(key)
    assert sorted(matched) == sorted(predicted)


@pytest.fixture(scope="module")
def zeros20(zeros60):
    return [z for z in zeros60 if z.ordinate <= 20.0]


class TestDetect:
    def test_positive_at_matched_length(self, family, zeros20):
        report = detect(L_STAR, family, t_max=20.0, zeros=zeros20)
        assert report.verdict
        assert report.flagged == [-1, 1]
        for m in report.matched_zeros:
            assert m.zero is not None
            assert m.distance <= 1e-9
            assert abs(abs(m.s) - T1) <= 1e-9

    def test_without_a_zero_list_matches_through_find_zeros(self, family):
        report = detect(L_STAR, family)
        assert report.flagged == [-1, 1]
        for m in report.matched_zeros:
            assert abs(m.zero.ordinate - T1) <= m.zero.abs_error
            assert m.distance <= 1e-9

    def test_negative_when_perturbed(self, family, zeros20):
        report = detect(L_STAR + 1e-3, family, t_max=20.0, zeros=zeros20)
        assert not report.verdict
        assert report.flagged == []
        assert report.matched_zeros == []

    def test_zeta_score_identity(self, family, zeros20):
        # every row's score is |zeta(1/2 + 2 pi i n / L)|, the value scan profiles
        for L in (0.7, L_STAR):
            report = detect(L, family, t_max=20.0, zeros=zeros20)
            for n, score in report.zeta_scores.items():
                assert score == abs(zeta_critical(-2.0 * math.pi * n / L))

    def test_scores_match_the_block_route_at_250(self, family):
        """At t_max = 250 the rows reach |s| ~ 147; each score equals |zeta|
        from zeta_critical_many at its frequency bit for bit, above 100 too."""
        report = detect(3.7, family, t_max=250.0)
        n = np.array(list(report.zeta_scores))
        assert n.max() == 147
        block = zeta_critical_many(-2.0 * math.pi * n / 3.7)[0]
        assert list(report.zeta_scores.values()) == [abs(z) for z in block.tolist()]

    def test_verdict_independent_of_family(self, family, zeros20):
        f3 = make_test_function(3)
        f4 = make_test_function(4)
        mix = linear_combination(family, [0.5, -1.0, 2.0])
        families = [family, [family[1], f3, f4], [mix, family[0]]]
        for fam in families:
            assert detect(L_STAR, fam, t_max=20.0, zeros=zeros20).verdict
            assert not detect(0.41, fam, t_max=20.0, zeros=zeros20).verdict

    def test_input_validation(self, family):
        with pytest.raises(ValueError):
            detect(-1.0, family)
        with pytest.raises(ValueError):
            detect(1.0, [])
        with pytest.raises(ValueError):
            detect(1.0, family, tol=0.0)
        with pytest.raises(ValueError, match="t_max must be positive"):
            detect(1.0, family, t_max=-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="L must be positive and finite"):
                detect(bad, family)
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                detect(1.0, family, tol=bad)
            with pytest.raises(ValueError, match="t_max must be positive and finite"):
                detect(1.0, family, t_max=bad)

    def test_short_length_returns_verdict(self, family):
        # the rows stop at t_max: a short circle has few of them, all validated
        report = detect(0.2, family, t_max=60.0)
        assert not report.verdict
        assert max(abs(2.0 * math.pi * n / 0.2) for n in report.zeta_scores) <= 60.0

    def test_degenerate_family_rejected(self, family):
        # the floor fails inside the band, at the row n = -9 (s = -56.55)
        faint = linear_combination([family[0]], [1e-240])
        with pytest.raises(FamilyDegenerateError, match=r"at s = -56\.5487$"):
            detect(1.0, [faint], t_max=60.0)


class TestScan:
    def test_recovers_first_zero(self, family):
        result = scan(0.40, 0.46, 1e-3, family, t_max=20.0)
        assert len(result.dips) == 1
        dip = result.dips[0]
        assert dip.n == 1
        assert abs(dip.L_star - L_STAR) <= 1e-9
        assert abs(dip.s - T1) <= 1e-6
        assert dip.z_residual < 1e-8
        assert result.runtime_stats["grid_points"] == 61

    def test_grid_ends_at_L_max(self, family):
        """A window that step does not divide still ends at L_max: the cycle
        L* = 2 pi / t_1 = 0.444521 lies past its last step, 0.444."""
        result = scan(0.40, 0.4449, 1e-3, family, t_max=60.0)
        assert result.grid[-1][0] == 0.4449
        assert result.runtime_stats["grid_points"] == 46
        predicted = predicted_cycles(0.40, 0.4449, 60.0)
        assert (1, 1) in predicted
        assert len(result.dips) == len(predicted)
        match_one_to_one(result.dips, predicted, 1e-12)

    def test_profile_matches_grid(self, family):
        result = scan(0.42, 0.43, 2e-3, family, t_max=20.0)
        assert len(result.grid) == 6
        ls = [L for L, _ in result.grid]
        assert ls == pytest.approx([0.42 + 2e-3 * i for i in range(6)])
        assert all(score > 0.0 for _, score in result.grid)

    def test_same_inputs_give_equal_results(self, family, zeros60):
        """A scan is a function of its inputs: it keeps no clock, so its
        runtime_stats hold counts alone and two calls compare equal."""
        first = scan(0.40, 0.46, 1e-3, family, t_max=60.0, zeros=zeros60)
        assert first == scan(0.40, 0.46, 1e-3, family, t_max=60.0, zeros=zeros60)
        assert set(first.runtime_stats) == {
            "grid_points", "dips", "zeta_points", "zeta_blocks", "edge_points"}

    def test_input_validation(self, family):
        with pytest.raises(ValueError):
            scan(0.5, 0.4, 1e-3, family)
        with pytest.raises(ValueError):
            scan(0.4, 0.5, -1e-3, family)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="L_min must be finite"):
                scan(bad, 0.5, 1e-3, family)
            with pytest.raises(ValueError, match="L_max must be finite"):
                scan(0.4, bad, 1e-3, family)
            with pytest.raises(ValueError, match="step must be finite"):
                scan(0.4, 0.5, bad, family)
            with pytest.raises(ValueError, match="t_max must be finite"):
                scan(0.4, 0.5, 1e-3, family, t_max=bad)

    def test_empty_family_rejected_before_evaluation(self, monkeypatch):
        monkeypatch.setattr(cycles, "zeta_critical_many", None)  # a call would raise TypeError
        with pytest.raises(ValueError, match="family must be nonempty"):
            scan(0.4, 0.5, 1e-3, [])

    def test_no_row_below_t_max(self, family):
        with pytest.raises(ValueError, match="no row frequency below t_max"):
            scan(0.05, 0.06, 1e-3, family)

    def test_profile_is_the_row_score(self, family):
        # the profile is min |zeta| over the rows; detect's row scores must agree
        result = scan(0.3, 1.5, 1e-3, family, t_max=60.0)
        for L, score in result.grid[::40]:
            zeta_scores = detect(L, family, 60.0).zeta_scores
            row_scores = [
                v for n, v in zeta_scores.items() if n >= 1 and 2.0 * math.pi * n / L <= 60.0
            ]
            assert abs(score - min(row_scores)) <= 1e-14 * score, L

    @pytest.mark.parametrize("cells", [1, 40, 1803])
    def test_chunked_profile_matches_one_chunk(self, family, monkeypatch, cells):
        """A window walked in chunks of whole rows, one row each (cells 1 and
        40) or three rows of 601 lengths then two (1,803), gives the profile,
        dips and point count of the same window in one chunk. The window has
        rows n = 1 .. 8, and each chunk makes one zeta_critical_many call."""
        whole = scan(0.3, 0.9, 1e-3, family, t_max=60.0)
        calls = []
        monkeypatch.setattr(cycles, "_SCAN_CELLS", cells)
        monkeypatch.setattr(cycles, "zeta_critical_many",
                            lambda t: calls.append(t.size) or zeta_critical_many(t))
        chunked = scan(0.3, 0.9, 1e-3, family, t_max=60.0)
        assert len(calls) == {1: 8, 40: 8, 1803: 3}[cells] + 1  # and once at the dips' zeros
        assert chunked.grid == whole.grid
        assert chunked.dips == whole.dips
        assert chunked.runtime_stats["zeta_points"] == whole.runtime_stats["zeta_points"]
        assert chunked.runtime_stats["edge_points"] == whole.runtime_stats["edge_points"]
        blocks = sum(-(-size // _GRID_BLOCK) for size in calls[:-1])  # each chunk's own
        assert chunked.runtime_stats["zeta_blocks"] == blocks

    def test_criterion_3_dips_unchanged(self, family):
        """The dips of the criterion-3 sweep are the 97 cycles 2 pi n / t_k of
        the window, one to one, with L* = 2 pi n / t_k to 1e-12."""
        result = scan(0.3, 1.5, 1e-3, family, t_max=60.0)
        predicted = predicted_cycles(0.3, 1.5, 60.0)
        assert len(predicted) == len(result.dips) == 97
        match_one_to_one(result.dips, predicted, 1e-12)
        assert result.runtime_stats["zeta_points"] == 9726
        assert result.runtime_stats["zeta_blocks"] == 39  # 9,726 points and 12 edge cells

    def test_brackets_reaching_above_t_max(self, family):
        """The rows n = 16 and 17 cross t_max = 250 in this window, and their
        brackets of t_108 = 249.57 end one cell above it: Z there, evaluated for
        its sign, completes them. A root above t_max is not reported."""
        ordinates = [z.ordinate for z in find_zeros(0.0, 250.0)]
        result = scan(0.40, 0.43, 1e-3, family, t_max=250.0)
        predicted = predicted_cycles(0.40, 0.43, 250.0, ordinates)
        assert len(predicted) == len(result.dips) == 72
        match_one_to_one(result.dips, predicted, 1e-12)
        assert {(16, 108), (17, 108)} <= set(predicted)
        assert max(dip.s for dip in result.dips) <= 250.0
        assert result.runtime_stats["edge_points"] == 2

    def test_zero_missing_from_the_list(self, family, zeros60):
        """Without t_4 = 30.42 in the list, the bracket of row 2 that holds it
        finds no listed zero: the profile and the list disagree."""
        gapped = zeros60[:3] + zeros60[4:]
        with pytest.raises(AccuracyError, match=r"row n = 2: the bracket \[30\.35\d*, 30\.42\d*\]"):
            scan(0.40, 0.46, 1e-3, family, t_max=60.0, zeros=gapped)

    def test_dips_read_off_the_list(self, family, zeros60):
        """Each dip is a listed zero, by index, with its own bracket width, and
        |Z| there for its residual; a given list and none give the same dips."""
        result = scan(0.3, 1.5, 1e-3, family, t_max=60.0, zeros=zeros60)
        assert result.dips == scan(0.3, 1.5, 1e-3, family, t_max=60.0).dips
        for dip in result.dips:
            assert dip.s == zeros60[dip.zero_index].ordinate
            assert dip.L_star == 2.0 * math.pi * dip.n / dip.s
            assert 0.0 < dip.bracket_width <= 2.0 * math.pi * dip.n * 1e-3 / 0.3**2
            assert dip.z_residual < 1e-8
        assert {dip.zero_index for dip in result.dips} == set(range(13))

    def test_degenerate_family_rejected(self):
        # the floor is checked at the dips' frequencies: it fails at t_k >= 30
        faint = linear_combination([make_test_function(0)], [1e-240])
        with pytest.raises(FamilyDegenerateError):
            scan(0.40, 0.46, 1e-3, [faint], t_max=60.0)


class TestCovering:
    def test_multiples_stay_positive(self, family, zeros60):
        reports = covering_stability(
            L_STAR, [1, 2, 3], family, t_max=60.0, zeros=zeros60
        )
        for k, report in zip([1, 2, 3], reports):
            assert report.verdict
            assert -k in report.flagged and k in report.flagged

    @pytest.mark.parametrize("k", [0, -1, 1.5])
    def test_multiples_must_be_positive_integers(self, family, monkeypatch, k):
        monkeypatch.setattr(cycles, "detect", None)  # checked before the base length
        with pytest.raises(ValueError, match=f"each of multiples must be a positive integer, got {k}"):
            covering_stability(L_STAR, [1, k], family)

    def test_negative_base_rejected(self, family, zeros20):
        with pytest.raises(ValueError):
            covering_stability(0.41, [1, 2], family, t_max=20.0, zeros=zeros20)


def test_mode_count_covers_band():
    """N is the last mode at or below t_max, with the frequency computed as scan
    computes it, also at lengths L = 2 pi m / t_max where rounding decides."""
    for t_max in (20.0, 60.0, 250.0):
        lengths = [0.3, 0.7, 1.4] + [2.0 * math.pi * m / t_max for m in (11, 15, 61)]
        for L in lengths:
            n = mode_count(L, t_max)
            assert 2.0 * math.pi * n / L <= t_max < 2.0 * math.pi * (n + 1) / L, (L, t_max)


def test_mode_count_padding_stays_validated():
    for L in (0.05, 0.1, 0.2, 0.25, 0.5):
        for t_max in (20.0, 60.0, 250.0):
            n = mode_count(L, t_max)
            assert n >= math.floor(L * t_max / (2.0 * math.pi))
            assert 2.0 * math.pi * n / L <= VALIDATED_T_MAX
