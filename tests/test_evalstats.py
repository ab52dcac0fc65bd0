"""ROC/AUC/DeLong contracts against exhaustive oracles and hand calculations."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szdl.errors import DataError
from szdl.evalstats import (
    ScoredSet,
    auc,
    delong_test,
    metrics_at,
    operating_point,
    report_dict,
    roc_curve,
)

from oracles import auc_pair_count, roc_points_sweep, trapezoid_area, youden_scan

# the four-case fixture used throughout: pos {0.9, 0.4}, neg {0.5, 0.1}
FOUR = ScoredSet(np.array([0.9, 0.4, 0.5, 0.1]), np.array([1, 1, 0, 0]))


class TestRocCurve:
    def test_perfect_separation_passes_corner(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        pts = roc_curve(s)
        assert any(p.fpr == 0.0 and p.tpr == 1.0 for p in pts)

    def test_all_tied_scores_two_points(self):
        s = ScoredSet(np.array([0.5, 0.5, 0.5, 0.5]), np.array([1, 1, 0, 0]))
        pts = roc_curve(s)
        assert [(p.fpr, p.tpr) for p in pts] == [(0.0, 0.0), (1.0, 1.0)]

    def test_four_threshold_groups_match_sweep_oracle(self):
        pts = roc_curve(FOUR)
        assert [(p.fpr, p.tpr) for p in pts] == roc_points_sweep(
            FOUR.scores.tolist(), FOUR.labels.tolist())

    def test_monotone_and_endpoints(self):
        rng = np.random.default_rng(0)
        s = ScoredSet(rng.random(50), rng.integers(0, 2, 50))
        pts = roc_curve(s)
        assert (pts[0].fpr, pts[0].tpr) == (0.0, 0.0)
        assert (pts[-1].fpr, pts[-1].tpr) == (1.0, 1.0)
        for a, b in zip(pts, pts[1:]):
            assert b.fpr >= a.fpr and b.tpr >= a.tpr

    def test_single_class_raises(self):
        with pytest.raises(DataError, match="operation needs at least one positive and one negative"):
            roc_curve(ScoredSet(np.array([0.2, 0.4]), np.array([1, 1])))


class TestExactAgainstLoopOracles:
    """Tie-grouped cumulative sums and the rank sum are exact, so they equal the loops."""

    def test_roc_and_auc_equal_loop_oracles(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.random(n), int(rng.integers(0, 3)))  # many ties
            labels = rng.integers(0, 2, n)
            labels[0], labels[-1] = 0, 1
            s = ScoredSet(scores, labels)
            pts = roc_curve(s)
            assert [(p.fpr, p.tpr) for p in pts] == roc_points_sweep(
                scores.tolist(), labels.tolist())
            assert [p.threshold for p in pts[1:]] == sorted(set(scores.tolist()), reverse=True)
            assert all(type(v) is float for p in pts for v in (p.threshold, p.fpr, p.tpr))
            assert auc(s) == auc_pair_count(scores.tolist(), labels.tolist())


class TestAuc:
    def test_perfect_and_inverted(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        assert auc(s) == 1.0
        inv = ScoredSet(s.scores, 1 - s.labels)
        assert auc(inv) == 0.0

    def test_hand_example_three_quarters(self):
        assert auc(FOUR) == 0.75

    def test_equals_trapezoid_area(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=30)
            labels = rng.integers(0, 2, 30)
            if labels.min() == labels.max():
                continue
            s = ScoredSet(scores, labels)
            assert abs(auc(s) - trapezoid_area(roc_curve(s))) < 1e-12

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores = np.round(rng.random(20), 1)  # rounded to force ties
            labels = rng.integers(0, 2, 20)
            if labels.min() == labels.max():
                continue
            s = ScoredSet(scores, labels)
            assert abs(auc(s) - auc_pair_count(scores, labels)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(30)
        labels = np.r_[np.ones(15, dtype=int), np.zeros(15, dtype=int)]
        s = ScoredSet(scores, labels)
        t = ScoredSet(np.exp(3 * scores), labels)  # strictly increasing map
        assert auc(t) == pytest.approx(auc(s), abs=1e-12)
        pts_s = [(p.fpr, p.tpr) for p in roc_curve(s)]
        pts_t = [(p.fpr, p.tpr) for p in roc_curve(t)]
        assert pts_s == pts_t
        m_s = metrics_at(s, operating_point(roc_curve(s)))
        m_t = metrics_at(t, operating_point(roc_curve(t)))
        assert m_s == m_t


class TestMetricsAt:
    def test_all_correct(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        m = metrics_at(s, 0.5)
        assert (m["accuracy"], m["sensitivity"], m["specificity"]) == (1.0, 1.0, 1.0)

    def test_threshold_above_max(self):
        m = metrics_at(FOUR, 2.0)
        assert m["sensitivity"] == 0.0 and m["specificity"] == 1.0

    def test_hand_tabulation(self):
        m = metrics_at(FOUR, 0.5)
        assert (m["accuracy"], m["sensitivity"], m["specificity"]) == (0.5, 0.5, 0.5)

    def test_empty_class_reports_none(self):
        s = ScoredSet(np.array([0.3, 0.6]), np.array([1, 1]))
        m = metrics_at(s, 0.5)
        assert m["specificity"] is None and m["sensitivity"] == 0.5


class TestOperatingPoint:
    def test_perfect_separation_lowest_qualifying(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        pts = roc_curve(s)
        t = operating_point(pts)
        assert t == 0.8  # min positive score: lowest threshold with J = 2
        m = metrics_at(s, t)
        assert m["sensitivity"] + m["specificity"] == 2.0

    def test_all_ties_single_step(self):
        s = ScoredSet(np.array([0.5, 0.5, 0.5]), np.array([1, 0, 1]))
        assert operating_point(roc_curve(s)) == 0.5

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores = np.round(rng.random(16), 1)
            labels = rng.integers(0, 2, 16)
            if labels.min() == labels.max():
                continue
            s = ScoredSet(scores, labels)
            expected_t, expected_j = youden_scan(scores.tolist(), labels.tolist())
            got_t = operating_point(roc_curve(s))
            m = metrics_at(s, got_t)
            assert m["sensitivity"] + m["specificity"] == pytest.approx(expected_j, abs=1e-12)
            assert got_t == pytest.approx(expected_t, abs=1e-12)

    def test_hand_example_prefers_lower_threshold(self):
        # J = 1.5 at both 0.9 and 0.4; the tie rule returns 0.4
        assert operating_point(roc_curve(FOUR)) == 0.4


class TestDeLong:
    # hand-worked five-case example: 3 positives, 2 negatives
    # model A: pos {0.9, 0.6, 0.3}, neg {0.5, 0.2}
    #   V10_a = [1, 1, 1/2]   V01_a = [2/3, 1]   auc_a = 5/6
    # model B: pos {0.8, 0.65, 0.7}, neg {0.6, 0.1}
    #   V10_b = [1, 1, 1]     V01_b = [1, 1]     auc_b = 1
    # S10 = [[1/12, 0], [0, 0]], S01 = [[1/18, 0], [0, 0]]
    # var = 1/12/3 + 1/18/2 = 1/18;  z = (5/6 - 1)/sqrt(1/18) = -1/sqrt(2)
    # p  = 2 (1 - Phi(1/sqrt(2))) = erfc(1/2)
    LABELS = np.array([1, 1, 1, 0, 0])
    A = np.array([0.9, 0.6, 0.3, 0.5, 0.2])
    B = np.array([0.8, 0.65, 0.7, 0.6, 0.1])

    def test_hand_computed_components(self):
        r = delong_test(self.A, self.B, self.LABELS)
        assert r.auc_a == pytest.approx(5 / 6, abs=1e-12)
        assert r.auc_b == pytest.approx(1.0, abs=1e-12)
        assert r.variance == pytest.approx(1 / 18, abs=1e-12)
        assert r.z == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
        assert r.p_value == pytest.approx(math.erfc(0.5), abs=1e-12)
        assert r.p_value == pytest.approx(0.4795001221869535, abs=1e-12)

    def test_identical_models_p_one(self):
        r = delong_test(self.A, self.A, self.LABELS)
        assert r.auc_a == r.auc_b
        assert r.variance == 0.0
        assert r.p_value == 1.0

    def test_swap_negates_z_keeps_p(self):
        r1 = delong_test(self.A, self.B, self.LABELS)
        r2 = delong_test(self.B, self.A, self.LABELS)
        assert r2.z == pytest.approx(-r1.z, abs=1e-12)
        assert r2.p_value == pytest.approx(r1.p_value, abs=1e-12)

    def test_one_sided_alongside(self):
        r = delong_test(self.B, self.A, self.LABELS)  # B better: positive z
        assert r.z > 0
        assert r.p_one_sided == pytest.approx(r.p_value / 2, abs=1e-12)

    def test_variance_same_ballpark_as_jackknife(self):
        rng = np.random.default_rng(4)
        labels = np.r_[np.ones(40, dtype=int), np.zeros(40, dtype=int)]
        base = labels + rng.standard_normal(80)
        a = base + 0.5 * rng.standard_normal(80)
        b = base + 0.5 * rng.standard_normal(80)
        r = delong_test(a, b, labels)

        # jackknife pseudo-value variance of the AUC difference
        def diff(idx):
            return (auc_pair_count(a[idx], labels[idx])
                    - auc_pair_count(b[idx], labels[idx]))

        full = diff(np.arange(80))
        pseudo = []
        for i in range(80):
            idx = np.delete(np.arange(80), i)
            pseudo.append(80 * full - 79 * diff(idx))
        jack = float(np.var(pseudo, ddof=1) / 80)
        assert 0.3 < r.variance / jack < 3.0

    def test_degenerate_unequal_aucs_zero_variance(self):
        # constant component vectors but different AUCs: perfect vs. anti-perfect
        labels = np.array([1, 1, 0, 0])
        a = np.array([0.9, 0.8, 0.2, 0.1])
        b = np.array([0.1, 0.2, 0.8, 0.9])
        r = delong_test(a, b, labels)
        assert r.degenerate and r.z is None and r.p_value is None

    def test_errors(self):
        with pytest.raises(DataError, match="both score vectors and labels must share one case set"):
            delong_test([0.1, 0.2], [0.1], [1, 0])
        with pytest.raises(DataError, match="DeLong needs both classes"):
            delong_test([0.1, 0.2], [0.3, 0.4], [1, 1])
        with pytest.raises(DataError, match="DeLong needs at least 2 cases per class"):
            delong_test([0.1, 0.2, 0.3], [0.2, 0.3, 0.4], [1, 1, 0])


class TestSummarize:
    def test_bundle_consistent(self):
        r = report_dict(FOUR)
        assert r["auc"] == 0.75
        assert r["operating_point"]["threshold"] == 0.4
        assert r["accuracy"] == 0.5
        curve = [SimpleNamespace(**point) for point in r["curve"]]
        assert abs(trapezoid_area(curve) - r["auc"]) < 1e-12

    def test_degenerate_single_class_raises(self):
        with pytest.raises(DataError, match="operation needs at least one positive and one negative"):
            report_dict(ScoredSet(np.array([0.5, 0.7]), np.array([0, 0])))


class TestScoredSet:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_raises(self, bad):
        with pytest.raises(DataError, match="not finite"):
            ScoredSet(np.array([0.9, bad, 0.5, 0.1]), np.array([1, 1, 0, 0]))
