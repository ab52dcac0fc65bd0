"""Classification evaluation: ROC curves, AUC, operating points, DeLong's test.

AUC is computed as the Mann-Whitney statistic (ties count half) and always
equals the trapezoidal area under the tie-grouped ROC curve.  DeLong's
test compares two correlated AUCs measured on the same cases through
their per-case structural components: for each positive case the mean
heaviside score against all negatives (V10), and symmetrically V01 for
negatives; the variance of the AUC difference follows from the empirical
covariance of those components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats

from .errors import DataError

_REPORT_THRESHOLD = 0.5  # the likelihood cut of a report's threshold metrics


@dataclass(frozen=True)
class ScoredSet:
    """Aligned likelihood scores and binary ground-truth labels."""

    scores: np.ndarray
    labels: np.ndarray
    subject_ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.scores.ndim != 1 or self.scores.shape != self.labels.shape:
            raise DataError(
                f"scores {self.scores.shape} and labels {self.labels.shape} must be "
                "equal-length vectors")
        if self.subject_ids is not None and len(self.subject_ids) != len(self.scores):
            raise DataError("subject_ids length differs from scores")
        if not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        if not np.isfinite(self.scores).all():
            raise DataError(f"{int((~np.isfinite(self.scores)).sum())} scores are not finite")

    def require_both_classes(self) -> None:
        if not (self.labels == 1).any() or not (self.labels == 0).any():
            raise DataError("operation needs at least one positive and one negative")


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    fpr: float
    tpr: float


@dataclass(frozen=True)
class DeLongResult:
    auc_a: float
    auc_b: float
    variance: float
    z: Optional[float]
    p_value: Optional[float]
    p_one_sided: Optional[float]
    degenerate: bool = False


def roc_curve(scored: ScoredSet) -> tuple[RocPoint, ...]:
    """Tie-grouped ROC points swept over unique scores, descending.

    Predictions are positive when score >= threshold.  The curve starts at
    (0, 0) (threshold +inf) and ends at (1, 1) (threshold = min score).
    """
    scored.require_both_classes()
    pos = scored.labels == 1
    n_pos = int(pos.sum())
    n_neg = len(scored.labels) - n_pos

    order = np.argsort(-scored.scores, kind="stable")
    sorted_scores = scored.scores[order]
    tp = np.cumsum(pos[order])
    fp = np.arange(1, len(order) + 1) - tp
    ends = np.r_[np.flatnonzero(np.diff(sorted_scores)), len(order) - 1]  # last of each tie
    return (RocPoint(math.inf, 0.0, 0.0),) + tuple(
        RocPoint(float(t), float(f), float(p))
        for t, f, p in zip(sorted_scores[ends], fp[ends] / n_neg, tp[ends] / n_pos))


def auc(scored: ScoredSet) -> float:
    """Mann-Whitney AUC: P(positive score > negative score) + half ties.

    Computed from the positives' rank sum; midranks make each tie count half.
    """
    scored.require_both_classes()
    pos = scored.labels == 1
    m = int(pos.sum())
    n = len(pos) - m
    rank_sum = stats.rankdata(scored.scores)[pos].sum()
    return float((rank_sum - m * (m + 1) / 2) / (m * n))


def metrics_at(scored: ScoredSet, threshold: float) -> dict:
    """Accuracy / sensitivity / specificity with predictions score >= threshold.

    A metric is None when its class is empty.
    """
    predicted = scored.scores >= threshold
    actual = scored.labels == 1
    tp = int((predicted & actual).sum())
    tn = int((~predicted & ~actual).sum())
    n_pos = int(actual.sum())
    n_neg = len(scored.labels) - n_pos
    return {
        "accuracy": (tp + tn) / len(scored.labels) if len(scored.labels) else None,
        "sensitivity": tp / n_pos if n_pos else None,
        "specificity": tn / n_neg if n_neg else None,
    }


def operating_point(points) -> float:
    """Threshold maximizing sensitivity + specificity; ties take the lower one.

    ``points`` run in descending threshold order, as :func:`roc_curve` returns them.
    """
    j = np.array([p.tpr + (1.0 - p.fpr) for p in points])
    return float(points[len(j) - 1 - int(np.argmax(j[::-1]))].threshold)


def report_dict(scored: ScoredSet) -> dict:
    """JSON-ready evaluation report: AUC, threshold metrics, operating point, curve."""
    points = roc_curve(scored)
    op = operating_point(points)
    return {
        "n": int(len(scored.labels)),
        "n_positive": int(scored.labels.sum()),
        "auc": auc(scored),
        "threshold": _REPORT_THRESHOLD,
        **metrics_at(scored, _REPORT_THRESHOLD),
        "operating_point": {"threshold": op, **metrics_at(scored, op)},
        "curve": [{"threshold": p.threshold if math.isfinite(p.threshold) else None,
                   "fpr": p.fpr, "tpr": p.tpr} for p in points],
    }


def _structural_components(scores: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V10 (per positive) and V01 (per negative) heaviside means."""
    p = scores[pos][:, None]
    n = scores[~pos][None, :]
    psi = np.where(p > n, 1.0, np.where(p == n, 0.5, 0.0))
    return psi.mean(axis=1), psi.mean(axis=0)


def delong_test(scores_a, scores_b, labels) -> DeLongResult:
    """Two-sided z-test for the difference of two correlated AUCs.

    Zero variance with equal AUCs yields p = 1 by convention; zero
    variance with unequal AUCs is reported as a degenerate outcome with no
    z or p rather than an infinite statistic.
    """
    scores_a = np.asarray(scores_a, dtype=np.float64)
    scores_b = np.asarray(scores_b, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores_a.shape != scores_b.shape or scores_a.shape != labels.shape:
        raise DataError("both score vectors and labels must share one case set")
    pos = labels == 1
    m = int(pos.sum())
    n = len(labels) - m
    if m == 0 or n == 0:
        raise DataError("DeLong needs both classes")
    if m < 2 or n < 2:
        raise DataError("DeLong needs at least 2 cases per class")

    v10_a, v01_a = _structural_components(scores_a, pos)
    v10_b, v01_b = _structural_components(scores_b, pos)
    auc_a = float(v10_a.mean())
    auc_b = float(v10_b.mean())

    s10 = np.cov(np.stack([v10_a, v10_b]), ddof=1)
    s01 = np.cov(np.stack([v01_a, v01_b]), ddof=1)
    s = s10 / m + s01 / n
    variance = float(s[0, 0] + s[1, 1] - 2 * s[0, 1])
    variance = max(variance, 0.0)

    diff = auc_a - auc_b
    if variance == 0.0:
        if abs(diff) < 1e-12:
            return DeLongResult(auc_a, auc_b, 0.0, z=0.0, p_value=1.0, p_one_sided=0.5)
        return DeLongResult(auc_a, auc_b, 0.0, z=None, p_value=None, p_one_sided=None,
                            degenerate=True)
    z = diff / math.sqrt(variance)
    p_two = float(2 * stats.norm.sf(abs(z)))
    p_one = float(stats.norm.sf(z))
    return DeLongResult(auc_a, auc_b, variance, z=float(z), p_value=p_two,
                        p_one_sided=p_one)
