"""Rank-based detection metrics and chance-normalized summary quantities.

One score orientation holds everywhere: higher means more anomalous. AUC is
the Mann-Whitney estimator (ties count 1/2). The partial AUC over the
false-positive-rate interval [0, p] is McClish-standardized so a chance-level
classifier scores 0.5 and a perfect one 1.0 for every p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MetricError",
    "MetricPair",
    "IdAccuracy",
    "auc",
    "pauc",
    "pauc_raw",
    "roc_points",
    "delta_norm",
    "normalize_id_accuracy",
    "aggregate",
]

AVERAGING_MODES = ("arithmetic", "harmonic")


class MetricError(ValueError):
    """Raised when metric inputs are degenerate or out of range."""


def _as_score_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if s.ndim != 1 or y.ndim != 1:
        raise MetricError("scores and labels must be one-dimensional")
    if s.shape[0] != y.shape[0]:
        raise MetricError(
            f"scores and labels differ in length ({s.shape[0]} vs {y.shape[0]})"
        )
    if s.shape[0] == 0:
        raise MetricError("empty score list")
    if not np.isfinite(s).all():
        raise MetricError("scores contain non-finite values")
    if bool(y.all()) or not bool(y.any()):
        raise MetricError(
            "degenerate labels: need at least one normal and one anomalous recording"
        )
    return s, y


@dataclass(frozen=True)
class MetricPair:
    """Per-machine AUC and standardized pAUC with the FPR cap used."""

    auc: float
    pauc: float
    p: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 <= self.auc <= 1.0 and 0.0 <= self.pauc <= 1.0):
            raise MetricError(f"metrics out of [0, 1]: auc={self.auc}, pauc={self.pauc}")
        if not (0.0 < self.p <= 1.0):
            raise MetricError(f"pAUC cap p must lie in (0, 1], got {self.p}")


def auc(scores, labels) -> float:
    """Probability that a random anomalous score exceeds a random normal one.

    Ties count 1/2 per pair (Mann-Whitney estimator). Raises MetricError on
    single-class input instead of silently reporting chance level.
    """
    s, y = _as_score_arrays(scores, labels)
    pos = s[y]
    neg = np.sort(s[~y])
    below = np.searchsorted(neg, pos, side="left")
    below_or_equal = np.searchsorted(neg, pos, side="right")
    wins = int(below.sum())
    ties = int((below_or_equal - below).sum())
    pairs = pos.size * neg.size
    return (wins + 0.5 * ties) / pairs


def roc_points(scores, labels) -> list[tuple[float, float]]:
    """Empirical ROC vertices as (FPR, TPR) pairs, starting at (0, 0).

    One vertex per distinct score value; joining consecutive vertices with
    straight lines renders tied scores as diagonal segments.
    """
    s, y = _as_score_arrays(scores, labels)
    order = np.argsort(-s, kind="stable")
    s_desc = s[order]
    y_desc = y[order]
    # last index of each group of equal scores
    group_ends = np.flatnonzero(np.diff(s_desc) != 0.0)
    group_ends = np.append(group_ends, s_desc.size - 1)
    tp = np.cumsum(y_desc)[group_ends].tolist()
    fp = np.cumsum(~y_desc)[group_ends].tolist()
    n_pos = tp[-1]
    n_neg = fp[-1]
    points = [(0.0, 0.0)]
    points.extend((fp_i / n_neg, tp_i / n_pos) for fp_i, tp_i in zip(fp, tp))
    return points


def _check_p(p: float) -> None:
    if not (0.0 < p <= 1.0):
        raise MetricError(f"pAUC cap p must lie in (0, 1], got {p}")


def pauc_raw(scores, labels, p: float = 0.1) -> float:
    """Unstandardized area under the empirical ROC over FPR in [0, p].

    Trapezoidal integration over the vertex list from roc_points, clipping
    the final segment at FPR = p by linear interpolation.
    """
    _check_p(p)
    points = roc_points(scores, labels)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x1 <= p:
            area += (x1 - x0) * (y0 + y1) * 0.5
        elif x0 < p:
            y_at_p = y0 + (y1 - y0) * (p - x0) / (x1 - x0)
            area += (p - x0) * (y0 + y_at_p) * 0.5
            break
        else:
            break
    return area


def pauc(scores, labels, p: float = 0.1) -> float:
    """McClish-standardized partial AUC over FPR in [0, p].

    Maps the raw partial area A_p through 0.5 * (1 + (A_p - p^2/2) / (p - p^2/2)),
    so chance level is 0.5 and a perfect classifier reaches 1.0 for every p.
    """
    raw = pauc_raw(scores, labels, p)
    chance = p * p * 0.5
    return 0.5 * (1.0 + (raw - chance) / (p - chance))


def delta_norm(a_known: float, a_unknown: float) -> float | None:
    """Fraction of above-chance detection performance lost without identity.

    Returns None (the undefined marker) when a_known <= 0.5: there is no
    above-chance performance to lose.
    """
    for name, value in (("a_known", a_known), ("a_unknown", a_unknown)):
        if not (0.0 <= value <= 1.0):
            raise MetricError(f"{name} must lie in [0, 1], got {value}")
    if a_known <= 0.5:
        return None
    return 1.0 - (a_unknown - 0.5) / (a_known - 0.5)


def normalize_id_accuracy(raw: float, k: int) -> float:
    """Chance-normalize a raw k-way identification accuracy.

    (raw - 1/k) / (1 - 1/k): chance maps to 0, perfect accuracy to 1. Can be
    negative when raw is below chance.
    """
    if not (0.0 <= raw <= 1.0):
        raise MetricError(f"raw accuracy must lie in [0, 1], got {raw}")
    if int(k) != k or k < 2:
        raise MetricError(f"chance normalization needs at least 2 machines, got k={k}")
    chance = 1.0 / k
    return (raw - chance) / (1.0 - chance)


@dataclass(frozen=True)
class IdAccuracy:
    """Raw and chance-normalized machine identification accuracy."""

    raw: float
    k: int
    normalized: float | None

    @classmethod
    def compute(cls, raw: float, k: int) -> "IdAccuracy":
        # normalization is undefined for a single machine
        normalized = normalize_id_accuracy(raw, k) if k >= 2 else None
        return cls(raw, k, normalized)


def aggregate(per_machine: Sequence[MetricPair], mode: str = "harmonic") -> float:
    """Pool per-machine AUC and pAUC values into one benchmark score.

    "arithmetic" is the plain mean over all pooled values; "harmonic" is the
    harmonic mean over the same pool (official-score convention). A pooled
    value of exactly 0 (say, a perfectly inverted scorer) makes the harmonic
    mean 0.0, its limit; negative values are rejected.
    """
    if not per_machine:
        raise MetricError("nothing to aggregate: empty metric list")
    values = [v for pair in per_machine for v in (pair.auc, pair.pauc)]
    if mode == "arithmetic":
        return sum(values) / len(values)
    if mode == "harmonic":
        if min(values) < 0.0:
            raise MetricError("harmonic aggregation needs nonnegative values")
        if min(values) == 0.0:
            return 0.0
        return len(values) / sum(1.0 / v for v in values)
    raise MetricError(f"unknown averaging mode {mode!r}; use one of {AVERAGING_MODES}")
