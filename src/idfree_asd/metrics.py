"""Rank-based detection metrics and chance-normalized summary quantities.

One score orientation holds everywhere: higher means more anomalous. AUC is
the Mann-Whitney estimator (ties count 1/2). The partial AUC over the
false-positive-rate interval [0, p] is McClish-standardized so a chance-level
classifier scores 0.5 and a perfect one 1.0 for every p.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "MetricError",
    "auc",
    "pauc",
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


def auc(scores, labels) -> float:
    """Probability that a random anomalous score exceeds a random normal one.

    Ties count 1/2 per pair (Mann-Whitney estimator). Raises MetricError on
    single-class input instead of silently reporting chance level.
    """
    return _roc(*_as_score_arrays(scores, labels))[0]


def _roc(s: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    # AUC, then the FPR and TPR of each empirical ROC vertex, starting at
    # (0, 0): one vertex per distinct score value, taken at the last of its
    # tied scores. Both come from one sort by descending score, counted only at group
    # ends, so the order within a tie changes nothing. A normal loses to every anomaly
    # of the earlier groups of tied scores and ties with those of its own group, so
    # twice the wins plus the ties is the integer sum, over groups, of the group's
    # normals times the anomalies up to the group's end plus those before the group.
    order = np.argsort(-s)
    s_desc = s[order]
    y_desc = y[order]
    group_ends = np.append(np.flatnonzero(np.diff(s_desc) != 0.0), s_desc.size - 1)
    tp = np.concatenate(([0], np.cumsum(y_desc)[group_ends]))
    fp = np.concatenate(([0], np.cumsum(~y_desc)[group_ends]))
    twice = int(np.dot(np.diff(fp), tp[1:] + tp[:-1]))
    return 0.5 * twice / (int(tp[-1]) * int(fp[-1])), fp / fp[-1], tp / tp[-1]


def _check_cap(p: float) -> None:
    if not (0.0 < p <= 1.0):
        raise MetricError(f"pAUC cap p must lie in (0, 1], got {p}")


def _partial_area(x: np.ndarray, y: np.ndarray, p: float) -> float:
    # trapezoidal area under the ROC vertices over FPR in [0, p]; FPR never
    # decreases, so the segments wholly inside [0, p] come first and the
    # next one, if it starts below p, is cut at p
    inside = int(np.searchsorted(x[1:], p, side="right"))
    terms = (x[1:inside + 1] - x[:inside]) * (y[:inside] + y[1:inside + 1]) * 0.5
    if inside < len(x) - 1 and x[inside] < p:
        x0, x1, y0, y1 = x[inside], x[inside + 1], y[inside], y[inside + 1]
        y_at_p = y0 + (y1 - y0) * (p - x0) / (x1 - x0)
        terms = np.append(terms, (p - x0) * (y0 + y_at_p) * 0.5)
    # cumsum adds in order, as a running sum would; np.sum adds pairwise
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _standardized(raw: float, p: float) -> float:
    # McClish: chance level maps to 0.5 and a perfect classifier to 1.0
    chance = p * p * 0.5
    return 0.5 * (1.0 + (raw - chance) / (p - chance))


def pauc(scores, labels, p: float = 0.1) -> float:
    """McClish-standardized partial AUC over FPR in [0, p].

    The raw partial area A_p is the trapezoidal area under the empirical ROC
    vertices of _roc, the final segment clipped at FPR = p by linear
    interpolation. It maps through 0.5 * (1 + (A_p - p^2/2) / (p - p^2/2)),
    so chance level is 0.5 and a perfect classifier reaches 1.0 for every p.
    """
    return _auc_pauc(scores, labels, p)[1]


def _auc_pauc(scores: np.ndarray, labels: np.ndarray, p: float) -> tuple[float, float]:
    """auc(scores, labels) and pauc(scores, labels, p) from one sort."""
    _check_cap(p)
    value, x, y = _roc(*_as_score_arrays(scores, labels))
    return value, _standardized(_partial_area(x, y, p), p)


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


def aggregate(values: Sequence[float], mode: str = "harmonic") -> float:
    """Pool per-machine AUC and pAUC values into one benchmark score.

    ``values`` is the flat pool, every machine's AUC and pAUC. "arithmetic"
    is the plain mean over the pool; "harmonic" is its harmonic mean
    (official-score convention). A pooled value of exactly 0 (say, a
    perfectly inverted scorer) makes the harmonic mean 0.0, its limit.
    """
    if len(values) == 0:
        raise MetricError("nothing to aggregate: empty metric list")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise MetricError(f"pooled metric {v} is outside [0, 1]")
    if mode == "arithmetic":
        return sum(values) / len(values)
    if mode == "harmonic":
        if min(values) == 0.0:
            return 0.0
        return len(values) / sum(1.0 / v for v in values)
    raise MetricError(f"unknown averaging mode {mode!r}; use one of {AVERAGING_MODES}")
