"""Independent reference implementations used to pin the fast paths.

Everything in here is deliberately written as plain Python loops over
plain Python numbers (apart from one linear solve) so that a bug in the
vectorised code cannot hide behind a shared helper.
"""

from __future__ import annotations

import numpy as np


def brute_force_auc(scores, labels):
    """Pairwise comparison count, half credit for ties."""
    anomalies = [float(s) for s, y in zip(scores, labels) if y]
    normals = [float(s) for s, y in zip(scores, labels) if not y]
    wins = 0
    ties = 0
    for a in anomalies:
        for n in normals:
            if a > n:
                wins += 1
            elif a == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(anomalies) * len(normals))


def brute_force_argmin(row):
    """First index holding the smallest value, plus a tie flag."""
    best = 0
    for i, value in enumerate(row):
        if value < row[best]:
            best = i
    tie = sum(1 for value in row if value == row[best]) > 1
    return best, tie


def euclidean(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5


def k_nearest_mean(x, vectors, k):
    """Mean of the k smallest Euclidean distances from x to the vectors."""
    return sum(sorted(euclidean(x, v) for v in vectors)[:k]) / k


def held_out_scores(kind, k, epsilon, vectors):
    """Raw score of each reference vector against the set rebuilt without it.

    nearest_reference: mean of the k smallest distances to the other
    vectors. mahalanobis: distance to the others' mean under their
    population covariance, diagonal-loaded by epsilon (None: 1e-6 * trace/d,
    floored at 1e-12).
    """
    rows = [[float(v) for v in row] for row in vectors]
    scores = []
    for i, x in enumerate(rows):
        rest = rows[:i] + rows[i + 1:]
        if kind == "nearest_reference":
            scores.append(k_nearest_mean(x, rest, k))
            continue
        n, d = len(rest), len(x)
        mean = [sum(r[j] for r in rest) / n for j in range(d)]
        cov = [[sum((r[a] - mean[a]) * (r[b] - mean[b]) for r in rest) / n
                for b in range(d)] for a in range(d)]
        load = epsilon
        if load is None:
            load = max(1e-6 * sum(cov[j][j] for j in range(d)) / d, 1e-12)
        for j in range(d):
            cov[j][j] += load
        delta = [x[j] - mean[j] for j in range(d)]
        solved = np.linalg.solve(np.array(cov), np.array(delta))
        scores.append(max(sum(a * float(b) for a, b in zip(delta, solved)), 0.0) ** 0.5)
    return scores
