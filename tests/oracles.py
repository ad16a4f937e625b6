"""Independent reference implementations used to pin the fast paths.

Everything in here is deliberately written as plain Python loops over
plain Python numbers (apart from one linear solve, and the pooling of
`report_oracle`, which calls `metrics.aggregate`) so that a bug in the
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


def roc_vertices(scores, labels):
    """Empirical ROC vertices as (FPR, TPR) pairs, from (0, 0) to (1, 1).

    Walks the recordings from the highest score down and adds one vertex
    after each whole group of tied scores, so a tie is one diagonal step.
    """
    ordered = sorted(((float(s), bool(y)) for s, y in zip(scores, labels)),
                     key=lambda pair: pair[0], reverse=True)
    n_pos = sum(1 for _, y in ordered if y)
    n_neg = len(ordered) - n_pos
    vertices = [(0.0, 0.0)]
    tp = fp = 0
    for i, (score, anomalous) in enumerate(ordered):
        if anomalous:
            tp += 1
        else:
            fp += 1
        if i + 1 == len(ordered) or ordered[i + 1][0] != score:
            vertices.append((fp / n_neg, tp / n_pos))
    return vertices


def trapezoid_pauc_raw(points, p):
    """Area under the ROC vertex list over FPR in [0, p], one segment at a time.

    Adds each whole segment's trapezoid in order and cuts the first segment
    that crosses p by linear interpolation.
    """
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


def mcclish(raw, p):
    """McClish standardization of a raw partial area over FPR in [0, p]."""
    chance = p * p * 0.5
    return 0.5 * (1.0 + (raw - chance) / (p - chance))


def report_oracle(columns, rows, true_machines, labels, p, average):
    """Both protocols over a score table, one machine slice at a time.

    `rows[i]` holds recording i's scores under the machines named in
    `columns`, `true_machines[i]` names its machine and `labels[i]` says
    whether it is anomalous. Known ID reads the true machine's column,
    unknown ID the row minimum (first column on ties). Returns, per mode,
    each machine's (AUC, pAUC), or None for a single-class slice, keyed in
    order of first appearance, with the pooled aggregate; then the number of
    correct identifications and of tied row minima.
    """
    from idfree_asd import metrics

    picks = [brute_force_argmin(row) for row in rows]
    order = []
    for machine in true_machines:
        if machine not in order:
            order.append(machine)
    modes = {}
    for mode in ("known", "unknown"):
        per_machine, pool = {}, []
        for machine in order:
            scores, ys = [], []
            for i, (row, owner) in enumerate(zip(rows, true_machines)):
                if owner == machine:
                    column = columns.index(machine) if mode == "known" else picks[i][0]
                    scores.append(row[column])
                    ys.append(labels[i])
            if all(ys) or not any(ys):
                per_machine[machine] = None
                continue
            pair = (brute_force_auc(scores, ys),
                    mcclish(trapezoid_pauc_raw(roc_vertices(scores, ys), p), p))
            per_machine[machine] = pair
            pool.extend(pair)
        modes[mode] = (per_machine, metrics.aggregate(pool, average))
    n_correct = sum(1 for (best, _), owner in zip(picks, true_machines) if columns[best] == owner)
    tie_count = sum(1 for _, tie in picks if tie)
    return modes, n_correct, tie_count


def k_nearest_indices(x, vectors, k, exclude=None):
    """Indices of the k vectors nearest to x, nearer first and, at equal
    distance, lower index first; the vector at index `exclude` is skipped."""
    ranked = sorted((euclidean(x, v), j) for j, v in enumerate(vectors) if j != exclude)
    return [j for _, j in ranked[:k]]


def generate_oracle(config, centers):
    """The test set and references of `simulate.generate`, drawn machine by
    machine into separate blocks as the generator's streams run, then put in
    id order by Python's `sorted`: (ids, true machine codes, anomaly flags,
    (n, d) features, {machine: reference vectors})."""
    children = np.random.SeedSequence(config.seed).spawn(config.k)
    rows, references = [], {}
    for index in range(config.k):
        machine = f"machine{index + 1:02d}"
        rng = np.random.default_rng(children[index])
        center = centers[index]
        references[machine] = center + config.spread * rng.standard_normal(
            (config.n_ref, config.d))
        normals = center + config.spread * rng.standard_normal((config.n_norm, config.d))
        directions = rng.standard_normal((config.n_anom, config.d))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        directions /= np.where(norms == 0.0, 1.0, norms)
        anomalies = (center + config.anomaly_offset * directions
                     + config.spread * rng.standard_normal((config.n_anom, config.d)))
        rows += [(f"{machine}-n{j:04d}", index, False, normals[j]) for j in range(config.n_norm)]
        rows += [(f"{machine}-a{j:04d}", index, True, anomalies[j]) for j in range(config.n_anom)]
    rows = sorted(rows, key=lambda row: row[0])
    features = np.array([row[3] for row in rows]).reshape(len(rows), config.d)
    return ([row[0] for row in rows], [row[1] for row in rows], [row[2] for row in rows],
            features, references)
