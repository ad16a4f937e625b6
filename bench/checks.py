"""Checks of the program's reports against computations made apart from it.

Nothing here calls the package's metric, protocol or scorer code. AUC comes
from a rank sum (scipy ``rankdata``), pAUC from an ROC built here, unknown-ID
scores from numpy row minima, and every pooled or derived figure from its
formula. Each ``check_*`` function returns a list of mismatch messages; an
empty list means the report passed.

Tolerances (absolute): metric values 1e-9, formula identities on the
report's own values 1e-12. Counts must match exactly.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.stats import rankdata

METRIC_TOL = 1e-9
IDENTITY_TOL = 1e-12
PAUC_P = 0.1


def rank_sum_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney U over n_pos * n_neg from mid-ranks (ties count 1/2)."""
    ranks = rankdata(scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def mcclish_pauc(scores: np.ndarray, labels: np.ndarray, p: float = PAUC_P) -> float:
    """McClish-standardized area under the empirical ROC over FPR in [0, p]."""
    # one ROC vertex per distinct score, thresholds from high to low
    values, inverse = np.unique(-scores, return_inverse=True)
    pos = np.bincount(inverse, weights=labels, minlength=values.size)
    neg = np.bincount(inverse, weights=~labels, minlength=values.size)
    tpr = np.concatenate(([0.0], np.cumsum(pos) / pos.sum()))
    fpr = np.concatenate(([0.0], np.cumsum(neg) / neg.sum()))
    # vertices strictly left of p, then the segment that reaches p
    cut = int(np.searchsorted(fpr, p, side="left"))
    x, y = fpr[:cut], tpr[:cut]
    area = float(np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) * 0.5))
    x0, y0, x1, y1 = fpr[cut - 1], tpr[cut - 1], fpr[cut], tpr[cut]
    y_at_p = y0 + (y1 - y0) * (p - x0) / (x1 - x0)
    area += (p - x0) * (y0 + y_at_p) * 0.5
    chance = p * p / 2.0
    return 0.5 * (1.0 + (area - chance) / (p - chance))


def harmonic(values) -> float:
    return len(values) / sum(1.0 / v for v in values)


def degradation(a_known: float, a_unknown: float) -> float | None:
    if a_known <= 0.5:
        return None
    return 1.0 - (a_unknown - 0.5) / (a_known - 0.5)


def _mode(scores, true_idx, anomalous, machines) -> dict:
    per_machine = {}
    pooled = []
    for index, machine in enumerate(machines):
        mask = true_idx == index
        if not mask.any():
            continue
        s, y = scores[mask], anomalous[mask]
        n_anom = int(y.sum())
        entry = {"n_normal": int(mask.sum()) - n_anom, "n_anomalous": n_anom,
                 "auc": None, "pauc": None}
        if 0 < n_anom < mask.sum():
            entry["auc"] = rank_sum_auc(s, y)
            entry["pauc"] = mcclish_pauc(s, y)
            pooled += [entry["auc"], entry["pauc"]]
        per_machine[machine] = entry
    return {"per_machine": per_machine, "aggregate": harmonic(pooled)}


def expected_split(matrix: np.ndarray, machines, true_idx, anomalous) -> dict:
    """Known- and unknown-ID figures of one split from its score matrix.

    ``matrix`` is (n, k) with higher meaning more anomalous, columns in
    ``machines`` order; ``true_idx`` gives each row's true column.
    """
    rows = np.arange(matrix.shape[0])
    known = matrix[rows, true_idx]
    unknown = matrix.min(axis=1)
    chosen = matrix.argmin(axis=1)  # first index on ties
    k = len(machines)
    n = matrix.shape[0]
    n_correct = int((chosen == true_idx).sum())
    raw = n_correct / n
    known_mode = _mode(known, true_idx, anomalous, machines)
    unknown_mode = _mode(unknown, true_idx, anomalous, machines)
    return {
        "n_recordings": n,
        "known": known_mode,
        "unknown": unknown_mode,
        "identification": {
            "k": k,
            "n_recordings": n,
            "n_correct": n_correct,
            "tie_count": int(((matrix == unknown[:, None]).sum(axis=1) > 1).sum()),
            "raw_accuracy": raw,
            "normalized": (raw - 1.0 / k) / (1.0 - 1.0 / k) if k >= 2 else None,
            "misid_probability": (n - n_correct) / n,
        },
        "delta_norm": degradation(known_mode["aggregate"], unknown_mode["aggregate"]),
        "min_never_above_known": bool((unknown <= known).all()),
    }


def _close(errors, where, got, want, tol=METRIC_TOL) -> None:
    if want is None or got is None:
        if got is not want:
            errors.append(f"{where}: got {got!r}, expected {want!r}")
    elif not (isinstance(got, (int, float)) and math.isfinite(got)
              and abs(got - want) <= tol):
        errors.append(f"{where}: got {got!r}, expected {want!r}")


def _exact(errors, where, got, want) -> None:
    if got != want or type(got) is not type(want):
        errors.append(f"{where}: got {got!r}, expected exactly {want!r}")


def check_evaluation(doc: dict, expected: dict[str, dict], machines) -> list[str]:
    """Compare an ``evaluate`` report with per-split expectations."""
    errors: list[str] = []
    if doc.get("kind") != "evaluation":
        return [f"report kind is {doc.get('kind')!r}, expected 'evaluation'"]
    splits = doc.get("splits", {})
    if sorted(splits) != sorted(expected):
        return [f"report splits {sorted(splits)}, expected {sorted(expected)}"]
    for split, want in expected.items():
        got = splits[split]
        where = f"splits.{split}"
        _exact(errors, f"{where}.machines", got["machines"], list(machines))
        _exact(errors, f"{where}.n_recordings", got["n_recordings"], want["n_recordings"])
        for mode in ("known", "unknown"):
            g, w = got[mode], want[mode]
            _close(errors, f"{where}.{mode}.aggregate", g["aggregate"], w["aggregate"])
            if sorted(g["per_machine"]) != sorted(w["per_machine"]):
                errors.append(f"{where}.{mode}: machines {sorted(g['per_machine'])}")
                continue
            for machine, wm in w["per_machine"].items():
                gm = g["per_machine"][machine]
                at = f"{where}.{mode}.{machine}"
                _exact(errors, f"{at}.n_normal", gm["n_normal"], wm["n_normal"])
                _exact(errors, f"{at}.n_anomalous", gm["n_anomalous"], wm["n_anomalous"])
                _close(errors, f"{at}.auc", gm["auc"], wm["auc"])
                _close(errors, f"{at}.pauc", gm["pauc"], wm["pauc"])
            values = [v for m in g["per_machine"].values() if m["auc"] is not None
                      for v in (m["auc"], m["pauc"])]
            _close(errors, f"{where}.{mode}.aggregate (harmonic of reported values)",
                   g["aggregate"], harmonic(values), IDENTITY_TOL)
        gi, wi = got["identification"], want["identification"]
        for key in ("k", "n_recordings", "n_correct", "tie_count"):
            _exact(errors, f"{where}.identification.{key}", gi[key], wi[key])
        for key in ("raw_accuracy", "normalized", "misid_probability"):
            _close(errors, f"{where}.identification.{key}", gi[key], wi[key],
                   IDENTITY_TOL)
        gd = got["delta_norm"]
        _close(errors, f"{where}.delta_norm.fraction", gd["fraction"], want["delta_norm"])
        _close(errors, f"{where}.delta_norm.fraction (from reported aggregates)",
               gd["fraction"], degradation(gd["a_known"], gd["a_unknown"]), IDENTITY_TOL)
        _exact(errors, f"{where}.delta_norm.a_known", gd["a_known"], got["known"]["aggregate"])
        _exact(errors, f"{where}.delta_norm.a_unknown", gd["a_unknown"],
               got["unknown"]["aggregate"])
        if not want["min_never_above_known"]:
            errors.append(f"{where}: a recording's unknown-ID score exceeds its known-ID score")
    return errors


def expected_point(matrix: np.ndarray, true_idx, anomalous) -> dict:
    """Point figures of one single-split simulated run."""
    machines = [str(i) for i in range(matrix.shape[1])]
    split = expected_split(matrix, machines, true_idx, anomalous)
    ident = split["identification"]
    return {
        "id_accuracy_normalized": ident["normalized"],
        "delta_norm": split["delta_norm"],
        "a_known": split["known"]["aggregate"],
        "a_unknown": split["unknown"]["aggregate"],
        "misid_probability": ident["misid_probability"],
        "min_never_above_known": split["min_never_above_known"],
    }


def check_point(point: dict, want: dict, k: int, where: str = "point") -> list[str]:
    """Compare one sweep/simulate point with its expectation and identities."""
    errors: list[str] = []
    if point.get("error") is not None:
        return [f"{where}: program reported error {point['error']!r}"]
    for key in ("a_known", "a_unknown", "delta_norm", "id_accuracy_normalized"):
        _close(errors, f"{where}.{key}", point[key], want[key])
    _exact(errors, f"{where}.misid_probability", point["misid_probability"],
           want["misid_probability"])
    misid = point["misid_probability"]
    if isinstance(misid, float):
        _close(errors, f"{where}.id_accuracy_normalized (from misid)",
               point["id_accuracy_normalized"],
               (1.0 - misid - 1.0 / k) / (1.0 - 1.0 / k), IDENTITY_TOL)
    if isinstance(point["a_known"], float) and isinstance(point["a_unknown"], float):
        _close(errors, f"{where}.delta_norm (from a_known, a_unknown)",
               point["delta_norm"], degradation(point["a_known"], point["a_unknown"]),
               IDENTITY_TOL)
    if not want["min_never_above_known"]:
        errors.append(f"{where}: a recording's unknown-ID score exceeds its known-ID score")
    return errors


SWEEP_COLUMNS = ("separation", "repeat", "seed", "id_accuracy_normalized", "delta_norm",
                 "a_known", "a_unknown", "misid_probability", "error")


def check_scatter_csv(text: str, points: list[dict]) -> list[str]:
    """The scatter CSV must carry exactly the report's points, value for value."""
    lines = text.splitlines()
    if not lines or lines[0] != "# format: idfree-asd/1":
        return ["scatter csv: missing format line"]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if tuple(rows[0]) != SWEEP_COLUMNS:
        return [f"scatter csv: header {rows[0]}"]
    if len(rows) - 1 != len(points):
        return [f"scatter csv: {len(rows) - 1} rows for {len(points)} points"]
    errors: list[str] = []
    for n, (row, point) in enumerate(zip(rows[1:], points)):
        for column, cell in zip(SWEEP_COLUMNS, row):
            value = point[column]
            if value is None:
                ok = cell == ""
            elif isinstance(value, str):
                ok = cell == value
            elif isinstance(value, int):
                ok = cell == str(value)
            else:
                ok = cell != "" and float(cell) == value
            if not ok:
                errors.append(f"scatter csv row {n}: {column}={cell!r}, report has {value!r}")
    return errors


def nearest_mean_distance(x: np.ndarray, refs: np.ndarray, k: int,
                          chunk: int = 2048) -> np.ndarray:
    """Mean Euclidean distance from each row of x to its k nearest refs.

    Candidates come from squared norms plus one matrix product per chunk;
    the k + 3 best candidates are then measured again exactly by direct
    differences, so cancellation in the product cannot change the result.
    """
    take = min(k + 3, refs.shape[0])
    ref_sq = np.einsum("ij,ij->i", refs, refs)
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], chunk):
        block = x[start:start + chunk]
        approx = ref_sq[None, :] - 2.0 * (block @ refs.T)
        if take < refs.shape[0]:
            cand = np.argpartition(approx, take - 1, axis=1)[:, :take]
        else:
            cand = np.broadcast_to(np.arange(take), (block.shape[0], take))
        diff = block[:, None, :] - refs[cand]
        exact = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        out[start:start + chunk] = np.sort(exact, axis=1)[:, :k].mean(axis=1)
    return out


def pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full Euclidean distance matrix by direct differences (small inputs)."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
