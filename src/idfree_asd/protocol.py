"""Machine-wise ASD data model and the two evaluation paths.

Known-ID evaluation scores each test recording with its true machine's
scorer column; identity-free evaluation takes the minimum across all machine
columns and only uses the hidden true machine post hoc, to partition results
per machine and to grade the implicit identification.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .metrics import aggregate, auc, delta_norm, normalize_id_accuracy, pauc

__all__ = [
    "ProtocolError",
    "SPLITS",
    "Recording",
    "ScoreMatrix",
    "MergedTestSet",
    "MachineMetrics",
    "ModeResult",
    "IdentificationStats",
    "EvalConfig",
    "EvalReport",
    "merge_test_sets",
    "evaluate_known",
    "evaluate_unknown",
    "full_report",
]

SPLITS = ("dev", "eval")


class ProtocolError(ValueError):
    """Raised on malformed datasets, matrices, or mismatched inputs."""


@dataclass(frozen=True, eq=False)
class Recording:
    """One test recording: identity, label, split, and optional features.

    Training/reference material never appears as a Recording; reference
    vectors live in scorers.ReferenceSet and are normal by construction.
    """

    id: str
    true_machine: str
    is_anomaly: bool
    split: str = "dev"
    features: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ProtocolError(f"recording {self.id!r}: unknown split {self.split!r}")


@dataclass(eq=False)
class ScoreMatrix:
    """Machine-specific anomaly scores of every recording, one dense table.

    `values[i, j]` is recording `ids[i]` scored by machine `machines[j]`, one
    finite score per cell; columns are in the argmin tie-break order, and the
    evaluators take the rows of one merged test set, in its order.
    """

    machines: list[str]
    ids: list[str]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not self.machines:
            raise ProtocolError("score matrix needs at least one machine")
        if len(set(self.machines)) != len(self.machines):
            raise ProtocolError("duplicate machine names in score matrix")
        self.ids = list(self.ids)
        self.values = np.asarray(self.values, dtype=float)
        expected = (len(self.ids), len(self.machines))
        if self.values.shape != expected:
            raise ProtocolError(
                f"score values have shape {self.values.shape}, expected {expected}"
            )
        finite = np.isfinite(self.values).all(axis=1)
        if not finite.all():
            bad = self.ids[int(np.argmin(finite))]
            raise ProtocolError(f"row {bad!r} contains non-finite scores")

    @property
    def k(self) -> int:
        return len(self.machines)


@dataclass(eq=False)
class MergedTestSet:
    """Test recordings of several machines pooled within one split, as columns.

    Row i is recording `ids[i]`, its hidden `true_machine` code into
    `machines`, its `is_anomaly` label and optionally `features[i]`. The rows
    are sorted by id on construction, so downstream runs are reproducible.
    Scoring code consumes ids and features, evaluation code the labels.
    """

    ids: list[str]
    machines: list[str]
    true_machine: np.ndarray
    is_anomaly: np.ndarray
    split: str = "dev"
    features: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not len(self.ids):
            raise ProtocolError("merged test set is empty")
        if not len(self.ids) == len(self.true_machine) == len(self.is_anomaly):
            raise ProtocolError("need one true machine and one label per id")
        if self.features is not None and np.shape(self.features)[:1] != (len(self.ids),):
            raise ProtocolError(f"need {len(self.ids)} feature rows, got {np.shape(self.features)}")
        if self.split not in SPLITS:
            raise ProtocolError(f"unknown split {self.split!r}")
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        self.ids = [self.ids[i] for i in order]
        if any(a == b for a, b in zip(self.ids, self.ids[1:])):
            raise ProtocolError("duplicate recording ids in merged test set")
        self.true_machine = np.asarray(self.true_machine, dtype=np.intp)[order]
        if not (0 <= self.true_machine.min() and self.true_machine.max() < len(self.machines)):
            raise ProtocolError(f"true machine codes must lie in [0, {len(self.machines)})")
        self.is_anomaly = np.asarray(self.is_anomaly, dtype=bool)[order]
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=float)[order]

    @property
    def recordings(self) -> list[Recording]:
        """Row view: one Recording per id, built on each access."""
        features = [None] * len(self.ids) if self.features is None else self.features
        return [
            Recording(rec_id, self.machines[code], anomalous, self.split, features=vector)
            for rec_id, code, anomalous, vector in zip(
                self.ids, self.true_machine.tolist(), self.is_anomaly.tolist(), features
            )
        ]


def merge_test_sets(per_machine_sets: Mapping[str, Sequence[Recording]]) -> MergedTestSet:
    """Pool per-machine test sets of Recordings into one identity-free set.

    Keeps every recording and its labels, and its features when every
    recording has them.
    """
    if not per_machine_sets:
        raise ProtocolError("no machines to merge")
    pooled: list[Recording] = []
    for machine, recordings in per_machine_sets.items():
        if not recordings:
            raise ProtocolError(f"machine {machine!r} has an empty test set")
        for rec in recordings:
            if rec.true_machine != machine:
                raise ProtocolError(
                    f"recording {rec.id!r} labeled {rec.true_machine!r} "
                    f"filed under machine {machine!r}"
                )
            pooled.append(rec)
    counts = Counter(r.id for r in pooled)
    duplicates = sorted(rec_id for rec_id, n in counts.items() if n > 1)
    if duplicates:
        raise ProtocolError(f"duplicate recording ids across machines: {duplicates}")
    splits = {r.split for r in pooled}
    if len(splits) > 1:
        raise ProtocolError(f"merged test set mixes splits {sorted(splits)}; merge per split")
    features = None
    missing = [r.id for r in pooled if r.features is None]
    if 0 < len(missing) < len(pooled):
        raise ProtocolError(f"recordings without features: {missing}")
    if not missing:
        shapes = {np.shape(r.features) for r in pooled}
        if len(shapes) > 1:
            raise ProtocolError(f"inconsistent feature shapes across recordings: {sorted(shapes)}")
        features = np.stack([r.features for r in pooled])
    machines = sorted(per_machine_sets)
    return MergedTestSet(
        [r.id for r in pooled],
        machines,
        [machines.index(r.true_machine) for r in pooled],
        [r.is_anomaly for r in pooled],
        pooled[0].split,
        features,
    )


@dataclass(frozen=True)
class MachineMetrics:
    """Detection metrics for one machine's slice of the test set.

    auc/pauc are None when the slice is single-class; such machines are
    excluded from aggregation.
    """

    machine: str
    n_normal: int
    n_anomalous: int
    auc: float | None
    pauc: float | None

    @property
    def defined(self) -> bool:
        return self.auc is not None


@dataclass
class ModeResult:
    """Per-machine metrics plus their pooled aggregate for one mode."""

    per_machine: dict[str, MachineMetrics]
    aggregate: float
    average: str
    pauc_p: float
    excluded_machines: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class IdentificationStats:
    """Implicit identification quality of an identity-free evaluation."""

    k: int
    n_recordings: int
    n_correct: int
    tie_count: int

    @property
    def raw_accuracy(self) -> float:
        return self.n_correct / self.n_recordings

    @property
    def misid_probability(self) -> float:
        return (self.n_recordings - self.n_correct) / self.n_recordings

    @property
    def normalized_accuracy(self) -> float | None:
        """Chance-normalized raw accuracy; None for a single machine."""
        return normalize_id_accuracy(self.raw_accuracy, self.k) if self.k >= 2 else None


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs echoed into every report."""

    pauc_p: float = 0.1
    average: str = "harmonic"


@dataclass
class EvalReport:
    """Complete known-vs-unknown evaluation of one merged test set."""

    machines: list[str]
    n_recordings: int
    known: ModeResult
    unknown: ModeResult
    identification: IdentificationStats
    delta_norm: float | None
    config: EvalConfig


def _mode_result(
    merged: MergedTestSet,
    counts: list[tuple[int, int, int]],
    scores: np.ndarray,
    pauc_p: float,
    average: str,
) -> ModeResult:
    # machines pool in order of first appearance; slices keep recording order
    per_machine: dict[str, MachineMetrics] = {}
    for code, n_normal, n_anomalous in counts:
        machine, mask = merged.machines[code], merged.true_machine == code
        pair = (None, None)
        if n_normal and n_anomalous:
            slice_scores, labels = scores[mask], merged.is_anomaly[mask]
            pair = (auc(slice_scores, labels), pauc(slice_scores, labels, pauc_p))
        per_machine[machine] = MachineMetrics(machine, n_normal, n_anomalous, *pair)
    defined = [m for m in per_machine.values() if m.defined]
    if not defined:
        raise ProtocolError("no machine has both normal and anomalous recordings")
    pooled = aggregate([v for m in defined for v in (m.auc, m.pauc)], average)
    excluded = [m.machine for m in per_machine.values() if not m.defined]
    return ModeResult(per_machine, pooled, average, pauc_p, excluded)


def _align(
    matrix: ScoreMatrix, merged: MergedTestSet
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Check that the matrix rows are the merged rows; return each recording's
    true-machine column and (code, n_normal, n_anomalous) per machine in order
    of first appearance, warning once per single-class machine to the caller.
    """
    column = {machine: j for j, machine in enumerate(matrix.machines)}
    codes, first = np.unique(merged.true_machine, return_index=True)
    missing = sorted(m for m in (merged.machines[c] for c in codes) if m not in column)
    if missing:
        raise ProtocolError(f"score matrix is missing machine columns {missing}")
    if matrix.ids != merged.ids:
        i = next((i for i, (a, b) in enumerate(zip(matrix.ids, merged.ids)) if a != b), None)
        where = (f"{len(matrix.ids)} rows for {len(merged.ids)} recordings" if i is None
                 else f"row {i} is {matrix.ids[i]!r}, not {merged.ids[i]!r}")
        raise ProtocolError(f"score matrix rows must be the merged test set's: {where}")
    true_cols = np.array([column.get(m, -1) for m in merged.machines], dtype=np.intp)
    total = np.bincount(merged.true_machine, minlength=len(merged.machines))
    anomalous = np.bincount(merged.true_machine[merged.is_anomaly], minlength=len(total))
    counts = []
    for code in codes[np.argsort(first)].tolist():
        n_normal, n_anomalous = int(total[code] - anomalous[code]), int(anomalous[code])
        if not (n_normal and n_anomalous):
            warnings.warn(
                f"machine {merged.machines[code]!r} has single-class test labels; "
                f"its metrics are undefined and excluded from aggregation",
                stacklevel=3,
            )
        counts.append((code, n_normal, n_anomalous))
    return true_cols[merged.true_machine], counts


def evaluate_known(
    matrix: ScoreMatrix,
    merged: MergedTestSet,
    pauc_p: float = 0.1,
    average: str = "harmonic",
) -> ModeResult:
    """Standard protocol: score each recording with its true machine's column."""
    true_cols, counts = _align(matrix, merged)
    known = matrix.values[np.arange(len(true_cols)), true_cols]
    return _mode_result(merged, counts, known, pauc_p, average)


def _unknown(
    matrix: ScoreMatrix, merged: MergedTestSet, aligned: tuple, pauc_p: float, average: str
) -> tuple[ModeResult, IdentificationStats]:
    true_cols, counts = aligned
    picked = matrix.values.argmin(axis=1)
    scores = np.take_along_axis(matrix.values, picked[:, None], axis=1)[:, 0]
    n_correct = int((picked == true_cols).sum())
    tie_count = int(((matrix.values == scores[:, None]).sum(axis=1) > 1).sum())
    stats = IdentificationStats(matrix.k, len(true_cols), n_correct, tie_count)
    return _mode_result(merged, counts, scores, pauc_p, average), stats


def evaluate_unknown(
    matrix: ScoreMatrix,
    merged: MergedTestSet,
    pauc_p: float = 0.1,
    average: str = "harmonic",
) -> tuple[ModeResult, IdentificationStats]:
    """Identity-free protocol: min-aggregate rows, partition post hoc.

    Per-machine partitioning uses the hidden true machine; the argmin machine
    (lowest column on ties) enters only the identification statistics
    returned alongside.
    """
    return _unknown(matrix, merged, _align(matrix, merged), pauc_p, average)


def full_report(
    matrix: ScoreMatrix,
    merged: MergedTestSet,
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run both protocols and combine them into one report."""
    aligned = true_cols, counts = _align(matrix, merged)
    scores = matrix.values[np.arange(len(true_cols)), true_cols]
    known = _mode_result(merged, counts, scores, config.pauc_p, config.average)
    unknown, identification = _unknown(matrix, merged, aligned, config.pauc_p, config.average)
    return EvalReport(
        machines=list(matrix.machines),
        n_recordings=len(merged.ids),
        known=known,
        unknown=unknown,
        identification=identification,
        delta_norm=delta_norm(known.aggregate, unknown.aggregate),
        config=config,
    )
