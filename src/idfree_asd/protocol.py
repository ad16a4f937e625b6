"""Machine-wise ASD data model and the two evaluation paths.

Known-ID evaluation scores each test recording with its true machine's
scorer column; identity-free evaluation takes the minimum across all machine
columns and only uses the hidden true machine post hoc, to partition results
per machine and to grade the implicit identification.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import InitVar, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .metrics import IdAccuracy, MetricPair, aggregate, auc, delta_norm, pauc

__all__ = [
    "ProtocolError",
    "SPLITS",
    "DOMAINS",
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
DOMAINS = ("source", "target")


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
    domain: str | None = None
    features: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ProtocolError(f"recording {self.id!r}: unknown split {self.split!r}")
        if self.domain is not None and self.domain not in DOMAINS:
            raise ProtocolError(f"recording {self.id!r}: unknown domain {self.domain!r}")


@dataclass(eq=False)
class ScoreMatrix:
    """Machine-specific anomaly scores of every recording, one dense table.

    `values[i, j]` is recording `ids[i]` scored by machine `machines[j]`.
    Column order is the fixed machine ordering used for argmin tie-breaking;
    every row holds exactly one finite score per machine.
    """

    machines: list[str]
    rows: InitVar[Mapping[str, Sequence[float]]]
    ids: list[str] = field(init=False)
    values: np.ndarray = field(init=False, repr=False)
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self, rows: Mapping[str, Sequence[float]]) -> None:
        if not self.machines:
            raise ProtocolError("score matrix needs at least one machine")
        if len(set(self.machines)) != len(self.machines):
            raise ProtocolError("duplicate machine names in score matrix")
        k = len(self.machines)
        self.ids = list(rows)
        try:
            values = np.array(list(rows.values()), dtype=float)
        except (TypeError, ValueError):
            values = None
        if values is None or values.shape != (len(self.ids), k):
            # row by row, to name the first row that does not fit
            values = np.empty((len(self.ids), k))
            for i, (rec_id, row) in enumerate(rows.items()):
                vec = np.asarray(row, dtype=float)
                if vec.shape != (k,):
                    raise ProtocolError(
                        f"row {rec_id!r} has {vec.size} entries, expected {k}"
                    )
                values[i] = vec
        self.values = values
        finite = np.isfinite(self.values).all(axis=1)
        if not finite.all():
            bad = self.ids[int(np.argmin(finite))]
            raise ProtocolError(f"row {bad!r} contains non-finite scores")
        self._index = {rec_id: i for i, rec_id in enumerate(self.ids)}

    @property
    def k(self) -> int:
        return len(self.machines)


@dataclass
class MergedTestSet:
    """Test recordings of several machines pooled within one split.

    The per-machine grouping survives only as the hidden true_machine labels;
    scoring code consumes ids and features, evaluation code the labels.
    """

    recordings: list[Recording]

    def __post_init__(self) -> None:
        if not self.recordings:
            raise ProtocolError("merged test set is empty")
        splits = {r.split for r in self.recordings}
        if len(splits) > 1:
            raise ProtocolError(
                f"merged test set mixes splits {sorted(splits)}; merge per split"
            )

    @property
    def split(self) -> str:
        return self.recordings[0].split

    def machines(self) -> list[str]:
        return sorted({r.true_machine for r in self.recordings})


def merge_test_sets(per_machine_sets: Mapping[str, Sequence[Recording]]) -> MergedTestSet:
    """Pool per-machine test sets into one identity-free set.

    Keeps every recording and its labels; ordering is deterministic (sorted
    by recording id) so downstream runs are reproducible.
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
    pooled.sort(key=lambda r: r.id)
    return MergedTestSet(pooled)


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

    def accuracy(self) -> IdAccuracy:
        return IdAccuracy.compute(self.raw_accuracy, self.k)


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


def _slice_metrics(
    machine: str, scores: np.ndarray, labels: np.ndarray, pauc_p: float
) -> MachineMetrics:
    n_anomalous = int(labels.sum())
    n_normal = len(labels) - n_anomalous
    if n_normal == 0 or n_anomalous == 0:
        warnings.warn(
            f"machine {machine!r} has single-class test labels; "
            f"its metrics are undefined and excluded from aggregation",
            stacklevel=3,
        )
        return MachineMetrics(machine, n_normal, n_anomalous, None, None)
    return MachineMetrics(
        machine,
        n_normal,
        n_anomalous,
        auc(scores, labels),
        pauc(scores, labels, pauc_p),
    )


def _mode_result(
    machines: list[str],
    scores: np.ndarray,
    true_cols: np.ndarray,
    labels: np.ndarray,
    pauc_p: float,
    average: str,
) -> ModeResult:
    # machines pool in order of first appearance; slices keep recording order
    codes, first = np.unique(true_cols, return_index=True)
    per_machine: dict[str, MachineMetrics] = {}
    for code in codes[np.argsort(first)]:
        mask = true_cols == code
        machine = machines[code]
        per_machine[machine] = _slice_metrics(machine, scores[mask], labels[mask], pauc_p)
    defined = [m for m in per_machine.values() if m.defined]
    if not defined:
        raise ProtocolError("no machine has both normal and anomalous recordings")
    pooled = aggregate([MetricPair(m.auc, m.pauc, pauc_p) for m in defined], average)
    excluded = [m.machine for m in per_machine.values() if not m.defined]
    return ModeResult(per_machine, pooled, average, pauc_p, excluded)


def _align(
    matrix: ScoreMatrix, merged: MergedTestSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrix row, true-machine column and label of each merged recording."""
    column = {machine: j for j, machine in enumerate(matrix.machines)}
    missing = [m for m in merged.machines() if m not in column]
    if missing:
        raise ProtocolError(f"score matrix is missing machine columns {missing}")
    recordings = merged.recordings
    try:
        rows = np.array([matrix._index[rec.id] for rec in recordings], dtype=np.intp)
    except KeyError as exc:
        raise ProtocolError(
            f"score matrix has no row for recording {exc.args[0]!r}"
        ) from None
    true_cols = np.array([column[rec.true_machine] for rec in recordings], dtype=np.intp)
    labels = np.array([rec.is_anomaly for rec in recordings], dtype=bool)
    return rows, true_cols, labels


def evaluate_known(
    matrix: ScoreMatrix,
    merged: MergedTestSet,
    pauc_p: float = 0.1,
    average: str = "harmonic",
) -> ModeResult:
    """Standard protocol: score each recording with its true machine's column."""
    rows, true_cols, labels = _align(matrix, merged)
    scores = matrix.values[rows, true_cols]
    return _mode_result(matrix.machines, scores, true_cols, labels, pauc_p, average)


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
    rows, true_cols, labels = _align(matrix, merged)
    table = matrix.values[rows]
    picked = table.argmin(axis=1)
    scores = np.take_along_axis(table, picked[:, None], axis=1)[:, 0]
    n_correct = int((picked == true_cols).sum())
    tie_count = int(((table == scores[:, None]).sum(axis=1) > 1).sum())
    stats = IdentificationStats(matrix.k, len(rows), n_correct, tie_count)
    return _mode_result(matrix.machines, scores, true_cols, labels, pauc_p, average), stats


def full_report(
    matrix: ScoreMatrix,
    merged: MergedTestSet,
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run both protocols and combine them into one report."""
    known = evaluate_known(matrix, merged, config.pauc_p, config.average)
    unknown, identification = evaluate_unknown(
        matrix, merged, config.pauc_p, config.average
    )
    return EvalReport(
        machines=list(matrix.machines),
        n_recordings=len(merged.recordings),
        known=known,
        unknown=unknown,
        identification=identification,
        delta_norm=delta_norm(known.aggregate, unknown.aggregate),
        config=config,
    )
