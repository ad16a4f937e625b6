"""Machine-wise ASD data model and the two evaluation protocols.

Known-ID evaluation scores each test recording with its true machine's
scorer column; identity-free evaluation takes the minimum across all machine
columns and only uses the hidden true machine post hoc, to partition results
per machine and to grade the implicit identification. `full_report`,
`evaluate_known` and `evaluate_unknown` reduce each row of scores to the four
values the protocols read, then score each machine's slice in both modes.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .metrics import _auc_pauc, aggregate, delta_norm, normalize_id_accuracy
from .metrics import auc, pauc  # noqa: F401 -- bench/spans.py traces through these names

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
# a recording-id column, when one is read, is one 1-D array of this dtype, where an
# id of up to 15 UTF-8 bytes sits inline in 16. What is held is the ids' keys; ids
# are decoded from them (_ids) only to be shown or handed to a caller. No id order,
# repeat or join is decided on this dtype: its comparisons disagree with Python's
# on ids that hold NUL, and numpy 2.4.6's searchsorted misplaces ids of 16 or more
# bytes. Each is decided on the ids' keys
_ID_DTYPE = np.dtypes.StringDType()
# an id's key is its UTF-8 bytes, each raised by one (translated by _RAISED, and
# back by _LOWERED): UTF-8 never uses 0xf5-0xff, so no key byte is 0, and keys order
# and match as the ids do as Python strings, in a NUL-padded bytes column too
_RAISED = bytes(range(1, 256)) + b"\x00"
_LOWERED = b"\xff" + bytes(range(255))


class ProtocolError(ValueError):
    """Raised on malformed datasets, matrices, or mismatched inputs."""


def _id_column(ids) -> np.ndarray:
    """``ids`` as an id column; a column of the id dtype is kept as given."""
    if isinstance(ids, np.ndarray) and ids.dtype == _ID_DTYPE:
        return ids
    try:
        return np.array(ids if isinstance(ids, (list, np.ndarray)) else list(ids), _ID_DTYPE)
    except UnicodeEncodeError as exc:  # a lone surrogate has no UTF-8 form
        raise ProtocolError(f"recording id {exc.object!r}: {exc.reason}") from None


def _keys(ids: np.ndarray) -> np.ndarray:
    """The keys of the id column ``ids``, as objects."""
    return np.array([rec_id.encode().translate(_RAISED) for rec_id in ids.tolist()], object)


def _ids(keys: np.ndarray) -> np.ndarray:
    """The id column of ``keys``, a bytes column of ASCII ids' keys or objects."""
    if keys.dtype.kind == "O":
        return np.array([key.translate(_LOWERED).decode() for key in keys.tolist()], _ID_DTYPE)
    raw = keys.view(np.uint8).reshape(len(keys), keys.itemsize)
    lowered = np.maximum(raw, 1) - 1  # the padding stays 0, and an id's own NUL becomes 0
    ids = lowered.view(keys.dtype).ravel().astype(_ID_DTYPE)
    # the cast drops an id's trailing NULs with the padding: put them back
    if np.count_nonzero(lowered) != np.count_nonzero(raw):
        lost = np.count_nonzero(raw, axis=1) - np.strings.str_len(ids)
        for row in np.flatnonzero(lost).tolist():
            ids[row] += "\x00" * int(lost[row])
    return ids


def _key_order(keys: np.ndarray) -> np.ndarray:
    # the stable order that sorts the keys; a repeat raises
    order = np.argsort(keys, kind="stable")
    if not ((ranked := keys[order])[:-1] < ranked[1:]).all():
        raise ProtocolError("duplicate recording ids in merged test set")
    return order


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
    ids: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not self.machines:
            raise ProtocolError("score matrix needs at least one machine")
        if len(set(self.machines)) != len(self.machines):
            raise ProtocolError("duplicate machine names in score matrix")
        self.ids = _id_column(self.ids)
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

    Row i is recording `ids[i]`, of key `keys[i]` (_keys), its hidden
    `true_machine` code into `machines` (of the caller's integer type), its
    `is_anomaly` label and optionally `features[i]`.
    The rows are sorted by id on construction, so downstream runs are
    reproducible. Ids are ordered and matched on their keys, which order as
    the ids do as Python strings; ``keys`` takes them from a caller that
    already has them, and with them ``ids`` may be None. The set holds the
    keys: ids given are kept, ids not given are decoded from the keys (one
    numpy StringDType column) on the first read of `ids` and kept from then.
    Input already in strictly increasing id order is kept (arrays of the
    stored dtype are not copied), so a caller that later mutates it should
    pass a copy. Scoring code consumes ids and features, evaluation code the
    labels.
    """

    ids: np.ndarray | None
    machines: list[str]
    true_machine: np.ndarray
    is_anomaly: np.ndarray
    split: str = "dev"
    features: np.ndarray | None = field(default=None, repr=False)
    keys: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        ids, keys = self.ids, self.keys
        if ids is None and keys is None:
            raise ProtocolError("merged test set needs its ids or their keys")
        n = len(keys if ids is None else ids)
        if not n:
            raise ProtocolError("merged test set is empty")
        if not n == len(self.true_machine) == len(self.is_anomaly):
            raise ProtocolError("need one true machine and one label per id")
        if self.features is not None and np.shape(self.features)[:1] != (n,):
            raise ProtocolError(f"need {n} feature rows, got {np.shape(self.features)}")
        if self.split not in SPLITS:
            raise ProtocolError(f"unknown split {self.split!r}")
        if ids is not None:
            ids = _id_column(ids)
            keys = _keys(ids) if keys is None else keys
            if len(keys) != n:
                raise ProtocolError(f"need one key per id, got {len(keys)} for {n} ids")
        order = slice(None)  # strictly increasing keys are sorted and unique: kept as given
        if not (keys[:-1] < keys[1:]).all():
            order = _key_order(keys)
            keys = keys[order]
            ids = None if ids is None else ids[order]
        self.keys = keys
        if ids is None:
            del self.ids  # decoded on first read, by __getattr__
        else:
            self.ids = ids
        codes, labels = np.asarray(self.true_machine), np.asarray(self.is_anomaly)
        if codes.dtype.kind not in "iu":
            raise ProtocolError(f"true machine codes must be integers, got {codes.dtype}")
        if not np.can_cast(codes.dtype, np.intp):  # uint64, which bincount turns down
            codes = codes.astype(np.intp)
        self.true_machine = codes[order]
        if not (0 <= self.true_machine.min() and self.true_machine.max() < len(self.machines)):
            raise ProtocolError(f"true machine codes must lie in [0, {len(self.machines)})")
        if labels.dtype.kind not in "biu" or not ((labels == 0) | (labels == 1)).all():
            raise ProtocolError("anomaly labels must be booleans or 0/1")
        self.is_anomaly = labels.astype(bool, copy=False)[order]
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=float)[order]

    def __getattr__(self, name: str):
        # only a set built without ids lacks them: they are its keys decoded, kept once read
        if name != "ids" or "keys" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.ids = _ids(self.keys)
        return self.ids

    @property
    def recordings(self) -> list[Recording]:
        """Row view: one Recording per id, built on each access."""
        features = [None] * len(self.ids) if self.features is None else self.features
        return [
            Recording(rec_id, self.machines[code], anomalous, self.split, features=vector)
            for rec_id, code, anomalous, vector in zip(
                self.ids.tolist(), self.true_machine.tolist(), self.is_anomaly.tolist(), features
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


class _Columns(NamedTuple):
    """All the protocols read of each row of scores: its true machine's score,
    its minimum, the lowest column holding it and whether another column does."""

    true_score: np.ndarray
    lowest: np.ndarray
    picked: np.ndarray
    tied: np.ndarray


def _reduce(block: np.ndarray, true_column: np.ndarray) -> _Columns:
    """The _Columns of score rows ``block``, row i's true machine in column ``true_column[i]``."""
    # each row's minimum is its value at `picked` up to the sign of a zero, which
    # nothing downstream sees: metrics and the tie count compare scores, and -0.0 == 0.0
    lowest = block.min(axis=1)
    # counted one column at a time, in a type that holds k: no (n, k) array is made
    count = np.zeros(len(block), np.min_scalar_type(block.shape[1]))
    for cells in block.T:
        count += cells == lowest
    return _Columns(block[np.arange(len(block)), true_column], lowest, block.argmin(axis=1),
                    count > 1)


def _placed_columns(machines: Sequence[str], sets: Iterable[MergedTestSet], negate: bool) -> tuple:
    """io's join placement of _Columns for the rows of ``sets`` in turn: each
    set's columns, and a place(rows, block) that reduces score rows (negated if
    ``negate``) in columns ``machines`` into the sets' joined rows ``rows``. A
    machine without a column reads column 0; _report turns it down."""
    column = {machine: j for j, machine in enumerate(machines)}
    per_set = [np.array([column.get(name, 0) for name in merged.machines],
                        np.min_scalar_type(len(machines)))[merged.true_machine] for merged in sets]
    true_column = np.concatenate(per_set)
    n = len(true_column)
    columns = _Columns(np.empty(n), np.empty(n), np.empty(n, true_column.dtype), np.empty(n, bool))

    def place(rows: np.ndarray, block: np.ndarray) -> None:
        for column, values in zip(columns, _reduce(-block if negate else block, true_column[rows])):
            column[rows] = values

    cuts = np.cumsum([len(codes) for codes in per_set[:-1]])
    return [_Columns(*views) for views in zip(*(np.split(c, cuts) for c in columns))], place


def _matrix_report(matrix: ScoreMatrix, merged: MergedTestSet, config: EvalConfig) -> EvalReport:
    """_report over the _Columns of a whole matrix, whose rows must be the merged set's."""
    if (got := matrix.ids.tolist()) != (ids := merged.ids.tolist()):
        i = next((i for i, (a, b) in enumerate(zip(got, ids)) if a != b), None)
        where = (f"{len(got)} rows for {len(ids)} recordings" if i is None
                 else f"row {i} is {got[i]!r}, not {ids[i]!r}")
        raise ProtocolError(f"score matrix rows must be the merged test set's: {where}")
    (columns,), place = _placed_columns(matrix.machines, [merged], False)
    place(slice(None), matrix.values)
    return _report(columns, merged, matrix.machines, config)


def _report(columns: _Columns, merged: MergedTestSet, machines: Sequence[str],
            config: EvalConfig) -> EvalReport:
    """Both protocols summarised over the merged set's _Columns, score columns
    ``machines``: the one evaluation behind every entry point.

    Each machine's slice is scored in both modes at once; machines pool in
    order of first appearance, slices keep recording order. A machine's rows
    are found by comparing the true machine codes with its own, one byte a
    row per machine, so no integer array over the whole set is built, neither
    an index nor a count's cast of the codes. Warns once per single-class
    machine, to the caller of the entry point.
    """
    column = {machine: j for j, machine in enumerate(machines)}
    codes = merged.true_machine
    first = {code: int(np.argmax(codes == code)) for code in range(len(merged.machines))}
    # the machines present, in order of their first rows
    present = sorted((code for code, row in first.items() if codes[row] == code), key=first.get)
    missing = sorted(m for m in (merged.machines[c] for c in present) if m not in column)
    if missing:
        raise ProtocolError(f"score matrix is missing machine columns {missing}")
    per_machine, pools, excluded, n_correct = ({}, {}), ([], []), [], 0
    for code in present:
        machine = merged.machines[code]
        mine = np.flatnonzero(codes == code)
        n_anomalous = int(np.count_nonzero(merged.is_anomaly[mine]))
        n_normal = len(mine) - n_anomalous
        if not (n_normal and n_anomalous):
            warnings.warn(
                f"machine {machine!r} has single-class test labels; "
                f"its metrics are undefined and excluded from aggregation",
                stacklevel=4,
            )
            excluded.append(machine)
        n_correct += int(np.count_nonzero(columns.picked[mine] == column[machine]))
        for scores, results, pool in zip((columns.true_score[mine], columns.lowest[mine]),
                                         per_machine, pools):
            pair = (None, None)
            if n_normal and n_anomalous:
                pair = _auc_pauc(scores, merged.is_anomaly[mine], config.pauc_p)
                pool.extend(pair)
            results[machine] = MachineMetrics(machine, n_normal, n_anomalous, *pair)
    if not pools[0]:
        raise ProtocolError("no machine has both normal and anomalous recordings")
    known, unknown = (
        ModeResult(results, aggregate(pool, config.average), config.average, config.pauc_p,
                   list(excluded))
        for results, pool in zip(per_machine, pools)
    )
    identification = IdentificationStats(len(machines), len(columns.picked), n_correct,
                                         int(np.count_nonzero(columns.tied)))
    return EvalReport(list(machines), len(merged.keys), known, unknown, identification,
                      delta_norm(known.aggregate, unknown.aggregate), config)


def evaluate_known(
    matrix: ScoreMatrix,
    merged: MergedTestSet,
    pauc_p: float = 0.1,
    average: str = "harmonic",
) -> ModeResult:
    """Standard protocol: score each recording with its true machine's column."""
    return _matrix_report(matrix, merged, EvalConfig(pauc_p, average)).known


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
    report = _matrix_report(matrix, merged, EvalConfig(pauc_p, average))
    return report.unknown, report.identification


def full_report(
    matrix: ScoreMatrix,
    merged: MergedTestSet,
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run both protocols and combine them into one report."""
    return _matrix_report(matrix, merged, config)
