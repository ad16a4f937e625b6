"""Writers of the versioned CSV inputs, for building test fixtures, and a
tracemalloc probe for the memory bounds.

The package only reads these tables; tests write them to feed the readers
and the CLI.
"""

from __future__ import annotations

import tracemalloc
from typing import Callable, Mapping, Sequence

import numpy as np

from idfree_asd.io import ORIENTATIONS, FormatError, _table_text, atomic_write_text
from idfree_asd.protocol import MergedTestSet, Recording


def write_scores(path, machines: Sequence[str], rows: Mapping[str, Sequence[float]],
                 orientation: str | None = None) -> None:
    comments = []
    if orientation is not None:
        if orientation not in ORIENTATIONS:
            raise FormatError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
        comments.append(f"# orientation: {orientation}")
    body = ([rec_id, *(repr(float(v)) for v in rows[rec_id])] for rec_id in rows)
    atomic_write_text(path, _table_text(["recording_id", *machines], body, comments))


def write_labels(path, recordings: Sequence[Recording]) -> None:
    header = ["recording_id", "true_machine", "is_anomaly", "split"]
    body = ([rec.id, rec.true_machine, "1" if rec.is_anomaly else "0", rec.split]
            for rec in recordings)
    atomic_write_text(path, _table_text(header, body))


def write_features(path, ids: Sequence[str], vectors) -> None:
    matrix = np.asarray(vectors, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise FormatError("feature matrix must be 2-D with one row per id")
    header = ["recording_id"] + [f"f_{i}" for i in range(matrix.shape[1])]
    body = ([rec_id, *map(repr, row)] for rec_id, row in zip(ids, matrix.tolist()))
    atomic_write_text(path, _table_text(header, body))


def label_rows(test_sets: Mapping[str, MergedTestSet]) -> list[tuple]:
    """(id, true machine, is_anomaly, split) per row of the per-split sets of read_labels."""
    return [(rec.id, rec.true_machine, rec.is_anomaly, rec.split)
            for merged in test_sets.values() for rec in merged.recordings]


def traced(call: Callable[[], object]) -> tuple:
    """(call(), the bytes tracemalloc counts held after it, its peak), traced from the call."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak
