"""Write a feature-driven evaluate run far larger than the frozen manifest fixtures.

    python tests/manifest_probe.py OUT_DIR [N_ROWS]

OUT_DIR receives labels.csv, features.csv (N_ROWS rows, 100,000 by default,
of d = 64 features, listed in a shuffled order against the labels), one
reference file of 500 vectors for each of 10 machines under refs/, and two
manifests over them: knn1.json (nearest reference, k = 1) and
mahalanobis.json. It measures how `evaluate --manifest` scales with the test
rows, for example under bench/launch.py:

    python bench/launch.py 600 run.log idfree-asd evaluate \\
        --manifest OUT_DIR/knn1.json --labels OUT_DIR/labels.csv --out report.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from idfree_asd.io import FORMAT_LINE, FORMAT_VERSION
from idfree_asd.protocol import SPLITS

SCORERS = {"knn1": {"kind": "nearest_reference", "k": 1}, "mahalanobis": {"kind": "mahalanobis"}}


def _write_rows(path: Path, header: list[str], rows) -> None:
    # line by line, so the table's text is never built whole
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"{FORMAT_LINE}\n{','.join(header)}\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _vector_rows(ids, vectors: np.ndarray):
    for start in range(0, len(vectors), 1024):
        for rec_id, row in zip(ids[start:start + 1024], vectors[start:start + 1024].tolist()):
            yield [rec_id, *map(repr, row)]


def write_probe(directory, n: int = 100_000, machines: int = 10, n_ref: int = 500, d: int = 64,
                seed: int = 0) -> None:
    """The run described above, with `machines` machines of `n_ref` references
    each; a tenth of the test rows are anomalies, shifted off their machine."""
    directory = Path(directory)
    (directory / "refs").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (machines, d))
    names = [f"machine{j:02d}" for j in range(machines)]
    header = ["recording_id", *(f"f_{i}" for i in range(d))]
    for j, name in enumerate(names):
        refs = centers[j] + rng.normal(0.0, 0.5, (n_ref, d))
        _write_rows(directory / "refs" / f"{name}.csv", header,
                    _vector_rows([f"{name}-ref{i}" for i in range(n_ref)], refs))
    ids = [f"rec{i:07d}" for i in range(n)]
    machine = np.arange(n) % machines
    anomalous = rng.random(n) < 0.1
    _write_rows(directory / "labels.csv", ["recording_id", "true_machine", "is_anomaly", "split"],
                ([rec_id, names[m], str(int(a)), SPLITS[i // machines % 2]] for i, (rec_id, m, a)
                 in enumerate(zip(ids, machine.tolist(), anomalous.tolist()))))
    vectors = centers[machine] + rng.normal(0.0, 0.5, (n, d)) + 0.5 * anomalous[:, None]
    order = rng.permutation(n)
    _write_rows(directory / "features.csv", header,
                _vector_rows([ids[i] for i in order], vectors[order]))
    for name, scorer in SCORERS.items():
        (directory / f"{name}.json").write_text(json.dumps({
            "format": FORMAT_VERSION, "scorer": scorer, "features": "features.csv",
            "machines": [{"name": m, "reference": f"refs/{m}.csv"} for m in names]}, indent=2))


if __name__ == "__main__":
    write_probe(sys.argv[1], *map(int, sys.argv[2:3]))
