"""Seeded inputs, CLI command lines and output checks of each workload.

Every workload object is built from a working directory and a seed. It
writes its input files there (numpy and csv only), gives the CLI argument
lists of one round, and checks a round's output directory against
computations made in ``checks``. The program receives only the generated
files and flags.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

FORMAT_LINE = "# format: idfree-asd/1"


@dataclass
class Outcome:
    """Operations of one round that were attempted, failed, or failed a check."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _write_csv(path: Path, header, rows, comments=()) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(FORMAT_LINE + "\n")
        for line in comments:
            handle.write(line + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_labels(path: Path, ids, machine_names, true_idx, anomalous, splits) -> None:
    _write_csv(
        path,
        ["recording_id", "true_machine", "is_anomaly", "split"],
        zip(ids, machine_names[true_idx], np.where(anomalous, "1", "0"), splits),
    )


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class ScoreTable:
    """``evaluate --scores`` on a 200k x 10 table with dev and eval splits.

    Each machine's own column scores normals N(0, 1) and anomalies
    N(1.5, 1); every other column draws N(2, 1), so the row minimum often
    picks a wrong machine. Scores are rounded to 4 decimals, which makes
    equal row minima occur. The file is written lower-is-anomalous (values
    negated, ``# orientation: lower``), so the CLI negates it on load.
    """

    name = "score-table"
    ops_per_command, ops_per_round = (1,), 1
    n = 200_000
    k = 10

    def __init__(self, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        n, k = self.n, self.k
        self.machines = [f"machine{i:02d}" for i in range(k)]
        self.true_idx = rng.integers(0, k, n)
        self.anomalous = np.zeros(n, dtype=bool)
        self.anomalous[rng.permutation(n)[: n // 4]] = True
        self.splits = np.where(rng.permutation(n) < n // 2, "dev", "eval")
        raw = rng.normal(2.0, 1.0, (n, k))
        raw[np.arange(n), self.true_idx] = rng.normal(0.0, 1.0, n) + 1.5 * self.anomalous
        ticks = np.rint(raw * 1e4).astype(np.int64)
        # ticks / 1e4 is the double nearest each 4-decimal text, as float() reads it
        self.matrix = ticks / 1e4
        self.ids = np.array([f"rec{i:06d}" for i in range(n)])
        self.scores_path = work / "scores.csv"
        self.labels_path = work / "labels.csv"
        # csv writes repr(float): the shortest text that reads back as the
        # same double, here at most 4 decimals
        _write_csv(
            self.scores_path,
            ["recording_id", *self.machines],
            ([rec_id, *row] for rec_id, row in zip(self.ids.tolist(), (-self.matrix).tolist())),
            comments=["# orientation: lower"],
        )
        _write_labels(self.labels_path, self.ids, np.array(self.machines),
                      self.true_idx, self.anomalous, self.splits)
        self._expected = None

    def commands(self, out: Path) -> list[list[str]]:
        return [["evaluate", "--scores", str(self.scores_path), "--labels",
                 str(self.labels_path), "--out", str(out / "report.json")]]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "report.json"]

    def expected(self) -> dict:
        if self._expected is None:
            self._expected = {
                split: checks.expected_split(
                    self.matrix[mask], self.machines, self.true_idx[mask],
                    self.anomalous[mask])
                for split in ("dev", "eval")
                for mask in [self.splits == split]
            }
        return self._expected

    def check(self, out: Path) -> Outcome:
        errors = checks.check_evaluation(_read_json(out / "report.json"),
                                         self.expected(), self.machines)
        return Outcome(1, int(bool(errors)), errors)


def _simulated_matrix(config, scorer_k: int):
    """Regenerate a simulated point's data and score it with k-nearest refs."""
    from idfree_asd.simulate import generate

    references, merged = generate(config)
    machines = sorted(references)
    features = np.stack([rec.features for rec in merged.recordings])
    true_idx = np.array([machines.index(rec.true_machine) for rec in merged.recordings])
    anomalous = np.array([rec.is_anomaly for rec in merged.recordings])
    matrix = np.column_stack([
        checks.nearest_mean_distance(features, references[m].vectors, scorer_k)
        for m in machines
    ])
    return matrix, true_idx, anomalous


class KnnPoint:
    """``simulate`` of one point: k=4 machines, d=64, n_ref=2000, 7,500 tests each.

    Each machine's 30k x 2000 float64 distance matrix (480 MB) is over four
    times the 105 MB L3, so the distance kernel and top-k selection dominate.
    """

    name = "knn-point"
    ops_per_command, ops_per_round = (1,), 1
    flags = {"k": 4, "d": 64, "n_ref": 2000, "n_norm": 5625, "n_anom": 1875,
             "separation": 8.0}

    def __init__(self, work: Path, seed: int) -> None:
        self.seed = seed
        self._expected = None

    def commands(self, out: Path) -> list[list[str]]:
        argv = ["simulate", "--seed", str(self.seed), "--out", str(out / "point.json")]
        for key, value in self.flags.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        return [argv]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "point.json", out / "point.csv"]

    def expected(self) -> dict:
        if self._expected is None:
            from idfree_asd.simulate import SimConfig

            config = SimConfig(seed=self.seed, **self.flags)
            self._expected = checks.expected_point(*_simulated_matrix(config, 1))
        return self._expected

    def check(self, out: Path) -> Outcome:
        doc = _read_json(out / "point.json")
        errors = []
        for key, value in self.flags.items():
            if doc["config"][key] != value:
                errors.append(f"config.{key}={doc['config'][key]!r}, requested {value!r}")
        if doc["config"]["seed"] != self.seed:
            errors.append(f"config.seed={doc['config']['seed']!r}")
        errors += checks.check_point(doc["point"], self.expected(), self.flags["k"])
        errors += checks.check_scatter_csv((out / "point.csv").read_text(), [doc["point"]])
        return Outcome(1, int(bool(errors)), errors)


# the sweep's documented defaults and seed rule, restated here so that the
# check does not take them from the package it checks
DEFAULT_SEPARATIONS = (4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 8.0, 9.0, 11.0, 13.0)


def point_seed(base: int, separation_index: int, repeat: int) -> int:
    sequence = np.random.SeedSequence([base, separation_index, repeat])
    return int(sequence.generate_state(1, np.uint64)[0])


class Sweep:
    """``sweep`` over the 10 default separations, 20 repeats: 200 small points.

    Per-call costs dominate: row aggregation, matrix validation, recording
    construction and many small AUC/pAUC calls.
    """

    name = "sweep"
    repeats = 20
    # the CLI process plus each of its points
    ops_per_round = 1 + len(DEFAULT_SEPARATIONS) * repeats
    ops_per_command = (ops_per_round,)

    def __init__(self, work: Path, seed: int) -> None:
        self.seed = seed
        self._expected = None

    def commands(self, out: Path) -> list[list[str]]:
        return [["sweep", "--repeats", str(self.repeats), "--seed", str(self.seed),
                 "--out", str(out / "sweep.json")]]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "sweep.json", out / "sweep.csv"]

    def expected(self) -> list[dict]:
        if self._expected is None:
            from idfree_asd.simulate import SimConfig

            self._expected = []
            for s_index, separation in enumerate(DEFAULT_SEPARATIONS):
                for repeat in range(self.repeats):
                    seed = point_seed(self.seed, s_index, repeat)
                    config = SimConfig(separation=separation, seed=seed)
                    want = checks.expected_point(*_simulated_matrix(config, 1))
                    want.update(separation=separation, repeat=repeat, seed=seed)
                    self._expected.append(want)
        return self._expected

    def check(self, out: Path) -> Outcome:
        doc = _read_json(out / "sweep.json")
        points = doc["points"]
        expected = self.expected()
        outcome = Outcome(1 + len(expected))
        if len(points) != len(expected):
            outcome.errors.append(f"{len(points)} points, expected {len(expected)}")
            outcome.failed = outcome.attempted
            return outcome
        for n, (point, want) in enumerate(zip(points, expected)):
            where = f"points[{n}]"
            errors = [f"{where}.{key}={point[key]!r}, expected {want[key]!r}"
                      for key in ("separation", "repeat", "seed") if point[key] != want[key]]
            errors += checks.check_point(point, want, 5, where)
            if point["error"] is not None or errors:
                outcome.failed += 1
            outcome.errors += errors
        csv_errors = checks.check_scatter_csv((out / "sweep.csv").read_text(), points)
        outcome.errors += csv_errors
        outcome.failed += int(bool(csv_errors))
        return outcome


class ReferenceNorm:
    """``evaluate --manifest`` three times on one set of feature files.

    5 machines x 1,024 reference vectors, d=8, 640 test recordings (25 %
    anomalous, half dev and half eval). The three scorer set-ups are the
    only CLI path into the normalizers.
    """

    name = "reference-norm"
    ops_per_command, ops_per_round = (1, 1, 1), 3
    k, d, n_ref, n_test = 5, 8, 1024, 128
    setups = (
        ("mahalanobis-zscore", {"kind": "mahalanobis", "k": 1,
                                "normalizer": {"kind": "zscore_reference", "k_norm": 1}}),
        ("knn2-zscore", {"kind": "nearest_reference", "k": 2,
                         "normalizer": {"kind": "zscore_reference", "k_norm": 1}}),
        ("knn2-density", {"kind": "nearest_reference", "k": 2,
                          "normalizer": {"kind": "local_density", "k_norm": 4}}),
    )

    def __init__(self, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        k, d = self.k, self.d
        self.machines = [f"machine{i:02d}" for i in range(k)]
        centers = rng.normal(0.0, 2.0, (k, d))
        scales = rng.uniform(0.5, 1.5, (k, d))
        self.references = [centers[m] + scales[m] * rng.standard_normal((self.n_ref, d))
                           for m in range(k)]
        per = self.n_test
        self.true_idx = np.repeat(np.arange(k), per)
        self.anomalous = np.tile(np.arange(per) % 4 == 0, k)
        self.splits = np.tile(np.where(np.arange(per) < per // 2, "dev", "eval"), k)
        offsets = rng.standard_normal((k * per, d))
        offsets *= 3.0 / np.linalg.norm(offsets, axis=1, keepdims=True)
        self.features = (centers[self.true_idx]
                         + scales[self.true_idx] * rng.standard_normal((k * per, d))
                         + offsets * self.anomalous[:, None])
        self.ids = np.array([f"rec{i:04d}" for i in range(k * per)])
        header = ["recording_id"] + [f"f_{i}" for i in range(d)]
        (work / "refs").mkdir()
        for m, machine in enumerate(self.machines):
            ref_ids = [f"{machine}-ref{j:04d}" for j in range(self.n_ref)]
            _write_csv(work / "refs" / f"{machine}.csv", header,
                       ([rid, *map(repr, row)] for rid, row in
                        zip(ref_ids, self.references[m].tolist())))
        _write_csv(work / "features.csv", header,
                   ([rid, *map(repr, row)] for rid, row in
                    zip(self.ids, self.features.tolist())))
        self.labels_path = work / "labels.csv"
        _write_labels(self.labels_path, self.ids, np.array(self.machines),
                      self.true_idx, self.anomalous, self.splits)
        self.manifests = []
        for tag, scorer in self.setups:
            path = work / f"manifest-{tag}.json"
            path.write_text(json.dumps({
                "format": "idfree-asd/1",
                "scorer": scorer,
                "features": "features.csv",
                "machines": [{"name": m, "reference": f"refs/{m}.csv"}
                             for m in self.machines],
            }, indent=2), encoding="utf-8")
            self.manifests.append((tag, scorer, path))
        self._expected = {}

    def commands(self, out: Path) -> list[list[str]]:
        return [["evaluate", "--manifest", str(path), "--labels", str(self.labels_path),
                 "--out", str(out / f"report-{tag}.json")]
                for tag, _, path in self.manifests]

    def outputs(self, out: Path) -> list[Path]:
        return [out / f"report-{tag}.json" for tag, _, _ in self.manifests]

    def _column(self, scorer: dict, refs: np.ndarray) -> np.ndarray:
        norm = scorer["normalizer"]
        if scorer["kind"] == "mahalanobis":
            raw = _mahalanobis(self.features, refs)
            held_out = np.array([
                _mahalanobis(refs[i:i + 1], np.delete(refs, i, axis=0))[0]
                for i in range(refs.shape[0])
            ])
        else:
            raw = checks.pairwise(self.features, refs)
            raw = np.sort(raw, axis=1)[:, :scorer["k"]].mean(axis=1)
            among = checks.pairwise(refs, refs)
            np.fill_diagonal(among, np.inf)
            among.sort(axis=1)
            held_out = among[:, :scorer["k"]].mean(axis=1)
        if norm["kind"] == "zscore_reference":
            return (raw - held_out.mean()) / held_out.std()
        # local_density: raw over the mean spacing of the query's nearest refs
        among = checks.pairwise(refs, refs)
        np.fill_diagonal(among, np.inf)
        spacing = np.sort(among, axis=1)[:, :norm["k_norm"]].mean(axis=1)
        nearest = np.argsort(checks.pairwise(self.features, refs), axis=1)
        return raw / spacing[nearest[:, :norm["k_norm"]]].mean(axis=1)

    def expected(self, tag: str, scorer: dict) -> dict:
        if tag not in self._expected:
            matrix = np.column_stack([self._column(scorer, refs)
                                      for refs in self.references])
            self._expected[tag] = {
                split: checks.expected_split(
                    matrix[mask], self.machines, self.true_idx[mask], self.anomalous[mask])
                for split in ("dev", "eval")
                for mask in [self.splits == split]
            }
        return self._expected[tag]

    def check(self, out: Path) -> Outcome:
        outcome = Outcome(len(self.manifests))
        for tag, scorer, _ in self.manifests:
            errors = checks.check_evaluation(_read_json(out / f"report-{tag}.json"),
                                             self.expected(tag, scorer), self.machines)
            outcome.errors += [f"{tag}: {e}" for e in errors]
            outcome.failed += int(bool(errors))
        return outcome


def _mahalanobis(x: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Distance to the refs' mean under their diagonal-loaded covariance."""
    d = refs.shape[1]
    mean = refs.mean(axis=0)
    centered = refs - mean
    cov = centered.T @ centered / refs.shape[0]
    epsilon = max(1e-6 * np.trace(cov) / d, 1e-12)
    delta = x - mean
    solved = np.linalg.solve(cov + epsilon * np.eye(d), delta.T).T
    return np.sqrt(np.maximum((delta * solved).sum(axis=1), 0.0))


WORKLOADS = {w.name: w for w in (ScoreTable, KnnPoint, Sweep, ReferenceNorm)}
