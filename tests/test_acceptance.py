"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import time
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from idfree_asd.cli import EXIT_OK, main
from idfree_asd.metrics import auc, delta_norm, normalize_id_accuracy, pauc
from idfree_asd.protocol import (
    Recording,
    ScoreMatrix,
    evaluate_known,
    evaluate_unknown,
    merge_test_sets,
)
from idfree_asd.simulate import DEFAULT_REPEATS, DEFAULT_SEPARATIONS, SimConfig, sweep
from oracles import brute_force_auc

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def report(name: str, detail: str, started: float) -> None:
    print(f"PASS {name}: {detail} ({time.perf_counter() - started:.2f}s)", flush=True)


def test_criterion_1_reference_degradation_table(capsys):
    started = time.perf_counter()
    code = main(["check-table", "--table", str(DATA / "table1.csv")])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["all_pass"] is True
    assert len(doc["rows"]) == 10
    for row in doc["rows"]:
        assert row["pass"] is True
        computed = delta_norm(row["a_known"], row["a_unknown"])
        expected = float(row["expected_percent"])
        assert abs(100.0 * computed - expected) <= 0.005 + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        report("criterion 1", "all 10 reference rows within 0.005 pp", started)


def test_criterion_2_strict_minimum_equivalence(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(20260815)
    for fixture in range(100):
        k = int(rng.integers(2, 6))
        machines = [f"m{i}" for i in range(k)]
        sets = {}
        for m in machines:
            n_norm = int(rng.integers(3, 9))
            n_anom = int(rng.integers(2, 6))
            sets[m] = [
                Recording(f"{m}-n{i}", m, False) for i in range(n_norm)
            ] + [
                Recording(f"{m}-a{i}", m, True) for i in range(n_anom)
            ]
        merged = merge_test_sets(sets)
        rows = {}
        for rec in merged.recordings:
            row = rng.uniform(0.2, 9.0, size=k)
            col = machines.index(rec.true_machine)
            row[col] = row.min() - rng.uniform(0.01, 1.0)
            rows[rec.id] = row
        matrix = ScoreMatrix(machines, list(rows), np.array(list(rows.values())))
        # arithmetic pooling stays defined even when a random slice hits AUC 0
        known = evaluate_known(matrix, merged, average="arithmetic")
        unknown, stats = evaluate_unknown(matrix, merged, average="arithmetic")
        assert stats.misid_probability == 0.0
        for m in machines:
            assert unknown.per_machine[m].auc == known.per_machine[m].auc
            assert unknown.per_machine[m].pauc == known.per_machine[m].pauc
        assert unknown.aggregate == known.aggregate
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    with capsys.disabled():
        report(
            "criterion 2",
            "unknown-ID metrics bitwise equal on 100 strict-minimum fixtures",
            started,
        )


def test_criterion_3_auc_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(424242)
    for instance in range(1000):
        n = int(rng.integers(2, 51))
        if rng.random() < 0.5:
            scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        else:
            scores = rng.normal(size=n)
        n_pos = int(rng.integers(1, n))
        labels = np.zeros(n, dtype=bool)
        labels[rng.permutation(n)[:n_pos]] = True
        fast = auc(scores, labels)
        assert fast == brute_force_auc(scores, labels)
        assert abs(pauc(scores, labels, 1.0) - fast) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    with capsys.disabled():
        report(
            "criterion 3",
            "AUC exact vs brute force and pAUC(1) within 1e-12 on 1000 instances",
            started,
        )


def test_criterion_4_chance_level_fixed_points(capsys):
    started = time.perf_counter()
    for n_pos, n_neg in [(1, 1), (3, 5), (10, 10), (7, 40)]:
        scores = [1.75] * (n_pos + n_neg)
        labels = [True] * n_pos + [False] * n_neg
        assert auc(scores, labels) == 0.5
        for p in (0.05, 0.1, 0.5, 1.0):
            assert pauc(scores, labels, p) == 0.5
    for k in range(2, 22):
        assert normalize_id_accuracy(1.0 / k, k) == 0.0
        assert normalize_id_accuracy(1.0, k) == 1.0
    with capsys.disabled():
        report(
            "criterion 4",
            "constant scores pin AUC/pAUC at 0.5; accuracy endpoints for K=2..21",
            started,
        )


def test_criterion_5_sweep_tradeoff_shape(capsys):
    started = time.perf_counter()
    config = SimConfig()
    assert (config.k, config.d) == (5, 8)
    assert len(DEFAULT_SEPARATIONS) == 10 and DEFAULT_REPEATS == 5
    result = sweep(config)  # pinned per-point seeds derived from base seed 0
    assert len(result.points) == 50
    assert all(p.error is None for p in result.points)
    ids = [p.id_accuracy_normalized for p in result.points]
    deltas = [p.delta_norm for p in result.points]
    rho = spearmanr(ids, deltas).statistic
    assert rho <= -0.8
    lossless = [p for p in result.points if p.misid_probability == 0.0]
    assert lossless
    for point in lossless:
        assert point.delta_norm == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    with capsys.disabled():
        report(
            "criterion 5",
            f"Spearman(id accuracy, degradation) = {rho:.3f} <= -0.8; "
            f"{len(lossless)} lossless points all at exactly 0",
            started,
        )


def test_criterion_6_sweep_determinism(tmp_path, capsys):
    started = time.perf_counter()
    runs = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.json"
        code = main(["sweep", "--out", str(out)])
        assert code == EXIT_OK
        runs.append(
            (out.read_bytes(), (tmp_path / f"{name}.csv").read_bytes())
        )
    assert runs[0][1] == runs[1][1]  # CSV byte-identical
    assert runs[0][0] == runs[1][0]  # JSON report too
    capsys.readouterr()
    with capsys.disabled():
        report("criterion 6", "consecutive sweeps byte-identical", started)


def test_criterion_7_golden_report_regression(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "report.json"
    code = main([
        "evaluate",
        "--scores", str(GOLDEN / "scores.csv"),
        "--labels", str(GOLDEN / "labels.csv"),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "report.json").read_bytes()
    # spot-check the hand-computed values inside the frozen report
    dev = json.loads(out.read_text())["splits"]["dev"]
    assert dev["known"]["aggregate"] == 1.0
    assert dev["unknown"]["per_machine"]["fan"]["auc"] == 13.5 / 16.0
    assert abs(dev["unknown"]["per_machine"]["fan"]["pauc"] - 33.0 / 38.0) <= 1e-12
    assert abs(dev["delta_norm"]["a_unknown"] - 297.0 / 322.0) <= 1e-12
    assert abs(dev["delta_norm"]["fraction"] - 25.0 / 161.0) <= 1e-12
    assert dev["delta_norm"]["percent"] == "15.53"
    assert dev["identification"]["n_correct"] == 14
    assert dev["identification"]["raw_accuracy"] == 0.875
    capsys.readouterr()
    with capsys.disabled():
        report("criterion 7", "frozen 2-machine report reproduced byte-for-byte", started)
