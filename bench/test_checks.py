"""The benchmark's checks accept the program's real reports and reject a
report with one value changed.

Run from the root of a checkout: ``python3 -m pytest bench``.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from idfree_asd.cli import main  # noqa: E402


class SmallScoreTable(workloads.ScoreTable):
    n = 4000


class SmallKnnPoint(workloads.KnnPoint):
    flags = {"k": 3, "d": 6, "n_ref": 50, "n_norm": 60, "n_anom": 20, "separation": 3.0}


class SmallSweep(workloads.Sweep):
    repeats = 1


class SmallReferenceNorm(workloads.ReferenceNorm):
    n_ref, n_test = 40, 16


def _run(workload_class, tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    workload = workload_class(inputs, 7)
    for argv in workload.commands(out):
        assert main(argv) == 0
    return workload, out


def _rewrite(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def score_table(tmp_path_factory):
    return _run(SmallScoreTable, tmp_path_factory.mktemp("score-table"))


def test_score_table_report_passes_and_has_ties(score_table):
    workload, out = score_table
    outcome = workload.check(out)
    assert outcome.errors == [] and (outcome.attempted, outcome.failed) == (1, 0)
    doc = json.loads((out / "report.json").read_text())
    assert sum(s["identification"]["tie_count"] for s in doc["splits"].values()) > 0


def _bump_auc(doc):
    doc["splits"]["eval"]["unknown"]["per_machine"]["machine03"]["auc"] += 1e-6


def _bump_ties(doc):
    doc["splits"]["dev"]["identification"]["tie_count"] += 1


def _bump_pauc(doc):
    doc["splits"]["dev"]["known"]["per_machine"]["machine00"]["pauc"] -= 1e-6


@pytest.mark.parametrize("edit", [_bump_auc, _bump_ties, _bump_pauc])
def test_score_table_check_rejects_one_changed_value(score_table, tmp_path, edit):
    workload, out = score_table
    changed = tmp_path / "report.json"
    changed.write_bytes((out / "report.json").read_bytes())
    _rewrite(changed, edit)
    outcome = workload.check(tmp_path)
    assert outcome.errors and outcome.failed == 1


def test_sweep_check_rejects_one_changed_delta_norm(tmp_path):
    workload, out = _run(SmallSweep, tmp_path)
    outcome = workload.check(out)
    assert outcome.errors == [] and outcome.attempted == 11 and outcome.failed == 0

    def edit(doc):
        doc["points"][4]["delta_norm"] += 1e-6

    _rewrite(out / "sweep.json", edit)
    outcome = workload.check(out)
    # the point itself and the scatter CSV, which no longer matches the report
    assert outcome.failed == 2
    assert any(e.startswith("points[4].delta_norm") for e in outcome.errors)


def test_knn_point_check_rejects_one_changed_misid(tmp_path):
    workload, out = _run(SmallKnnPoint, tmp_path)
    assert workload.check(out).errors == []
    _rewrite(out / "point.json", lambda doc: doc["point"].update(
        misid_probability=doc["point"]["misid_probability"] + 1.0 / 240))
    assert workload.check(out).failed == 1


def test_reference_norm_check_rejects_one_changed_aggregate(tmp_path):
    workload, out = _run(SmallReferenceNorm, tmp_path)
    outcome = workload.check(out)
    assert outcome.errors == [] and (outcome.attempted, outcome.failed) == (3, 0)
    path = out / "report-knn2-density.json"
    original = path.read_text()

    def edit(doc):
        doc["splits"]["dev"]["unknown"]["aggregate"] += 1e-6

    _rewrite(path, edit)
    assert workload.check(out).failed == 1
    path.write_text(original)
    assert workload.check(out).failed == 0


def test_pauc_matches_hand_computed_roc():
    scores = np.array([0.9, 0.8, 0.8, 0.3, 0.1])
    labels = np.array([True, False, True, False, False])
    # ROC vertices (0, 0), (0, .5), (1/3, 1), (2/3, 1), (1, 1); at p = 1/3 the
    # area is the triangle-topped strip 1/3 * (0.5 + 1) / 2
    p = 1.0 / 3.0
    area = p * 1.5 / 2.0
    want = 0.5 * (1.0 + (area - p * p / 2.0) / (p - p * p / 2.0))
    assert checks.mcclish_pauc(scores, labels, p) == pytest.approx(want, abs=1e-15)
    assert checks.rank_sum_auc(scores, labels) == pytest.approx(5.5 / 6.0, abs=1e-15)


def test_identities_flag_an_inconsistent_point():
    point = {"a_known": 0.8, "a_unknown": 0.7, "delta_norm": 1.0 / 3.0,
             "misid_probability": 0.25, "id_accuracy_normalized": 0.5 / 0.75, "error": None}
    want = dict(copy.deepcopy(point), min_never_above_known=True)
    assert checks.check_point(point, want, 4) == []
    point["delta_norm"] = 0.3
    want["delta_norm"] = 0.3
    assert any("from a_known" in e for e in checks.check_point(point, want, 4))
