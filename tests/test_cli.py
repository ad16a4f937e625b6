import csv
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import idfree_asd.cli as cli
import idfree_asd.io as io_module
import idfree_asd.simulate as simulate
from idfree_asd import protocol
from idfree_asd.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from idfree_asd.io import (
    FORMAT_LINE,
    FORMAT_VERSION,
    document_text,
    evaluation_document,
    read_labels,
    read_scores,
)
from idfree_asd.protocol import (
    SPLITS,
    EvalConfig,
    Recording,
    ScoreMatrix,
    evaluate_known,
    full_report,
    merge_test_sets,
)
from idfree_asd.scorers import ReferenceSet, ScorerSpec, build_score_matrix
from idfree_asd.simulate import SimConfig, generate
from manifest_probe import SCORERS, write_probe
from tables import label_rows, traced, write_features, write_labels, write_scores
from test_io_formats import (BLOCK_ROWS, JOIN_FAULTS, JOINS, _with_cell, small_chunks,
                             strict_only, strict_reads)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
# 3 machines of 8 references in d=3 and 36 recordings in two splits, the labels
# shuffled and the features listed in reverse, with one manifest for each of
# the reference-norm benchmark's scorer set-ups
MANIFEST = DATA / "manifest"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_json(err):
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    return payload


# ---------------------------------------------------------------------------
# evaluate: score-table path


def test_evaluate_golden_to_stdout(capsys):
    code, out, err = run(
        capsys, "evaluate",
        "--scores", str(GOLDEN / "scores.csv"),
        "--labels", str(GOLDEN / "labels.csv"),
    )
    assert code == EXIT_OK and err == ""
    doc = json.loads(out)
    assert doc["format"] == FORMAT_VERSION
    dev = doc["splits"]["dev"]
    assert dev["known"]["aggregate"] == 1.0
    assert dev["delta_norm"]["percent"] == "15.53"
    assert dev["identification"]["normalized_percent"] == "75.00"
    assert dev["identification"]["tie_count"] == 0


def test_evaluate_golden_to_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "evaluate",
        "--scores", str(GOLDEN / "scores.csv"),
        "--labels", str(GOLDEN / "labels.csv"),
        "--out", str(out_path),
    )
    assert code == EXIT_OK
    assert out == ""  # --out suppresses stdout
    assert json.loads(out_path.read_text()) == json.loads(
        (GOLDEN / "report.json").read_text()
    )


def test_evaluate_cli_matches_library_known_mode(capsys):
    code, out, _ = run(
        capsys, "evaluate",
        "--scores", str(GOLDEN / "scores.csv"),
        "--labels", str(GOLDEN / "labels.csv"),
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    machines, ids, values, _ = read_scores(GOLDEN / "scores.csv")
    per_machine = {}
    for rec_id, machine, anomalous, split in label_rows(read_labels(GOLDEN / "labels.csv")):
        per_machine.setdefault(machine, []).append(Recording(rec_id, machine, anomalous, split))
    merged = merge_test_sets(per_machine)
    scores = dict(zip(ids, values))
    matrix = ScoreMatrix(machines, merged.ids, [scores[rec_id] for rec_id in merged.ids])
    known = evaluate_known(matrix, merged)
    section = doc["splits"]["dev"]["known"]
    assert section["aggregate"] == known.aggregate
    for machine, metrics in known.per_machine.items():
        assert section["per_machine"][machine]["auc"] == metrics.auc
        assert section["per_machine"][machine]["pauc"] == metrics.pauc


def test_evaluate_single_machine_known_equals_unknown(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    labels = tmp_path / "labels.csv"
    recs = [Recording(f"n{i}", "fan", False) for i in range(4)]
    recs += [Recording(f"a{i}", "fan", True) for i in range(3)]
    write_labels(labels, recs)
    write_scores(
        scores, ["fan"],
        {r.id: [float(10 + i) if r.is_anomaly else float(i)]
         for i, r in enumerate(recs)},
    )
    code, out, _ = run(capsys, "evaluate", "--scores", str(scores),
                       "--labels", str(labels))
    assert code == EXIT_OK
    dev = json.loads(out)["splits"]["dev"]
    assert dev["known"] == dev["unknown"]
    assert dev["identification"]["k"] == 1
    assert dev["identification"]["normalized"] is None
    assert dev["delta_norm"]["fraction"] == 0.0


def test_evaluate_splits_are_separated(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    labels = tmp_path / "labels.csv"
    recs = [
        Recording("d-n", "fan", False, "dev"),
        Recording("d-a", "fan", True, "dev"),
        Recording("e-n", "fan", False, "eval"),
        Recording("e-a", "fan", True, "eval"),
    ]
    write_labels(labels, recs)
    write_scores(scores, ["fan"],
                 {"d-n": [0.0], "d-a": [1.0], "e-n": [0.5], "e-a": [0.5]})
    code, out, _ = run(capsys, "evaluate", "--scores", str(scores),
                       "--labels", str(labels))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert sorted(doc["splits"]) == ["dev", "eval"]
    # the dev scorer is perfect, the eval scorer is uninformative
    assert doc["splits"]["dev"]["known"]["per_machine"]["fan"]["auc"] == 1.0
    assert doc["splits"]["eval"]["known"]["per_machine"]["fan"]["auc"] == 0.5
    # labels of the eval split alone: its set is the whole join, from row 0
    write_labels(labels, recs[2:])
    write_scores(scores, ["fan"], {"e-n": [0.5], "e-a": [0.5]})
    code, out, _ = run(capsys, "evaluate", "--scores", str(scores), "--labels", str(labels))
    assert code == EXIT_OK
    assert json.loads(out)["splits"] == {"eval": doc["splits"]["eval"]}


def write_nul_fixture(tmp_path):
    """Labels and scores where "x\x00" and "x" are two recordings on two
    machines. The text is written as is: Python 3.10's csv.writer refuses a
    NUL it may not quote."""
    scores = tmp_path / "scores.csv"
    labels = tmp_path / "labels.csv"
    labels.write_text(f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\n"
                      "x\x00,fan,0,dev\nx,pump,0,dev\na,fan,1,dev\nb,pump,1,dev\n")
    scores.write_text(f"{FORMAT_LINE}\nrecording_id,fan,pump\n"
                      "x\x00,0.1,0.9\nx,0.8,0.2\na,0.7,0.6\nb,0.5,0.4\n")
    return scores, labels


def test_evaluate_ids_differing_by_trailing_nul_stay_apart(tmp_path, capsys):
    # "x\x00" and "x" are two recordings on two machines; a numpy "<U" array
    # would compare them equal and merge them
    scores, labels = write_nul_fixture(tmp_path)
    code, out, _ = run(capsys, "evaluate", "--scores", str(scores), "--labels", str(labels))
    assert code == EXIT_OK
    dev = json.loads(out)["splits"]["dev"]
    assert dev["n_recordings"] == 4
    for machine in ("fan", "pump"):
        counts = dev["known"]["per_machine"][machine]
        assert (counts["n_normal"], counts["n_anomalous"], counts["auc"]) == (1, 1, 1.0)
    # only "a" is claimed by the other machine
    assert dev["identification"]["n_correct"] == 3


def test_ids_holding_nul_are_read_without_csv(tmp_path, capsys, monkeypatch):
    # Python 3.10's csv.reader fails on a line that holds NUL; here it does
    # too, and the data lines of the fixture never reach it
    reader = csv.reader

    def reader_without_nul(lines, *args, **kwargs):
        def checked():
            for line in lines:
                if "\x00" in line:
                    raise csv.Error("line contains NUL")
                yield line
        return reader(checked(), *args, **kwargs)

    monkeypatch.setattr(csv, "reader", reader_without_nul)
    scores, labels = write_nul_fixture(tmp_path)
    code, out, err = run(capsys, "evaluate", "--scores", str(scores), "--labels", str(labels))
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["splits"]["dev"]["n_recordings"] == 4


@pytest.mark.parametrize("source", ["scores", "manifest"])
def test_evaluate_builds_no_recordings(tmp_path, capsys, monkeypatch, source):
    manifest, labels, _, _ = build_manifest_fixture(tmp_path)
    scores = tmp_path / "scores.csv"
    ids = read_labels(labels)["dev"].ids
    write_scores(scores, ["machine01", "machine02"],
                 {rec_id: [float(i), 1.0] for i, rec_id in enumerate(ids)})
    built = []
    post_init = Recording.__post_init__
    monkeypatch.setattr(Recording, "__post_init__", lambda rec: built.append(rec) or post_init(rec))
    path = scores if source == "scores" else manifest
    code, _, _ = run(capsys, "evaluate", f"--{source}", str(path), "--labels", str(labels))
    assert code == EXIT_OK
    assert built == []


@pytest.mark.parametrize("libc", ["glibc", "no malloc_trim"])
def test_evaluate_hands_freed_memory_back_before_the_digests(capsys, monkeypatch, libc):
    # glibc keeps freed heap resident until asked; the first digest maps OpenSSL,
    # so the released labels and columns are trimmed first, where that can be done
    calls = []
    libc_calls = {"malloc_trim": lambda pad: calls.append(("trim", pad))} if libc == "glibc" else {}
    monkeypatch.setattr(cli, "ctypes", SimpleNamespace(pythonapi=SimpleNamespace(**libc_calls)))
    digest = io_module.file_digest
    monkeypatch.setattr(io_module, "file_digest",
                        lambda path, role: calls.append(role) or digest(path, role))
    code, out, _ = run(capsys, "evaluate", "--scores", str(GOLDEN / "scores.csv"),
                       "--labels", str(GOLDEN / "labels.csv"))
    assert code == EXIT_OK and out == (GOLDEN / "report.json").read_text()
    assert calls == [("trim", 0)] * (libc == "glibc") + ["scores", "labels"]


def test_evaluate_harmonic_pooling_with_inverted_scorer_is_zero(tmp_path, capsys):
    # pump's scorer ranks every anomaly below every normal: AUC and pAUC are
    # exactly 0, so the harmonic pool is 0 instead of an aborted run
    scores = tmp_path / "scores.csv"
    labels = tmp_path / "labels.csv"
    recs = [Recording(f"{m}-{i}", m, i % 2 == 1) for m in ("fan", "pump") for i in range(6)]
    write_labels(labels, recs)
    rows = {}
    for i, rec in enumerate(recs):
        own = float(i) + (100.0 if rec.is_anomaly else 0.0)
        if rec.true_machine == "pump":
            own = -own
        rows[rec.id] = [own, 1000.0] if rec.true_machine == "fan" else [1000.0, own]
    write_scores(scores, ["fan", "pump"], rows)
    code, out, err = run(capsys, "evaluate", "--scores", str(scores),
                         "--labels", str(labels), "--avg", "harmonic")
    assert code == EXIT_OK and err == ""
    known = json.loads(out)["splits"]["dev"]["known"]
    assert known["per_machine"]["pump"]["auc"] == 0.0
    assert known["per_machine"]["fan"]["auc"] == 1.0
    assert known["aggregate"] == 0.0


def test_evaluate_missing_machine_column(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording("r1", "pump", False),
                          Recording("r2", "pump", True)])
    write_scores(scores, ["fan"], {"r1": [0.1], "r2": [0.2]})
    code, _, err = run(capsys, "evaluate", "--scores", str(scores),
                       "--labels", str(labels))
    assert code == EXIT_DATA
    assert "pump" in stderr_json(err)["message"]


def test_evaluate_cross_reference_mismatch_lists_ids(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording("r1", "fan", False),
                          Recording("r2", "fan", True)])
    write_scores(scores, ["fan"], {"r1": [0.1], "extra": [0.9]})
    code, _, err = run(capsys, "evaluate", "--scores", str(scores),
                       "--labels", str(labels))
    assert code == EXIT_DATA
    message = stderr_json(err)["message"]
    assert "extra" in message and "r2" in message


def test_evaluate_cross_reference_mismatch_is_bounded(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording(f"label{i:04d}", "fan", False) for i in range(1_000)])
    write_scores(scores, ["fan"], {f"score{i:04d}": [0.5] for i in range(1_000)})
    code, _, err = run(capsys, "evaluate", "--scores", str(scores),
                       "--labels", str(labels))
    assert code == EXIT_DATA
    message = stderr_json(err)["message"]
    assert len(err) < 2_000
    assert "1000 score rows without labels ['score0000'," in message
    assert "1000 labeled recordings without scores ['label0000'," in message
    assert "'score0009'] and 990 more" in message and "score0010" not in message
    assert "'label0009'] and 990 more" in message and "label0010" not in message


def evaluate_table(tmp_path, capsys, kind, labeled, data_rows):
    """Run evaluate on `labeled` fan recordings and a --scores or --manifest
    table of one value column whose data rows are `data_rows`; return the
    exit code, the error message and the table's name."""
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording(rec_id, "fan", i % 2 == 1) for i, rec_id in enumerate(labeled)])
    if kind == "scores":
        table, column = tmp_path / "scores.csv", "fan"
        source = ["--scores", str(table)]
    else:
        table, column = tmp_path / "features.csv", "f_0"
        write_features(tmp_path / "ref_fan.csv", ["r0", "r1"], [[0.0], [1.0]])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "format": FORMAT_VERSION, "scorer": {"kind": "nearest_reference"},
            "features": table.name, "machines": [{"name": "fan", "reference": "ref_fan.csv"}],
        }))
        source = ["--manifest", str(manifest)]
    table.write_text("\n".join([FORMAT_LINE, f"recording_id,{column}", *data_rows]) + "\n")
    code, _, err = run(capsys, "evaluate", *source, "--labels", str(labels))
    return code, stderr_json(err)["message"], table.name


# data row i of a table is line i + 3: the format line and the header come first
@pytest.mark.parametrize("kind", ["scores", "features"])
@pytest.mark.parametrize("rows, line, rec_id", [
    (["a,0.1", "b,0.9", "a,0.2"], 5, "a"),            # a labeled id
    (["a,0.1", "x,0.5", "b,0.9", "x,0.6"], 6, "x"),   # an id without a label
])
def test_evaluate_repeated_table_id_is_a_duplicate_not_a_mismatch(
        tmp_path, capsys, kind, rows, line, rec_id):
    code, message, name = evaluate_table(tmp_path, capsys, kind, ["a", "b"], rows)
    assert code == EXIT_DATA
    assert message == f"{name}:{line}: duplicate recording id {rec_id!r}"


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_evaluate_mismatch_is_reported_from_the_one_read_of_the_table(
        tmp_path, capsys, monkeypatch, kind):
    # one more label row than the table has: the fast pass that read the whole
    # table reports it, so no file goes to csv and each feature row is scored
    # once per machine (36 rows, 3 machines)
    source = (["--scores", str(GOLDEN / "scores.csv")] if kind == "scores"
              else ["--manifest", str(MANIFEST / "knn2-zscore.json")])
    labels = tmp_path / "labels.csv"
    labels.write_text((GOLDEN if kind == "scores" else MANIFEST).joinpath("labels.csv").read_text()
                      + "extra-01,fan,0,eval\n")
    scored, scorer = [], cli._scorer
    monkeypatch.setattr(cli, "_scorer", lambda specs, place: scorer(
        specs, lambda rows, scores: scored.append(scores.size) or place(rows, scores)))
    strict = strict_reads(monkeypatch)
    code, _, err = run(capsys, "evaluate", *source, "--labels", str(labels))
    sides = [f"0 {kind[:-1]} rows without labels []",
             f"1 labeled recordings without {kind} ['extra-01']"]
    sides = sides if kind == "scores" else sides[::-1]
    assert (code, strict) == (EXIT_DATA, [])
    assert stderr_json(err)["message"] == (f"{kind}/labels cross-reference mismatch: "
                                           f"{sides[0]}, {sides[1]}")
    assert sum(scored) == (0 if kind == "scores" else 36 * 3)


@pytest.mark.parametrize("kind", ["scores", "features"])
@pytest.mark.parametrize("rows, line", [
    (["a,0.1", "b,oops", "x,0.5"], 4),   # the unknown id comes after the bad cell
    (["a,0.1", "x,0.5", "b,oops"], 5),   # and before it
    (["a,0.1", "b,0.9", "x,oops"], 5),   # the bad cell is in the unknown id's row
])
def test_evaluate_bad_cell_wins_over_an_unknown_id(tmp_path, capsys, kind, rows, line):
    code, message, name = evaluate_table(tmp_path, capsys, kind, ["a", "b"], rows)
    column = "fan" if kind == "scores" else "f_0"
    assert code == EXIT_DATA
    assert message == f"{name}:{line}: {column} value 'oops' is not a number"


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_evaluate_mismatch_lists_sorted_ids_and_caps_them(tmp_path, capsys, kind):
    # both sides arrive in reverse order; 12 ids each, of which the first 10 are named
    labeled = [f"l{i:02d}" for i in reversed(range(12))]
    rows = [f"u{i:02d},0.5" for i in reversed(range(12))]
    code, message, _ = evaluate_table(tmp_path, capsys, kind, labeled, rows)
    what = kind[:-1]
    extra = f"12 {what} rows without labels {[f'u{i:02d}' for i in range(10)]} and 2 more"
    missing = f"12 labeled recordings without {kind} {[f'l{i:02d}' for i in range(10)]} and 2 more"
    sides = (extra, missing) if kind == "scores" else (missing, extra)
    assert code == EXIT_DATA
    assert message == f"{kind}/labels cross-reference mismatch: {sides[0]}, {sides[1]}"


def test_evaluate_gate_clean_tables_never_call_the_strict_reader(tmp_path, capsys, monkeypatch):
    # the golden scores list their rows in the label file's order; reversed they do not
    strict = strict_reads(monkeypatch)
    code, out, _ = run(capsys, "evaluate", "--scores", str(GOLDEN / "scores.csv"),
                       "--labels", str(GOLDEN / "labels.csv"))
    assert code == EXIT_OK and out == (GOLDEN / "report.json").read_text()
    head, *rows = (GOLDEN / "scores.csv").read_text().splitlines(keepends=True)[2:]
    (tmp_path / "scores.csv").write_text("".join([FORMAT_LINE + "\n", head, *rows[::-1]]))
    code, reversed_out, _ = run(capsys, "evaluate", "--scores", str(tmp_path / "scores.csv"),
                                "--labels", str(GOLDEN / "labels.csv"))
    assert code == EXIT_OK and strict == []
    assert json.loads(reversed_out)["splits"] == json.loads(out)["splits"]


def no_child_left():
    # a child of this process that has exited but is not reaped also counts
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def golden_variant(tmp_path, variant):
    """The golden score table as is, with CRLF line ends, with its rows reversed,
    with its last id quoted (a block that only csv reads), negated and marked
    lower, with a column for a machine that has no labels, or without the
    column of a labeled machine."""
    text = (GOLDEN / "scores.csv").read_text()
    head, rows = text.splitlines(keepends=True)[:3], text.splitlines(keepends=True)[3:]
    cells = [row.rstrip("\n").split(",") for row in [head[2]] + rows]
    if variant == "lower":
        text = "".join([head[0], "# orientation: lower\n", head[2]] + [
            ",".join([rec_id] + [repr(-float(cell)) for cell in scores]) + "\n"
            for rec_id, *scores in cells[1:]])
    elif variant in ("unlabeled column", "missing column"):
        # the extra column ties fan-n2's minimum and takes every minimum above 2
        extra = ["pump"] + ["2.0"] * len(rows)
        text = "".join(head[:2]) + "".join(
            ",".join(row + [more] if variant == "unlabeled column" else row[:-1]) + "\n"
            for row, more in zip(cells, extra))
    elif variant == "crlf":
        text = text.replace("\n", "\r\n")
    elif variant == "reversed":
        text = "".join(head + rows[::-1])
    elif variant == "quoted id":
        rec_id, _, cells = rows[-1].partition(",")
        text = "".join(head + rows[:-1] + [f'"{rec_id}",{cells}'])
    path = tmp_path / f"{variant}.csv"
    path.write_bytes(text.encode())
    return path


def library_splits(scores, labels=GOLDEN / "labels.csv"):
    """evaluate's splits for a table, through read_scores' whole matrix and full_report."""
    test_sets = read_labels(labels)
    machines, ids, values, orientation = read_scores(scores)
    row = dict(zip(ids.tolist(), values * (-1.0 if orientation == "lower" else 1.0)))
    reports = {}
    for split, merged in test_sets.items():
        view = [row[rec_id] for rec_id in merged.ids.tolist()]
        reports[split] = full_report(ScoreMatrix(machines, merged.ids, view), merged)
    return evaluation_document(reports, [], EvalConfig(), True)["splits"]


@pytest.mark.parametrize("variant", ["golden", "crlf", "reversed", "quoted id", "lower",
                                     "unlabeled column", "missing column"])
def test_evaluate_scores_variants_report_as_the_library(tmp_path, capsys, monkeypatch,
                                                        variant):
    # a table whose block the gate turns down goes to csv, which reads it once
    scores = golden_variant(tmp_path, variant)
    strict = strict_reads(monkeypatch)
    code, out, err = run(capsys, "evaluate", "--scores", str(scores),
                         "--labels", str(GOLDEN / "labels.csv"))
    assert strict == ([scores.name] if variant == "quoted id" else [])
    if variant == "missing column":  # every id matches, then the summary turns it down
        assert (code, out) == (EXIT_DATA, "")
        assert stderr_json(err)["message"] == "score matrix is missing machine columns ['valve']"
        return
    assert (code, err) == (EXIT_OK, "")
    golden = json.loads((GOLDEN / "report.json").read_text())["splits"]
    splits = json.loads(out)["splits"]
    assert splits == library_splits(scores)
    assert (splits == golden) is (variant != "unlabeled column")
    # every minimum runs over the column without labels as well
    assert (splits["dev"]["identification"]["n_correct"] < golden["dev"]["identification"][
        "n_correct"]) is (variant == "unlabeled column")


def test_evaluate_scores_holds_under_64_bytes_a_row_beyond_the_labels(tmp_path, capsys,
                                                                      monkeypatch):
    # with 50 machines the (n, k) matrix alone takes 400 bytes a row; the
    # protocols' four columns, each row's true column and the join's mask of
    # placed rows take 20, and one block's transients (the gate's separator
    # positions, then the block's lines, keys and cells) add about 1.8 MB at
    # the peak: 50 bytes a row in all here (54 when the gate also bounded
    # every field of a score line), 450 with the matrix
    n, k = 60_000, 50
    labels, scores = tmp_path / "labels.csv", tmp_path / "scores.csv"
    # each machine's rows run 4 a split, the first of them anomalous
    write_labels(labels, [Recording(f"r{i:06d}", f"m{i % k}", i // k % 4 == 0,
                                    SPLITS[i // k // 4 % 2]) for i in range(n)])
    # rows of one-digit scores, "r000000,3,...,7\n", built as one byte array
    lines = np.full((n, 7 + 2 * k + 1), ord(","), np.uint8)
    lines[:, :7] = np.array([f"r{i:06d}" for i in range(n)], "S7").view(np.uint8).reshape(n, 7)
    lines[:, 8:-1:2] = np.random.default_rng(8).integers(ord("0"), ord("9") + 1, size=(n, k))
    lines[:, -1] = ord("\n")
    header = f"{FORMAT_LINE}\nrecording_id,{','.join(f'm{j}' for j in range(k))}\n"
    scores.write_bytes(header.encode() + lines.tobytes())
    read_labels, held = io_module.read_labels, []

    def traced_read_labels(path):
        test_sets = read_labels(path)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return test_sets

    monkeypatch.setattr(io_module, "read_labels", traced_read_labels)
    (code, _, err), _, peak = traced(lambda: run(capsys, "evaluate", "--scores", str(scores),
                                                 "--labels", str(labels),
                                                 "--out", str(tmp_path / "report.json")))
    assert (code, err) == (EXIT_OK, "")
    assert peak - held[0] < 64 * n


def test_evaluate_scores_never_forks(capsys, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    code, out, err = run(capsys, "evaluate", "--scores", str(GOLDEN / "scores.csv"),
                         "--labels", str(GOLDEN / "labels.csv"))
    assert (code, out, err) == (EXIT_OK, (GOLDEN / "report.json").read_text(), "")


@pytest.mark.parametrize("fault", ["labels", "score cell", "mismatch", "both"])
def test_evaluate_leaves_no_worker_behind(tmp_path, capsys, fault):
    labels, scores = tmp_path / "labels.csv", tmp_path / "scores.csv"
    label_text = (GOLDEN / "labels.csv").read_text()
    score_text = (GOLDEN / "scores.csv").read_text()
    if fault in ("labels", "both"):
        label_text = label_text.replace(",dev\n", ",test\n", 1)
    if fault in ("score cell", "both"):
        score_text = score_text.replace(",10.0\n", ",oops\n", 1)
    if fault == "mismatch":
        score_text = score_text.replace("fan-n1,", "fan-x1,", 1)
    labels.write_text(label_text)
    scores.write_text(score_text)
    code, _, err = run(capsys, "evaluate", "--scores", str(scores), "--labels", str(labels))
    message = stderr_json(err)["message"]
    assert code == EXIT_DATA
    assert message.startswith({"labels": "labels.csv:3: ", "both": "labels.csv:3: ",
                               "score cell": "scores.csv:4: ",
                               "mismatch": "scores/labels cross-reference mismatch"}[fault])
    no_child_left()


@pytest.mark.parametrize("source", ["scores", "manifest"])
@pytest.mark.parametrize("case", JOINS)
def test_evaluate_joins_label_order_as_the_id_dict_does(tmp_path, capsys, monkeypatch, source,
                                                        case):
    # 32 rows r000, ...: fan and pump alternate, each with normals and anomalies
    # in both splits; every table line holds 19 characters
    label_rows_of, table_rows_of = JOINS[case]
    n, rng = 4 * BLOCK_ROWS, np.random.default_rng(20)
    rows = [f"r{i:03d},{('fan', 'pump')[i % 2]},{i // 4 % 2},{('dev', 'eval')[i // 2 % 2]}"
            for i in range(n)]
    (tmp_path / "labels.csv").write_text("\n".join(
        [FORMAT_LINE, "recording_id,true_machine,is_anomaly,split", *label_rows_of(rows)]) + "\n")
    cells = [f"r{i:03d},{a:+.3f},{b:+.3f}" for i, (a, b) in enumerate(rng.uniform(-9, 9, (n, 2)))]
    header = "recording_id,fan,pump" if source == "scores" else "recording_id,f_0,f_1"
    table = tmp_path / ("scores.csv" if source == "scores" else "features.csv")
    table.write_text("\n".join([FORMAT_LINE, header, *table_rows_of(cells)]) + "\n")
    if source == "manifest":
        for machine in ("fan", "pump"):
            write_features(tmp_path / f"ref_{machine}.csv", ["a", "b", "c"],
                           rng.uniform(-9, 9, (3, 2)))
        table = tmp_path / "manifest.json"
        table.write_text(json.dumps({
            "format": FORMAT_VERSION, "scorer": {"kind": "nearest_reference"},
            "features": "features.csv",
            "machines": [{"name": m, "reference": f"ref_{m}.csv"} for m in ("fan", "pump")]}))
    argv = ["evaluate", f"--{source}", str(table), "--labels", str(tmp_path / "labels.csv")]
    small_chunks(monkeypatch, 19)
    joined = run(capsys, *argv)
    with monkeypatch.context() as patch:  # csv alone gives the same run
        strict_only(patch)
        assert run(capsys, *argv) == joined
    assert joined[0] == (EXIT_DATA if case in JOIN_FAULTS else EXIT_OK)


def test_evaluate_reports_a_20000_row_table_alike_shuffled_and_with_a_quoted_id(
        tmp_path, capsys, monkeypatch):
    # 20,000 rows x 3 machines span several 128 KiB blocks; ids "r0", "r1", ...
    # in a random order, so the label file is not in id order either
    rng = np.random.default_rng(30)
    n, k = 20_000, 3
    ids = [f"r{i}" for i in rng.permutation(n)]
    machine, anomalous = rng.integers(0, k, n), rng.random(n) < 0.25
    splits = np.where(rng.random(n) < 0.5, "dev", "eval")
    scores = rng.normal(2.0, 1.0, (n, k))
    scores[np.arange(n), machine] = rng.normal(0.0, 1.0, n) + 1.5 * anomalous
    labels = [f"{rec_id},m{m},{a:d},{split}" for rec_id, m, a, split
              in zip(ids, machine.tolist(), anomalous.tolist(), splits.tolist())]
    rows = [",".join([rec_id, *map(repr, row)]) for rec_id, row in zip(ids, scores.tolist())]

    def write(name, header, lines):
        (tmp_path / name).write_text(f"{FORMAT_LINE}\n{header}\n" + "\n".join(lines) + "\n")

    def quoted(lines):  # the middle row's id in quotes: csv reads the same id
        rec_id, rest = lines[n // 2].split(",", 1)
        return lines[:n // 2] + [f'"{rec_id}",{rest}'] + lines[n // 2 + 1:]

    scores_header = "recording_id," + ",".join(f"m{j}" for j in range(k))
    write("labels.csv", "recording_id,true_machine,is_anomaly,split", labels)
    write("labels-quoted.csv", "recording_id,true_machine,is_anomaly,split", quoted(labels))
    write("scores.csv", scores_header, rows)
    write("scores-shuffled.csv", scores_header, [rows[i] for i in rng.permutation(n)])
    write("scores-quoted.csv", scores_header, quoted(rows))
    reads, reports = strict_reads(monkeypatch), {}
    for scores_name, labels_name in [("scores.csv", "labels.csv"),
                                     ("scores-shuffled.csv", "labels.csv"),
                                     ("scores-quoted.csv", "labels.csv"),
                                     ("scores.csv", "labels-quoted.csv")]:
        reads.clear()
        code, out, err = run(capsys, "evaluate", "--scores", str(tmp_path / scores_name),
                             "--labels", str(tmp_path / labels_name))
        assert (code, err) == (EXIT_OK, "")
        # the quoted id sends its file to csv, the other file is read by the fast path
        reports[scores_name, labels_name] = reads[:], {
            key: value for key, value in json.loads(out).items() if key != "inputs"}
    plain = reports.pop(("scores.csv", "labels.csv"))
    assert plain[0] == []
    # the reports differ only in the digests of the inputs
    assert reports == {("scores-shuffled.csv", "labels.csv"): ([], plain[1]),
                       ("scores-quoted.csv", "labels.csv"): (["scores-quoted.csv"], plain[1]),
                       ("scores.csv", "labels-quoted.csv"): (["labels-quoted.csv"], plain[1])}


def golden_splits(capsys):
    code, out, _ = run(
        capsys, "evaluate",
        "--scores", str(GOLDEN / "scores.csv"),
        "--labels", str(GOLDEN / "labels.csv"),
    )
    assert code == EXIT_OK
    return json.loads(out)["splits"]


def test_evaluate_orientation_flag_negates(tmp_path, capsys):
    reference = golden_splits(capsys)
    machines, ids, values, _ = read_scores(GOLDEN / "scores.csv")
    negated = tmp_path / "scores.csv"
    write_scores(negated, machines, dict(zip(ids, -values)))
    code, out, _ = run(
        capsys, "evaluate", "--scores", str(negated),
        "--labels", str(GOLDEN / "labels.csv"),
        "--higher-is-anomalous", "false",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["splits"] == reference
    assert doc["config"]["higher_is_anomalous"] is False


def test_evaluate_orientation_header_negates(tmp_path, capsys):
    reference = golden_splits(capsys)
    machines, ids, values, _ = read_scores(GOLDEN / "scores.csv")
    negated = tmp_path / "scores.csv"
    write_scores(negated, machines, dict(zip(ids, -values)), orientation="lower")
    code, out, _ = run(capsys, "evaluate", "--scores", str(negated),
                       "--labels", str(GOLDEN / "labels.csv"))
    assert code == EXIT_OK
    assert json.loads(out)["splits"] == reference


def test_evaluate_orientation_flag_overrides_header(tmp_path, capsys):
    # header says lower, flag insists higher: values stay as stored
    reference = golden_splits(capsys)
    machines, ids, values, _ = read_scores(GOLDEN / "scores.csv")
    mislabeled = tmp_path / "scores.csv"
    write_scores(mislabeled, machines, dict(zip(ids, values)), orientation="lower")
    code, out, _ = run(
        capsys, "evaluate", "--scores", str(mislabeled),
        "--labels", str(GOLDEN / "labels.csv"),
        "--higher-is-anomalous", "true",
    )
    assert code == EXIT_OK
    assert json.loads(out)["splits"] == reference


# ---------------------------------------------------------------------------
# evaluate: manifest path


def build_manifest_fixture(tmp_path):
    rng = np.random.default_rng(404)
    config = SimConfig(k=2, d=3, n_ref=6, n_norm=8, n_anom=4, separation=5.0, seed=9)
    references, merged = generate(config)
    labels = tmp_path / "labels.csv"
    write_labels(labels, [
        Recording(r.id, r.true_machine, r.is_anomaly, r.split)
        for r in merged.recordings
    ])
    write_features(tmp_path / "features.csv", merged.ids, merged.features)
    for machine, ref in references.items():
        write_features(
            tmp_path / f"ref_{machine}.csv",
            [f"{machine}-ref{i}" for i in range(ref.n)],
            ref.vectors,
        )
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "format": FORMAT_VERSION,
        "scorer": {"kind": "nearest_reference", "k": 2},
        "features": "features.csv",
        "machines": [
            {"name": m, "reference": f"ref_{m}.csv"} for m in sorted(references)
        ],
    }))
    del rng
    return manifest, labels, references, merged


def test_evaluate_manifest_matches_library_pipeline(tmp_path, capsys):
    manifest, labels, references, merged = build_manifest_fixture(tmp_path)
    code, out, _ = run(capsys, "evaluate", "--manifest", str(manifest),
                       "--labels", str(labels))
    assert code == EXIT_OK
    doc = json.loads(out)
    spec = ScorerSpec("nearest_reference", k=2)
    # reference vectors round-trip through CSV exactly, so scores agree too
    specs = {m: (spec, ReferenceSet(m, ref.vectors)) for m, ref in references.items()}
    matrix = build_score_matrix(specs, merged.ids, merged.features)
    known = evaluate_known(matrix, merged)
    section = doc["splits"]["dev"]["known"]
    assert section["aggregate"] == known.aggregate
    roles = [entry["role"] for entry in doc["inputs"]]
    assert roles == ["manifest", "features", "labels",
                     "reference:machine01", "reference:machine02"]


@pytest.mark.parametrize("source", ["scores", "manifest"])
def test_evaluate_reports_each_split_of_interleaved_labels(tmp_path, capsys, source):
    # dev and eval rows interleave in the labels file, ids out of sorted order;
    # each split section must equal the library report on that split alone
    rng = np.random.default_rng(1207)
    config = SimConfig(k=3, d=4, n_ref=8, n_norm=10, n_anom=5, separation=3.0, seed=12)
    references, merged = generate(config)
    # ids end in a per-machine, per-class counter: its parity picks the split
    order = rng.permutation(len(merged.ids))
    write_labels(tmp_path / "labels.csv", [
        Recording(rec.id, rec.true_machine, rec.is_anomaly, ("dev", "eval")[int(rec.id[-4:]) % 2])
        for rec in (merged.recordings[i] for i in order)
    ])
    machines = sorted(references)
    if source == "scores":
        values = rng.normal(size=(len(merged.ids), len(machines)))
        scores = {merged.ids[i]: values[i] for i in rng.permutation(len(merged.ids))}
        write_scores(tmp_path / "scores.csv", machines, scores)
        path = tmp_path / "scores.csv"
    else:
        write_features(tmp_path / "features.csv", [merged.ids[i] for i in order],
                       merged.features[order])
        for machine, ref in references.items():
            write_features(tmp_path / f"ref_{machine}.csv",
                           [f"{machine}-ref{i}" for i in range(ref.n)], ref.vectors)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "format": FORMAT_VERSION,
            "scorer": {"kind": "nearest_reference", "k": 2},
            "features": "features.csv",
            "machines": [{"name": m, "reference": f"ref_{m}.csv"} for m in machines],
        }))
        spec = ScorerSpec("nearest_reference", k=2)
        specs = {m: (spec, ReferenceSet(m, ref.vectors)) for m, ref in references.items()}
        matrix = build_score_matrix(specs, merged.ids, merged.features)
        scores = dict(zip(matrix.ids, matrix.values))
    code, out, err = run(capsys, "evaluate", f"--{source}", str(path),
                         "--labels", str(tmp_path / "labels.csv"))
    assert code == EXIT_OK and err == ""
    splits = json.loads(out)["splits"]
    test_sets = read_labels(tmp_path / "labels.csv")
    assert sorted(splits) == sorted(test_sets) == ["dev", "eval"]
    for split, split_set in test_sets.items():
        matrix = ScoreMatrix(machines, split_set.ids, [scores[i] for i in split_set.ids])
        report = full_report(matrix, split_set)
        expected = evaluation_document({split: report}, [], EvalConfig(), True)
        assert splits[split] == json.loads(document_text(expected))["splits"][split]


def test_evaluate_manifest_rejects_orientation_flag(tmp_path, capsys):
    manifest, labels, _, _ = build_manifest_fixture(tmp_path)
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest),
                       "--labels", str(labels),
                       "--higher-is-anomalous", "false")
    assert code == EXIT_USAGE
    assert "scores" in stderr_json(err)["message"]


def test_evaluate_manifest_orientation_flag_is_checked_before_reading_labels(tmp_path, capsys):
    manifest, labels, _, _ = build_manifest_fixture(tmp_path)
    labels.write_text("not,a,label,header\n")
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest),
                       "--labels", str(labels),
                       "--higher-is-anomalous", "true")
    assert code == EXIT_USAGE
    assert "--higher-is-anomalous" in stderr_json(err)["message"]


def test_evaluate_manifest_feature_mismatch(tmp_path, capsys):
    manifest, labels, _, merged = build_manifest_fixture(tmp_path)
    kept = [Recording(*row) for row in label_rows(read_labels(labels))]
    write_labels(labels, kept + [Recording("ghost", "machine01", False)])
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest),
                       "--labels", str(labels))
    assert code == EXIT_DATA
    assert "ghost" in stderr_json(err)["message"]


@pytest.mark.parametrize("normalizer", ["none", "zscore_reference"])
def test_evaluate_manifest_epsilon_too_small_is_data_error(tmp_path, capsys, normalizer):
    # 3 reference vectors in d=8 leave a singular covariance that epsilon=1e-30
    # cannot lift; the query path and the leave-one-out path both factor one
    references, merged = generate(SimConfig(k=2, d=8, n_ref=3, n_norm=4, n_anom=2, seed=5))
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording(r.id, r.true_machine, r.is_anomaly) for r in merged.recordings])
    write_features(tmp_path / "features.csv", merged.ids, merged.features)
    for machine, ref in references.items():
        write_features(tmp_path / f"ref_{machine}.csv",
                       [f"{machine}-ref{i}" for i in range(ref.n)], ref.vectors)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "format": FORMAT_VERSION,
        "scorer": {"kind": "mahalanobis", "epsilon": 1e-30,
                   "normalizer": {"kind": normalizer}},
        "features": "features.csv",
        "machines": [{"name": m, "reference": f"ref_{m}.csv"} for m in sorted(references)],
    }))
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest), "--labels", str(labels))
    assert code == EXIT_DATA
    message = stderr_json(err)["message"]
    assert "'machine01'" in message and "epsilon=1e-30" in message


def test_evaluate_manifest_scores_that_overflow_are_data_error(tmp_path, capsys):
    # epsilon=1e-300 whitens fan's all-zero references by 1e150, so r1 scores
    # past the float range against fan; r1 is valve's, and its finite valve
    # score is its minimum, so neither protocol would read the non-finite cell
    write_features(tmp_path / "ref_fan.csv", ["f0", "f1", "f2"], np.zeros((3, 2)))
    write_features(tmp_path / "ref_valve.csv", ["v0", "v1", "v2", "v3"],
                   [[0.0, 1.0], [2.0, 0.0], [1.0, 3.0], [3.0, 2.0]])
    write_features(tmp_path / "features.csv", ["r1", "r2"], [[1e100, 0.0], [1.0, 1.0]])
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording("r1", "valve", False), Recording("r2", "valve", True)])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "format": FORMAT_VERSION, "scorer": {"kind": "mahalanobis", "epsilon": 1e-300},
        "features": "features.csv",
        "machines": [{"name": m, "reference": f"ref_{m}.csv"} for m in ("fan", "valve")],
    }))
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest), "--labels", str(labels))
    assert code == EXIT_DATA
    assert stderr_json(err)["message"] == ("scores against 'fan' overflow to non-finite values "
                                           "(with mahalanobis, use a larger epsilon)")


@pytest.mark.parametrize("setup", ["mahalanobis-zscore", "knn2-zscore", "knn2-density"])
def test_evaluate_manifest_reproduces_the_frozen_report(tmp_path, capsys, setup):
    out = tmp_path / f"manifest-{setup}.json"
    code, _, _ = run(capsys, "evaluate", "--manifest", str(MANIFEST / f"{setup}.json"),
                     "--labels", str(MANIFEST / "labels.csv"), "--out", str(out))
    assert code == EXIT_OK
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


@pytest.mark.parametrize("setup", ["mahalanobis-zscore", "knn2-zscore", "knn2-density"])
def test_evaluate_manifest_scores_blocks_of_a_few_rows_to_the_frozen_report(
        tmp_path, capsys, monkeypatch, setup):
    # the fixture's feature lines take about 30 bytes, so a block of 60 bytes and
    # the rest of a line holds two or three: each is scored as it is joined, and
    # the report keeps its bytes, as the scores do not depend on the blocking
    blocks, scorer = [], cli._scorer
    monkeypatch.setattr(cli, "_scorer", lambda specs, place: scorer(
        specs, lambda rows, scores: blocks.append(len(rows)) or place(rows, scores)))
    monkeypatch.setattr(io_module, "_CHUNK_CHARS", 60)
    monkeypatch.setattr(io_module, "_CHUNK_LINES", 1)
    strict = strict_reads(monkeypatch)
    out = tmp_path / f"manifest-{setup}.json"
    code, _, err = run(capsys, "evaluate", "--manifest", str(MANIFEST / f"{setup}.json"),
                       "--labels", str(MANIFEST / "labels.csv"), "--out", str(out))
    assert (code, err, strict) == (EXIT_OK, "", [])
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()
    assert sum(blocks) == 36 and max(blocks) <= 3 and len(blocks) >= 12


def test_evaluate_manifest_peak_beyond_labels_and_references_holds_as_rows_grow(
        tmp_path, capsys, monkeypatch):
    # each block of the feature table is scored and reduced as it is joined, so
    # the traced peak of the joined read, beyond the labels, the references and
    # the protocols' columns held before it, is one block's transients (6.40 MB
    # at 2,000 and at 8,000 rows of d = 64) and the join's mask of placed rows,
    # one byte a row. Read whole before it was scored, the table grew it by
    # 8 d = 512 bytes a row (from 2.02 MB to 5.11 MB)
    d, machines = 64, ("fan", "pump")
    rng = np.random.default_rng(64)

    def vectors(rows):  # cells of 7 characters, so every block holds as many lines
        return rng.integers(10_000, 100_000, (rows, d)) + 0.5

    for machine in machines:
        write_features(tmp_path / f"ref_{machine}.csv", [f"{machine}-ref{i}" for i in range(200)],
                       vectors(200))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "format": FORMAT_VERSION, "scorer": {"kind": "nearest_reference"},
        "features": "features.csv",
        "machines": [{"name": m, "reference": f"ref_{m}.csv"} for m in machines]}))
    feature_table, peaks = io_module._feature_table, []

    def traced_join(path, index=None, placement=None):
        if index is None:  # a reference file
            return feature_table(path)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        joined = feature_table(path, index, placement)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return joined

    monkeypatch.setattr(io_module, "_feature_table", traced_join)
    for n in (2_000, 8_000):
        ids = [f"r{i:05d}" for i in range(n)]
        write_labels(tmp_path / "labels.csv", [
            Recording(rec_id, machines[i % 2], i % 5 == 0, SPLITS[i // 2 % 2])
            for i, rec_id in enumerate(ids)])
        order = rng.permutation(n)  # the table's rows shuffled against the labels
        write_features(tmp_path / "features.csv", [ids[i] for i in order], vectors(n))
        (code, _, err), _, _ = traced(lambda: run(
            capsys, "evaluate", "--manifest", str(manifest), "--labels",
            str(tmp_path / "labels.csv"), "--out", str(tmp_path / "report.json")))
        assert (code, err) == (EXIT_OK, "")
    assert peaks[1] - peaks[0] < 4 * (8_000 - 2_000)


@pytest.mark.parametrize("command", ["simulate", "sweep", "evaluate --manifest"])
def test_commands_build_no_score_matrix_and_no_simulated_id(tmp_path, capsys, monkeypatch,
                                                              command):
    # each scored block is reduced to the protocols' columns as it is placed:
    # no command builds a ScoreMatrix, a simulated test set holds its ids'
    # keys only, none given as ids or decoded, and no feature file's ids are
    # decoded
    built, decoded, sets = [], [], []
    post_init, ids, merged_set = ScoreMatrix.__post_init__, protocol._ids, simulate.MergedTestSet
    monkeypatch.setattr(ScoreMatrix, "__post_init__",
                        lambda matrix: built.append(matrix) or post_init(matrix))
    for module in (protocol, io_module):
        monkeypatch.setattr(module, "_ids", lambda keys: decoded.append(keys) or ids(keys))
    monkeypatch.setattr(simulate, "MergedTestSet",
                        lambda *args, **kwargs: sets.append(merged_set(*args, **kwargs)) or sets[-1])
    if command == "evaluate --manifest":
        argv = ["evaluate", "--manifest", str(MANIFEST / "knn2-density.json"),
                "--labels", str(MANIFEST / "labels.csv")]
    else:
        argv = [command, *SMALL_SIM, "--out", str(tmp_path / "out.json")]
    code, _, _ = run(capsys, *argv, *(["--repeats", "2"] if command == "sweep" else []))
    assert code == EXIT_OK
    assert built == [] and decoded == []
    assert len(sets) == {"simulate": 1, "sweep": 2 * len(simulate.DEFAULT_SEPARATIONS),
                         "evaluate --manifest": 0}[command]
    assert not any("ids" in vars(merged) for merged in sets)


def test_manifest_probe_writes_a_run_that_evaluates(tmp_path, capsys):
    # tests/manifest_probe.py at a small size: both manifests evaluate, on a
    # feature table whose rows are shuffled against the labels
    write_probe(tmp_path, n=300, machines=3, n_ref=20, d=8)
    labels = (tmp_path / "labels.csv").read_text().splitlines()[2:]
    features = (tmp_path / "features.csv").read_text().splitlines()[2:]
    assert sorted(line.split(",")[0] for line in features) == [line.split(",")[0]
                                                               for line in labels]
    assert features[0].split(",")[0] != labels[0].split(",")[0]
    for name in SCORERS:
        code, out, err = run(capsys, "evaluate", "--manifest", str(tmp_path / f"{name}.json"),
                             "--labels", str(tmp_path / "labels.csv"))
        assert (code, err) == (EXIT_OK, "")
        assert sorted(json.loads(out)["splits"]) == ["dev", "eval"]


@pytest.mark.parametrize("field, value", [("epsilon", "0.1"), ("epsilon", 1e999),
                                          ("k", 1e999), ("k", None), ("k", True)])
def test_evaluate_manifest_wrongly_typed_field_is_data_error(tmp_path, capsys, field, value):
    manifest, labels, _, _ = build_manifest_fixture(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["scorer"] = {"kind": "mahalanobis", field: value}
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest), "--labels", str(labels))
    assert code == EXIT_DATA
    name = "epsilon" if field == "epsilon" else "neighbor count k"
    assert stderr_json(err)["message"].startswith(f"manifest.json: {name} must be")


@pytest.mark.parametrize("field, name", [("k", "neighbor count k"), ("k_norm", "k_norm"),
                                         ("epsilon", "epsilon")])
def test_evaluate_manifest_int_too_large_for_a_float_is_data_error(tmp_path, capsys,
                                                                   field, name):
    # JSON reads 1 followed by 400 zeros as a Python int, which no float holds
    manifest, labels, _, _ = build_manifest_fixture(tmp_path)
    doc = json.loads(manifest.read_text())
    normalizer = {"kind": "local_density"}
    doc["scorer"] = {"kind": "nearest_reference", "normalizer": normalizer}
    (normalizer if field == "k_norm" else doc["scorer"])[field] = 10**400
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest), "--labels", str(labels))
    assert code == EXIT_DATA
    assert stderr_json(err)["message"].startswith(f"manifest.json: {name} must be")


def test_evaluate_manifest_unknown_key_is_data_error(tmp_path, capsys):
    manifest, labels, _, _ = build_manifest_fixture(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["scorer"]["K"] = 3
    manifest.write_text(json.dumps(doc))
    code, out, err = run(capsys, "evaluate", "--manifest", str(manifest), "--labels", str(labels))
    assert code == EXIT_DATA and out == ""
    assert stderr_json(err)["message"].startswith("manifest.json: unknown key 'K' in scorer ")


def test_evaluate_manifest_integral_float_counts_score_as_ints(tmp_path, capsys):
    manifest, labels, _, _ = build_manifest_fixture(tmp_path)
    doc = json.loads(manifest.read_text())
    splits = []
    for k in (2.0, 2):
        doc["scorer"] = {"kind": "nearest_reference", "k": k,
                         "normalizer": {"kind": "local_density", "k_norm": k}}
        manifest.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "evaluate", "--manifest", str(manifest),
                           "--labels", str(labels))
        assert code == EXIT_OK
        splits.append(json.loads(out)["splits"])
    assert splits[0] == splits[1]


def test_evaluate_manifest_machine_name_must_be_a_string(tmp_path, capsys):
    manifest, labels, _, _ = build_manifest_fixture(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["machines"][0]["name"] = 5
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest), "--labels", str(labels))
    assert code == EXIT_DATA
    assert stderr_json(err)["message"] == (
        "manifest.json: each machine needs a name and a reference path")


def test_evaluate_manifest_empty_reference_path_is_data_error(tmp_path, capsys):
    manifest, labels, _, _ = build_manifest_fixture(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["machines"][0]["reference"] = ""
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest), "--labels", str(labels))
    assert code == EXIT_DATA
    assert stderr_json(err)["message"] == (
        "manifest.json: each machine needs a name and a reference path")


@pytest.mark.parametrize("scaled", ["reference", "features"])
def test_evaluate_manifest_values_past_the_range_bound_are_data_error(tmp_path, capsys,
                                                                       monkeypatch, scaled):
    # squared distances between values near 1e200 overflow; the scorer names the
    # machine instead of warning and reporting non-finite scores. A scorer's
    # error ends the read of the feature table: csv never reads it to score it again
    manifest, labels, references, merged = build_manifest_fixture(tmp_path)
    machine = sorted(references)[0]
    if scaled == "reference":
        ref = references[machine]
        write_features(tmp_path / f"ref_{machine}.csv",
                       [f"{machine}-ref{i}" for i in range(ref.n)], 1e200 * ref.vectors)
    else:
        write_features(tmp_path / "features.csv", merged.ids, 1e200 * merged.features)
    strict = strict_reads(monkeypatch)
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest), "--labels", str(labels))
    assert code == EXIT_DATA and strict == []
    what = "reference set for" if scaled == "reference" else "feature batch scored against"
    assert stderr_json(err)["message"] == (f"{what} {machine!r} has values beyond ±1e+100, "
                                           "past which squared distances can overflow")


def test_evaluate_manifest_reads_the_references_before_the_feature_table(tmp_path, capsys):
    # a bad cell in both the last reference file and the feature table: the
    # scorers are built from the references before the table is read and scored
    manifest, labels, references, _ = build_manifest_fixture(tmp_path)
    for path in (tmp_path / "features.csv", tmp_path / f"ref_{sorted(references)[-1]}.csv"):
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = _with_cell(lines[3], 1, "oops")
        path.write_text("".join(lines))
    code, out, err = run(capsys, "evaluate", "--manifest", str(manifest), "--labels", str(labels))
    assert (code, out) == (EXIT_DATA, "")
    assert stderr_json(err)["message"] == "ref_machine02.csv:4: f_0 value 'oops' is not a number"


def test_evaluate_inputs_that_are_not_utf8_or_overflow_a_field_are_data_errors(
        tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_bytes((GOLDEN / "labels.csv").read_bytes() + b"r\xff,fan,0,dev\n")
    code, _, err = run(capsys, "evaluate", "--scores", str(GOLDEN / "scores.csv"),
                       "--labels", str(labels))
    assert code == EXIT_DATA
    assert "labels.csv:" in stderr_json(err)["message"]
    scores = tmp_path / "scores.csv"
    scores.write_text(f"{FORMAT_LINE}\nrecording_id,fan\nr1,{'1' * 200_000}\n")
    code, _, err = run(capsys, "evaluate", "--scores", str(scores),
                       "--labels", str(GOLDEN / "labels.csv"))
    assert code == EXIT_DATA
    assert stderr_json(err)["message"].startswith("scores.csv:3: field larger")
    manifest, labels, _, _ = build_manifest_fixture(tmp_path)
    manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
    code, _, err = run(capsys, "evaluate", "--manifest", str(manifest), "--labels", str(labels))
    assert code == EXIT_DATA
    assert stderr_json(err)["message"].startswith("manifest.json: not UTF-8 text")


# ---------------------------------------------------------------------------
# evaluate: usage errors


def test_evaluate_requires_exactly_one_source(tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording("r", "fan", False)])
    code, _, err = run(capsys, "evaluate", "--labels", str(labels))
    assert code == EXIT_USAGE
    assert "exactly one" in stderr_json(err)["message"]
    code, _, err = run(capsys, "evaluate", "--labels", str(labels),
                       "--scores", "a.csv", "--manifest", "b.json")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("bad_p", ["0", "-0.5", "1.5"])
def test_evaluate_rejects_bad_pauc_p(bad_p, capsys):
    code, _, err = run(
        capsys, "evaluate",
        "--scores", str(GOLDEN / "scores.csv"),
        "--labels", str(GOLDEN / "labels.csv"),
        "--pauc-p", bad_p,
    )
    assert code == EXIT_USAGE
    assert "pauc-p" in stderr_json(err)["message"]


@pytest.mark.parametrize("command", ["evaluate", "simulate", "sweep"])
def test_bad_pauc_p_fails_before_reading_or_writing(tmp_path, capsys, command):
    # the labels path does not exist: the flag is checked before any input is read
    inputs = {"evaluate": ["--scores", str(GOLDEN / "scores.csv"),
                           "--labels", str(tmp_path / "absent.csv")],
              "simulate": SMALL_SIM, "sweep": ["--separations", "5", *SMALL_SIM]}[command]
    code, _, err = run(capsys, command, *inputs, "--pauc-p", "0",
                       "--out", str(tmp_path / "report.json"))
    assert code == EXIT_USAGE
    assert stderr_json(err)["message"].startswith("--pauc-p must lie in (0, 1]")
    assert list(tmp_path.iterdir()) == []


def test_evaluate_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "evaluate",
                       "--scores", str(tmp_path / "absent.csv"),
                       "--labels", str(GOLDEN / "labels.csv"))
    assert code == EXIT_USAGE
    stderr_json(err)


def test_unknown_flag_and_missing_command(capsys):
    assert run(capsys, "evaluate", "--bogus")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE


def test_cli_imports_and_runs_without_scipy():
    # scipy is a test dependency only; None in sys.modules makes its import fail
    src = str(Path(cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); sys.modules['scipy'] = None\n"
            "from idfree_asd.cli import main\nsys.exit(main(['--help']))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    assert "usage: idfree-asd" in done.stdout


def test_internal_errors_map_to_exit_3(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_report", explode)
    code, _, err = run(
        capsys, "evaluate",
        "--scores", str(GOLDEN / "scores.csv"),
        "--labels", str(GOLDEN / "labels.csv"),
    )
    assert code == EXIT_INTERNAL
    assert "RuntimeError" in stderr_json(err)["message"]


# ---------------------------------------------------------------------------
# check-table


def test_check_table_reference_rows_pass(capsys):
    code, out, _ = run(capsys, "check-table", "--table", str(DATA / "table1.csv"))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["rows"]) == 10
    assert all(row["pass"] for row in doc["rows"])


def test_check_table_detects_tampered_row(tmp_path, capsys):
    original = (DATA / "table1.csv").read_text()
    tampered = tmp_path / "table.csv"
    tampered.write_text(original.replace("3.20%", "3.30%"))
    code, out, _ = run(capsys, "check-table", "--table", str(tampered))
    assert code == EXIT_DATA
    doc = json.loads(out)
    assert doc["all_pass"] is False
    failing = [row for row in doc["rows"] if not row["pass"]]
    assert len(failing) == 1 and failing[0]["expected_percent"] == "3.30"


def test_check_table_undefined_rules(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(
        f"{FORMAT_LINE}\nlabel,a_known,a_unknown,expected\n"
        f"ok-undefined,0.5,0.6,undefined\n"
    )
    assert run(capsys, "check-table", "--table", str(table))[0] == EXIT_OK
    table.write_text(
        f"{FORMAT_LINE}\nlabel,a_known,a_unknown,expected\n"
        f"bad-number,0.5,0.6,3.20%\n"
    )
    assert run(capsys, "check-table", "--table", str(table))[0] == EXIT_DATA
    table.write_text(
        f"{FORMAT_LINE}\nlabel,a_known,a_unknown,expected\n"
        f"bad-undefined,0.7031,0.6966,undefined\n"
    )
    assert run(capsys, "check-table", "--table", str(table))[0] == EXIT_DATA


def test_check_table_range_error_names_its_line(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(
        f"{FORMAT_LINE}\nlabel,a_known,a_unknown,expected\n"
        f"fine,0.7,0.6,14.29\nout-of-range,1.5,0.6,1.0\n"
    )
    code, out, err = run(capsys, "check-table", "--table", str(table))
    assert code == EXIT_DATA and out == ""
    assert stderr_json(err) == {
        "error": "data", "message": "table.csv:4: a_known must lie in [0, 1], got 1.5"}


def test_check_table_written_report(tmp_path, capsys):
    out_path = tmp_path / "check.json"
    code, _, _ = run(capsys, "check-table", "--table", str(DATA / "table1.csv"),
                     "--out", str(out_path))
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "check-table"
    assert doc["inputs"][0]["role"] == "table"


# ---------------------------------------------------------------------------
# simulate and sweep


SMALL_SIM = ["--k", "2", "--d", "3", "--n-ref", "8", "--n-norm", "10",
             "--n-anom", "4", "--seed", "21"]


def test_simulate_writes_report_and_scatter_row(tmp_path, capsys):
    out_path = tmp_path / "sim.json"
    code, _, _ = run(
        capsys, "simulate", "--separation", "50", "--anomaly-offset", "6",
        *SMALL_SIM, "--out", str(out_path),
    )
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "simulate"
    assert doc["point"]["misid_probability"] == 0.0
    assert doc["point"]["delta_norm"] == 0.0
    csv_lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert csv_lines[0] == FORMAT_LINE
    assert len(csv_lines) == 3  # format, header, one point
    row = csv_lines[2].split(",")
    assert row[0] == "50.0" and float(row[4]) == 0.0


def test_simulate_reproduces_the_frozen_wide_id_point(tmp_path, capsys):
    # 10,050 normals per machine: the 5-digit ids sort away from draw order
    out_path = tmp_path / "simulate-wide-ids.json"
    code, _, _ = run(capsys, "simulate", "--k", "3", "--d", "4", "--n-ref", "16",
                     "--n-norm", "10050", "--n-anom", "40", "--seed", "7",
                     "--separation", "5", "--out", str(out_path))
    assert code == EXIT_OK
    for name in ("simulate-wide-ids.json", "simulate-wide-ids.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_simulate_writes_svg_when_asked(tmp_path, capsys):
    out_path = tmp_path / "sim.json"
    svg_path = tmp_path / "scatter.svg"
    code, _, _ = run(capsys, "simulate", *SMALL_SIM,
                     "--out", str(out_path), "--svg", str(svg_path))
    assert code == EXIT_OK
    svg = svg_path.read_text()
    assert svg.startswith("<svg ") and svg.count("<circle") == 1


def test_simulate_rejects_csv_out(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", *SMALL_SIM,
                       "--out", str(tmp_path / "sim.csv"))
    assert code == EXIT_USAGE
    assert ".csv" in stderr_json(err)["message"]


def test_simulate_propagates_config_errors_as_data(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--k", "9", "--d", "3",
                       "--out", str(tmp_path / "sim.json"))
    assert code == EXIT_DATA
    assert "dimensions" in stderr_json(err)["message"]


def test_sweep_grid_and_determinism(tmp_path, capsys):
    args = ["sweep", "--separations", "5,9", "--repeats", "2", *SMALL_SIM]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(first))[0] == EXIT_OK
    assert run(capsys, *args, "--out", str(second))[0] == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    doc = json.loads(first.read_text())
    assert doc["kind"] == "sweep"
    assert len(doc["points"]) == 4
    assert [p["separation"] for p in doc["points"]] == [5.0, 5.0, 9.0, 9.0]
    csv_lines = (tmp_path / "a.csv").read_text().splitlines()
    assert len(csv_lines) == 2 + 4


def test_sweep_rejects_empty_separations(tmp_path, capsys):
    code, _, _ = run(capsys, "sweep", "--separations", ",", *SMALL_SIM,
                     "--out", str(tmp_path / "s.json"))
    assert code == EXIT_USAGE


def test_sweep_missing_out_directory_fails_before_running(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("computation started before the output path was checked")

    monkeypatch.setattr(cli, "sweep", never)
    monkeypatch.setattr(cli, "run_point", never)
    code, _, err = run(capsys, "sweep", *SMALL_SIM,
                       "--out", str(tmp_path / "missing" / "s.json"))
    assert code == EXIT_USAGE
    assert "does not exist" in stderr_json(err)["message"]
    code, _, _ = run(capsys, "simulate", *SMALL_SIM, "--out", str(tmp_path / "s.json"),
                     "--svg", str(tmp_path / "missing" / "s.svg"))
    assert code == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("svg_name", ["report.json", "report.csv"])
def test_svg_may_not_overwrite_the_report_or_its_scatter_table(
        tmp_path, capsys, monkeypatch, command, svg_name):
    def never(*args, **kwargs):
        raise AssertionError("computation started before the --svg path was checked")

    monkeypatch.setattr(cli, "sweep", never)
    monkeypatch.setattr(cli, "run_point", never)
    # a relative --svg names the same file as an absolute --out
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, command, *SMALL_SIM, "--out", str(tmp_path / "report.json"),
                       "--svg", svg_name)
    assert code == EXIT_USAGE
    assert stderr_json(err)["message"].startswith("--svg must differ")
    assert list(tmp_path.iterdir()) == []


# a valid value other than the default for every SimConfig field
NON_DEFAULT = {"k": 3, "d": 4, "n_ref": 10, "n_norm": 12, "n_anom": 5, "separation": 6.5,
               "spread": 1.5, "anomaly_offset": 3.0, "seed": 7}


# a sweep takes its separations from --separations, not from a --separation flag
@pytest.mark.parametrize("command, name", [
    (command, field.name) for command in ("simulate", "sweep") for field in fields(SimConfig)
    if (command, field.name) != ("sweep", "separation")])
def test_every_sim_config_field_is_set_by_its_flag(tmp_path, capsys, command, name):
    value = NON_DEFAULT[name]
    assert value != getattr(SimConfig(), name)
    grid = ["--separations", "5", "--repeats", "1"] if command == "sweep" else []
    out = tmp_path / "report.json"
    code, _, err = run(capsys, command, *grid, f"--{name.replace('_', '-')}", str(value),
                       "--out", str(out))
    assert code == EXIT_OK, err
    base = {"separation": 0.0} if command == "sweep" else {}
    assert json.loads(out.read_text())["config"] == asdict(SimConfig(**base, **{name: value}))


def test_sweep_svg_skips_failed_points(tmp_path, capsys):
    # an impossible geometry fails every point; the SVG must still render
    code, _, _ = run(
        capsys, "sweep", "--separations", "1,2", "--repeats", "1",
        "--k", "9", "--d", "3", "--out", str(tmp_path / "s.json"),
        "--svg", str(tmp_path / "s.svg"),
    )
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "s.json").read_text())
    assert all(p["error"] for p in doc["points"])
    assert (tmp_path / "s.svg").read_text().count("<circle") == 0
