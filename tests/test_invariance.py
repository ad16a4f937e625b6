"""Metamorphic checks of `evaluate`: the golden report does not change when its
input files are rewritten in ways that must not matter.

Each row of TABLE rewrites the golden scores and labels, runs `evaluate` on
the copies in each of its ways, and compares every report with the golden
files' as JSON without `inputs` (the digests of the files). A row may name
report fields that its rewrite must change, such as the orientation. All runs
of one row read the same files, so they must write the same bytes. Runs in
process also name the files that csv, the strict reader, had to read; runs in
a subprocess of `python -m idfree_asd.cli` set the interpreter's flags or
environment, and must write nothing to stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import idfree_asd
from idfree_asd.cli import EXIT_OK, main
from test_io_formats import strict_reads

GOLDEN = Path(__file__).parent / "data" / "golden"
SRC = Path(idfree_asd.__file__).parents[1]
# how a run starts: in process through cli.main, or a subprocess with these
# interpreter flags and environment
RUNS = {
    "in process": None,
    "-X dev -W error": (["-X", "dev", "-W", "error"], {}),
    "PYTHONHASHSEED=1": ([], {"PYTHONHASHSEED": "1"}),
    "PYTHONHASHSEED=2": ([], {"PYTHONHASHSEED": "2"}),
}


def _split(text):
    """The lines of a table up to its header, and its data lines."""
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[:header + 1], lines[header + 1:]


def same(text):
    return text


def reversed_rows(text):
    head, rows = _split(text)
    return "".join(head + rows[::-1])


def negated_lower(text):
    # every score negated under `# orientation: lower`: evaluate negates it back
    head, rows = _split(text)
    assert head[1] == "# orientation: higher\n"
    cells = [row.rstrip("\n").split(",") for row in rows]
    return "".join([head[0], "# orientation: lower\n", head[2]] + [
        ",".join([rec_id] + [repr(-float(cell)) for cell in scores]) + "\n"
        for rec_id, *scores in cells])


def quoted_last_id(text):
    # csv reads the same id, but the byte gate turns the quote's block down
    head, rows = _split(text)
    rec_id, _, rest = rows[-1].partition(",")
    return "".join(head + rows[:-1] + [f'"{rec_id}",{rest}'])


def crlf(text):
    # the byte reader reads CRLF line ends as LF, so csv never runs
    return text.replace("\n", "\r\n")


# name: (scores rewrite, labels rewrite, runs, files csv reads in process,
#        report fields the rewrite must change)
TABLE = {
    "golden": (same, same, ("in process", "PYTHONHASHSEED=1", "PYTHONHASHSEED=2",
                            "-X dev -W error"), (), ()),
    "score rows reversed": (reversed_rows, same,
                            ("in process", "PYTHONHASHSEED=1", "PYTHONHASHSEED=2"), (), ()),
    "label rows reversed": (same, reversed_rows, ("in process",), (), ()),
    "scores negated under orientation lower": (negated_lower, same, ("in process",), (),
                                               (("config", "higher_is_anomalous"),)),
    "a quoted score id": (quoted_last_id, same, ("in process", "-X dev -W error"),
                          ("scores.csv",), ()),
    "a quoted label id": (same, quoted_last_id, ("in process", "-X dev -W error"),
                          ("labels.csv",), ()),
    "CRLF labels": (same, crlf, ("in process", "-X dev -W error"), (), ()),
}


def evaluate(directory, how, monkeypatch, capsys):
    """The report bytes that `evaluate` writes for the tables in ``directory``,
    run ``how``, with the files csv read (None for a subprocess)."""
    out = directory / f"{how}.json"
    argv = ["evaluate", "--scores", str(directory / "scores.csv"),
            "--labels", str(directory / "labels.csv"), "--out", str(out)]
    if RUNS[how] is None:
        with monkeypatch.context() as patch:
            reads = strict_reads(patch)
            code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_OK, "", "")
        return out.read_bytes(), reads
    flags, environment = RUNS[how]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *flags, "-m", "idfree_asd.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **environment))
    assert (done.returncode, done.stderr) == (0, ""), how
    return out.read_bytes(), None


def without_inputs(report, fields=()):
    """The report as JSON, without `inputs` and without ``fields`` (paths of keys),
    and the values of ``fields``."""
    doc = json.loads(report)
    del doc["inputs"]
    values = []
    for path in fields:
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        values.append(node.pop(last))
    return doc, values


@pytest.mark.parametrize("row", TABLE)
def test_evaluate_reports_the_golden_files_alike_under_each_rewrite(
        row, tmp_path, monkeypatch, capsys):
    rewrite_scores, rewrite_labels, runs, csv_reads, fields = TABLE[row]
    plain = tmp_path / "plain"
    rewritten = tmp_path / "rewritten"
    for directory, rewrites in [(plain, (same, same)),
                                (rewritten, (rewrite_scores, rewrite_labels))]:
        directory.mkdir()
        for name, rewrite in zip(["scores.csv", "labels.csv"], rewrites):
            # bytes, so that no newline is translated on the way
            (directory / name).write_bytes(rewrite((GOLDEN / name).read_text()).encode())
    expected, golden_reads = evaluate(plain, "in process", monkeypatch, capsys)
    assert golden_reads == []  # the golden files pass the byte gate
    written = {}
    for how in runs:
        written[how], reads = evaluate(rewritten, how, monkeypatch, capsys)
        if reads is not None:
            assert reads == list(csv_reads)
    # the same files give the same bytes, however the run starts
    assert len(set(written.values())) == 1, sorted(written)
    report, changed = without_inputs(next(iter(written.values())), fields)
    golden, original = without_inputs(expected, fields)
    assert report == golden
    assert all(a != b for a, b in zip(changed, original))
