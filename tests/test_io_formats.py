import hashlib
import json
import os
import re
import sys
import warnings
from bisect import bisect_left
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import idfree_asd.io as io_module
from idfree_asd.cli import main
from idfree_asd.io import (
    FORMAT_LINE,
    FORMAT_VERSION,
    CheckRow,
    FormatError,
    atomic_write_text,
    check_table_document,
    document_text,
    evaluation_document,
    file_digest,
    percent_text,
    read_check_table,
    read_features,
    read_labels,
    read_manifest,
    read_scores,
    scatter_svg_text,
    simulate_document,
    sweep_csv_text,
    sweep_document,
)
import idfree_asd.protocol as protocol_module
from idfree_asd.protocol import SPLITS, EvalConfig, ProtocolError, Recording, full_report
from idfree_asd.scorers import ScorerSpec
from idfree_asd.simulate import SimConfig, SweepPoint, generate, run_point, sweep
from tables import label_rows, traced, write_features, write_labels, write_scores

# ---------------------------------------------------------------------------
# score tables


def test_scores_roundtrip(tmp_path):
    path = tmp_path / "scores.csv"
    rows = {"r1": [0.1, 2.5], "r2": [1.0 / 3.0, -4.25]}
    write_scores(path, ["fan", "pump"], rows, orientation="higher")
    machines, ids, table, orientation = read_scores(path)
    assert machines == ["fan", "pump"]
    assert orientation == "higher"
    assert ids.tolist() == list(rows)
    assert np.array_equal(table, list(rows.values()))  # repr round-trips exactly


def test_scores_orientation_optional(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores(path, ["fan"], {"r1": [1.0]})
    assert read_scores(path)[3] is None


def test_scores_rejects_unversioned_file(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("recording_id,fan\nr1,1.0\n")
    with pytest.raises(FormatError, match="first line"):
        read_scores(path)


def test_scores_rejects_wrong_version(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("# format: idfree-asd/2\nrecording_id,fan\nr1,1.0\n")
    with pytest.raises(FormatError, match="first line"):
        read_scores(path)


def test_scores_rejects_bad_orientation(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(f"{FORMAT_LINE}\n# orientation: sideways\nrecording_id,fan\nr1,1.0\n")
    with pytest.raises(FormatError, match="orientation"):
        read_scores(path)
    with pytest.raises(FormatError, match="orientation"):
        write_scores(path, ["fan"], {"r1": [1.0]}, orientation="sideways")


@pytest.mark.parametrize(
    "body, message",
    [
        ("recording_id,fan\nr1,abc\n", "not a number"),
        ("recording_id,fan\nr1,inf\n", "not finite"),
        ("recording_id,fan\nr1,nan\n", r"^scores\.csv:3: fan value 'nan' is not finite$"),
        ("recording_id,fan\nr1,-Infinity\n",
         r"^scores\.csv:3: fan value '-Infinity' is not finite$"),
        ("recording_id,fan\nr1,0x10\n", r"^scores\.csv:3: fan value '0x10' is not a number$"),
        ("recording_id,fan\nr1,1e400\n", r"^scores\.csv:3: fan value '1e400' is not finite$"),
        ("recording_id,fan\nr1,\n", r"^scores\.csv:3: fan value '' is not a number$"),
        # row structure is checked over the whole file before any cell value
        ("recording_id,fan\nr1,oops\nr1,2.0\n", r"^scores\.csv:4: duplicate recording id 'r1'$"),
        ("recording_id,fan\nr1,1.0,2.0\n", "expected 2 fields"),
        ("recording_id,fan\nr1,1.0\nr1,2.0\n", "duplicate"),
        ("recording_id,fan,fan\nr1,1.0,2.0\n", "unique"),
        ("id,fan\nr1,1.0\n", "header"),
        ("recording_id,fan\n", "no score rows"),
        ("\n", r"^scores\.csv: no header row found$"),
        ("", "first line"),
    ],
)
def test_scores_parse_errors(tmp_path, body, message):
    path = tmp_path / "scores.csv"
    path.write_text(f"{FORMAT_LINE}\n{body}" if body else "")
    with pytest.raises(FormatError, match=message):
        read_scores(path)


def test_scores_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(f"{FORMAT_LINE}\nrecording_id,fan\nr1,1.0\nr2,oops\n")
    with pytest.raises(FormatError, match=r"scores\.csv:4"):
        read_scores(path)


@pytest.mark.parametrize("text, value", [("1_000", 1000.0), (" 1.5 ", 1.5),
                                         ("\uff11\uff12", 12.0), ("\xa01\xa0", 1.0),
                                         ("1e-400", 0.0), ("+.5", 0.5)])
def test_scores_accept_what_float_accepts(tmp_path, text, value):
    path = tmp_path / "scores.csv"
    path.write_text(f"{FORMAT_LINE}\nrecording_id,fan,pump\nr1,{text},2\n", encoding="utf-8")
    assert read_scores(path)[2].tolist() == [[value, 2.0]]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_csv_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, newline):
    # the bad byte lies past the first block the text reader decodes
    lines = [FORMAT_LINE, "recording_id,true_machine,is_anomaly,split"]
    lines += [f"r{i},fan,0,dev" for i in range(2000)] + ["r\udcff,fan,0,dev", ""]
    path = tmp_path / "labels.csv"
    path.write_bytes(newline.join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(FormatError, match=r"^labels\.csv:2003: not UTF-8 text"):
        read_labels(path)


def test_csv_with_a_foreign_byte_order_mark_is_a_format_error(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_bytes(b"\xff\xfe" + f"{FORMAT_LINE}\nrecording_id,fan\nr1,1.0\n".encode())
    with pytest.raises(FormatError, match=r"^scores\.csv:1: not UTF-8 text"):
        read_scores(path)


def test_csv_field_over_the_size_limit_names_its_line(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(f"{FORMAT_LINE}\nrecording_id,fan\nr1,1.0\nr2,{'1' * 200_000}\n")
    with pytest.raises(FormatError, match=r"^scores\.csv:4: field larger than field limit"):
        read_scores(path)


def _write_table(kind, path, ids, matrix):
    if kind == "scores":
        write_scores(path, [f"m{j}" for j in range(matrix.shape[1])], dict(zip(ids, matrix)))
    else:
        write_features(path, ids, matrix)


def _read_table(kind, path, sets=None):
    """A table's ids and values, in file order or joined to read_labels' `sets`:
    then the join's place puts each block at its ids' rows of an (n, width)
    array, the sets' rows in turn, and the ids are the labels'."""
    if sets is None:
        if kind == "features":
            return read_features(path)
        _, ids, values, _ = read_scores(path)
        return ids, values
    keys, values = np.concatenate([merged.keys for merged in sets.values()]), []

    def place(rows, block):
        if not values:  # the width is the first block's
            values.append(np.empty((len(keys), block.shape[1])))
        values[0][rows] = block

    if kind == "features":
        io_module._feature_table(path, sets, place)
    else:
        io_module._score_table(path, sets, lambda *_: (values, place))
    return protocol_module._ids(keys), values[0]


def strict_reads(monkeypatch):
    """Record the files that the strict reader, the csv path, reads from here on."""
    reads, keyed_rows = [], io_module._keyed_rows

    def counted(path, *args):
        reads.append(path.name)
        return keyed_rows(path, *args)

    monkeypatch.setattr(io_module, "_keyed_rows", counted)
    return reads


def strict_only(monkeypatch):
    """Send every block of data lines to csv, the path of a file the C path never reads:
    any byte fails the one gate of score, feature and label blocks."""
    monkeypatch.setattr(io_module, "_STRICT_BYTES", bytes(range(256)))


def outcome(read):
    """What `read()` gives, as comparable values: id arrays as lists, float
    arrays as their bits, an error as its type and text."""
    try:
        result = read()
    except (FormatError, ProtocolError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, dict):  # read_labels
        return [(split, merged.ids.tolist(), merged.machines, merged.true_machine.tolist(),
                 merged.is_anomaly.tolist()) for split, merged in result.items()]

    def value(item):
        if not isinstance(item, np.ndarray):
            return item
        return item.tolist() if item.dtype.kind == "T" else item.view(np.uint64).tolist()

    return value(result) if isinstance(result, np.ndarray) else list(map(value, result))


def strict_outcome(monkeypatch, read):
    """The outcome of `read` with every chunk of data lines sent to csv."""
    with monkeypatch.context() as patch:
        strict_only(patch)
        return outcome(read)


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_clean_table_converts_by_column_without_cell_pass(tmp_path, monkeypatch, kind):
    ids = [f"r{i}" for i in range(50)]
    matrix = np.random.default_rng(1).standard_normal((50, 3))
    path = tmp_path / f"{kind}.csv"
    _write_table(kind, path, ids, matrix)
    reads = strict_reads(monkeypatch)
    back_ids, back = _read_table(kind, path)
    assert back_ids.tolist() == ids and np.array_equal(back, matrix)
    assert reads == []  # the C path read the table; csv never did


@pytest.mark.parametrize("kind", ["scores", "features"])
@pytest.mark.parametrize("text, message", [("oops", "is not a number"),
                                           ("-inf", "is not finite")])
def test_bad_cell_deep_in_table_names_its_line(tmp_path, kind, text, message):
    path = tmp_path / f"{kind}.csv"
    _write_table(kind, path, [f"r{i}" for i in range(10_000)], np.ones((10_000, 4)))
    lines = path.read_text().split("\n")
    # line 1 is the format line and line 2 the header, so data row 5,000 is line 5,002
    cells = lines[5_001].split(",")
    cells[3] = text
    lines[5_001] = ",".join(cells)
    path.write_text("\n".join(lines))
    column = "m2" if kind == "scores" else "f_2"
    with pytest.raises(FormatError) as err:
        _read_table(kind, path)
    assert str(err.value) == f"{path.name}:5002: {column} value {text!r} {message}"


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_random_doubles_roundtrip_bit_for_bit(tmp_path, kind):
    bits = np.random.default_rng(2024).integers(0, 2**64, size=(2_000, 3), dtype=np.uint64)
    matrix = bits.view(np.float64)
    matrix[~np.isfinite(matrix)] = -0.0
    path = tmp_path / f"{kind}.csv"
    _write_table(kind, path, [f"r{i}" for i in range(len(matrix))], matrix)
    _, back = _read_table(kind, path)
    assert np.array_equal(back.view(np.uint64), matrix.view(np.uint64))


BLOCK_ROWS = 8
# every data line of a chunked test table is this long, newline included
LINE = 16


def _line(length, rec_id, *cells):
    """A data line of `length` characters with its newline; spaces, which
    float() and numpy both skip, pad the first value."""
    pad = " " * (length - 1 - len(",".join([rec_id, *cells])))
    return ",".join([rec_id, pad + cells[0], *cells[1:]])


def small_chunks(monkeypatch, line_length):
    """Make data lines of `line_length` characters come BLOCK_ROWS to a chunk."""
    monkeypatch.setattr(io_module, "_CHUNK_CHARS", BLOCK_ROWS * line_length - 1)
    monkeypatch.setattr(io_module, "_CHUNK_LINES", 1)


def _header(kind, width):
    return ",".join(["recording_id"] + [f"m{j}" if kind == "scores" else f"f_{j}"
                                        for j in range(width)])


@pytest.mark.parametrize("kind", ["scores", "features"])
@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 2])
def test_blocked_conversion_matches_float_on_each_cell(tmp_path, monkeypatch, kind, n):
    bits = np.random.default_rng(n).integers(0, 2**64, size=(n, 3), dtype=np.uint64)
    matrix = bits.view(np.float64)
    matrix[~np.isfinite(matrix)] = 1.5
    path = tmp_path / f"{kind}.csv"
    ids = [f"r{i}" for i in range(n)]
    # a repr takes at most 24 characters, so every line fits in 90
    lines = [_line(90, rec_id, *map(repr, row)) for rec_id, row in zip(ids, matrix.tolist())]
    path.write_text("\n".join([FORMAT_LINE, _header(kind, 3), *lines]) + "\n")
    expected = np.array([[float(cell) for cell in line.split(",")[1:]]
                         for line in path.read_text().splitlines()[2:]])
    small_chunks(monkeypatch, 90)
    reads = strict_reads(monkeypatch)
    back_ids, back = _read_table(kind, path)
    assert reads == []  # loadtxt converted every chunk
    assert back_ids.tolist() == ids
    assert back.shape == (n, 3)
    assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))


def _table_lines(kind, n):
    return [FORMAT_LINE, _header(kind, 2)] + [_line(LINE, f"r{i}", f"{i}.5", f"{-i}")
                                              for i in range(n)]


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_blocked_bad_cell_waits_for_row_structure(tmp_path, monkeypatch, kind):
    # data row i is line i + 3: a bad cell in block 1, a duplicate id in block 3
    lines = _table_lines(kind, 3 * BLOCK_ROWS)
    lines[2 + 1] = _line(LINE, "r1", "oops", "1")
    lines[2 + 2 * BLOCK_ROWS + 4] = _line(LINE, "r5", "1", "1")
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    small_chunks(monkeypatch, LINE)
    with pytest.raises(FormatError) as err:
        _read_table(kind, path)
    assert str(err.value) == (f"{path.name}:{2 * BLOCK_ROWS + 7}: "
                              f"duplicate recording id 'r5'")


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_blocked_first_bad_block_names_its_cell(tmp_path, monkeypatch, kind):
    lines = _table_lines(kind, 3 * BLOCK_ROWS)
    lines[2 + BLOCK_ROWS + 3] = _line(LINE, f"r{BLOCK_ROWS + 3}", "1", "nan")
    lines[2 + 2 * BLOCK_ROWS] = _line(LINE, f"r{2 * BLOCK_ROWS}", "oops", "1")
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    small_chunks(monkeypatch, LINE)
    with pytest.raises(FormatError) as err:
        _read_table(kind, path)
    column = "m1" if kind == "scores" else "f_1"
    assert str(err.value) == f"{path.name}:{BLOCK_ROWS + 6}: {column} value 'nan' is not finite"


def _chunked_lines(kind, n):
    """A table of n data rows of LINE characters each, ids r000, r001, ..."""
    if kind == "labels":
        # machine and split names of 7 characters together keep the lines even
        rows = [f"r{i:03d},{'fan,' if i % 2 else 'pump,'}{i // 2 % 2},{'eval' if i % 2 else 'dev'}"
                for i in range(n)]
        return [FORMAT_LINE, "recording_id,true_machine,is_anomaly,split", *rows]
    return [FORMAT_LINE, _header(kind, 2),
            *(_line(LINE, f"r{i:03d}", f"{i}.5", f"{-i}") for i in range(n))]


def _with_id(line, rec_id):
    return rec_id + line[line.index(","):]


def _with_cell(line, column, text):
    cells = line.split(",")
    cells[column] = text
    return ",".join(cells)


# data row 2 * BLOCK_ROWS + 2 (line 2 * BLOCK_ROWS + 5) lies in the third
# chunk; each fault gives the lines that stand in for it
FAULT_ROW = 2 + 2 * BLOCK_ROWS + 2
FAULTS = {
    "field count": lambda line: [line + ",1"],
    "empty id": lambda line: [_with_id(line, "")],
    "duplicate in chunk": lambda line: [_with_id(line, f"r{2 * BLOCK_ROWS + 1:03d}")],
    "duplicate across chunks": lambda line: [_with_id(line, "r003")],
    # label rows of even number are dev rows, of odd number eval rows; the
    # faulty row r018 is a dev row. A repeat of its split's lowest or highest
    # key, and, across splits, of the lowest key of both (the row moved to the
    # eval split) or the highest of both
    "repeat in split": lambda line: [_with_id(line, "r002")],
    "repeat in split of its lowest key": lambda line: [_with_id(line, "r000")],
    "repeat in split of its highest key": lambda line: [_with_id(line, "r030")],
    "repeat across splits": lambda line: [_with_id(line, "r001")],
    "repeat across splits of their lowest key": lambda line: ["r000,fan,1,eval"],
    "repeat across splits of their highest key": lambda line: [_with_id(line, "r031")],
    # beside the id r016 of the same split; a bytes column holds both as b"r016"
    "id extended by NUL": lambda line: [_with_id(line, "r016\x00")],
    "long ids": lambda line: [_with_id(line, "r" * 40 + "018")],
    "unlabeled id": lambda line: [_with_id(line, "x018")],
    "bad cell": lambda line: [_with_cell(line, 2, "oops")],
    "non-finite cell": lambda line: [_with_cell(line, 2, "-inf")],
    # past the scorers' bound: a data error where evaluate reads the features
    "cell past the feature bound": lambda line: [_with_cell(line, 2, "1e200")],
    "bad label": lambda line: [_with_cell(line, 3, "test")],
    "blank line": lambda line: ["", line],
    "whitespace-only line": lambda line: ["  ", line],
    # the chunk keeps its comma total, so only a per-line count or loadtxt's rows
    # tell; here the next line's id ends this one, and split at commas alone the
    # two read as the rows r018 and r918
    "extra and missing field": lambda line: [line + ",r918", line[line.index(",") + 1:]],
    "doubled cells and blank line": lambda line: [line + line[line.index(","):], ""],
    "quoted newline": lambda line: [_with_id(line, '"r0\n18"')],
    "CRLF from mid-file": None,
    "CR from mid-file": None,
    # numpy reads these around a number as white space, float() does not
    **{f"{byte!r} before a cell": lambda line, byte=byte: [
        _with_cell(line, 2, byte + line.split(",")[2])] for byte in "\x1c\x1d\x1e\x1f"},
}
# the line end that a fault of None writes from the faulty row on
LINE_ENDS = {"CRLF from mid-file": "\r\n", "CR from mid-file": "\r"}
# the error text of each fault; the others read
MESSAGES = {
    "field count": "{name}:21: expected {width} fields, got {wider}",
    "empty id": "{name}:21: empty recording id",
    "duplicate in chunk": "{name}:21: duplicate recording id 'r017'",
    "duplicate across chunks": "{name}:21: duplicate recording id 'r003'",
    "repeat in split": "{name}:21: duplicate recording id 'r002'",
    "repeat in split of its lowest key": "{name}:21: duplicate recording id 'r000'",
    "repeat in split of its highest key": "{name}:33: duplicate recording id 'r030'",
    "repeat across splits": "{name}:21: duplicate recording id 'r001'",
    "repeat across splits of their lowest key": "{name}:21: duplicate recording id 'r000'",
    "repeat across splits of their highest key": "{name}:34: duplicate recording id 'r031'",
    "bad cell": "{name}:21: m1 value 'oops' is not a number",
    "non-finite cell": "{name}:21: m1 value '-inf' is not finite",
    "cell past the feature bound": ("{name}:21: m1 value '1e200' is beyond ±1e+100, past which "
                                    "squared distances can overflow"),
    "bad label": "{name}:21: recording 'r018': unknown split 'test'",
    "whitespace-only line": "{name}:21: expected {width} fields, got 1",
    "extra and missing field": "{name}:21: expected {width} fields, got {wider}",
    "doubled cells and blank line": "{name}:21: expected {width} fields, got {doubled}",
    **{f"{byte!r} before a cell": f"{{name}}:21: m1 value {byte + '-18'!r} is not a number"
       for byte in "\x1c\x1d\x1e\x1f"},
}
# labeled: read in file order (False) or with read_labels' order of a label
# file that lists the table's rows in its order ("order") or in reverse (True)
TABLES = [("scores", False), ("scores", True), ("scores", "order"), ("features", False),
          ("features", True), ("features", "order"), ("labels", False)]


def _index(tmp_path, labeled, n):
    """The label sets a table of rows r000, r001, ... is read with, if `labeled`."""
    if not labeled:
        return None
    lines = _chunked_lines("labels", n)  # dev and eval rows alternate
    if labeled is True:
        lines[2:] = lines[2:][::-1]
    labels = tmp_path / "index-labels.csv"
    labels.write_text("\n".join(lines) + "\n")
    return read_labels(labels)


# faults that keep the table valid with other ids; the label table alone has them
NEW_IDS = {"id extended by NUL": "r016\x00", "long ids": "r" * 40 + "018"}


def _applies(fault, kind, labeled):
    if fault in NEW_IDS or fault.startswith("repeat"):
        # Python 3.10's csv refuses NUL, so there only the C path reads such an id
        return kind == "labels" and ("\x00" not in NEW_IDS.get(fault, "")
                                     or sys.version_info >= (3, 11))
    if fault == "unlabeled id":
        return labeled
    if fault == "cell past the feature bound":  # read_features takes any finite value
        return kind == "features" and labeled
    if fault in ("bad cell", "non-finite cell") or fault.endswith("before a cell"):
        return kind != "labels"
    return fault != "bad label" or kind == "labels"


@pytest.mark.parametrize("kind, labeled, fault", [
    (kind, labeled, fault) for kind, labeled in TABLES for fault in FAULTS
    if _applies(fault, kind, labeled)])
def test_fault_in_the_third_chunk_reads_as_csv_reads_it(tmp_path, monkeypatch, kind, labeled,
                                                        fault):
    lines = _chunked_lines(kind, 4 * BLOCK_ROWS)
    path = tmp_path / f"{kind}.csv"
    if FAULTS[fault] is None:  # other line ends from the faulty row on
        end = LINE_ENDS[fault]
        path.write_bytes(("\n".join(lines[:FAULT_ROW]) + "\n"
                          + end.join(lines[FAULT_ROW:]) + end).encode())
    else:
        lines[FAULT_ROW:FAULT_ROW + 1] = FAULTS[fault](lines[FAULT_ROW])
        path.write_text("\n".join(lines) + "\n")
    index = _index(tmp_path, labeled, 4 * BLOCK_ROWS)

    def read():
        return read_labels(path) if kind == "labels" else _read_table(kind, path, index)

    small_chunks(monkeypatch, LINE)
    reads = strict_reads(monkeypatch)
    chunked, csv_reads = outcome(read), list(reads)
    assert chunked == strict_outcome(monkeypatch, read)
    width = 4 if kind == "labels" else 3
    column = "m1" if kind == "scores" else "f_1"
    if fault in MESSAGES:
        message = MESSAGES[fault].replace("m1", column)
        assert chunked == ("FormatError", message.format(name=path.name, width=width,
                                                         wider=width + 1, doubled=2 * width - 1))
        if fault.startswith("repeat"):  # the fast path found it and left the file to csv
            assert csv_reads == [path.name]
    elif fault == "unlabeled id" or fault == "quoted newline" and labeled:
        rec_id = "x018" if fault == "unlabeled id" else "r0\n18"
        sides = [f"1 {kind[:-1]} rows without labels [{rec_id!r}]",
                 f"1 labeled recordings without {kind} ['r018']"]
        sides = sides if kind == "scores" else sides[::-1]
        assert chunked == ("ProtocolError",
                           f"{kind}/labels cross-reference mismatch: {sides[0]}, {sides[1]}")
    elif fault in NEW_IDS:  # the C path read the new id as csv does
        assert [rec_id for split in chunked for rec_id in split[1]] == sorted(
            [f"r{i:03d}" for i in range(0, 4 * BLOCK_ROWS, 2) if i != 18] + [NEW_IDS[fault]]
        ) + [f"r{i:03d}" for i in range(1, 4 * BLOCK_ROWS, 2)]
        assert csv_reads == []
    else:  # the rows read as those of the table without the fault
        if fault == "quoted newline":
            ids = [rec_id for split in chunked for rec_id in split[1]] if kind == "labels" \
                else chunked[0]
            assert "r0\n18" in ids and "r018" not in ids
        else:
            path.write_text("\n".join(_chunked_lines(kind, 4 * BLOCK_ROWS)) + "\n")
            assert chunked == outcome(read)


@pytest.mark.parametrize("kind, labeled", [("scores", False), ("scores", True),
                                            ("features", False)])
def test_cells_past_the_feature_bound_read_in_c_where_nothing_scores_them(
        tmp_path, monkeypatch, kind, labeled):
    # a score may be any finite value, and read_features hands its vectors to
    # the caller: only evaluate's own read of the features holds the bound
    lines = _chunked_lines(kind, 4 * BLOCK_ROWS)
    lines[FAULT_ROW] = _with_cell(lines[FAULT_ROW], 2, "-1e200")
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    index = _index(tmp_path, labeled, 4 * BLOCK_ROWS)
    small_chunks(monkeypatch, LINE)
    reads = strict_reads(monkeypatch)
    ids, values = _read_table(kind, path, index)
    assert reads == []
    assert values[ids.tolist().index("r018")].tolist() == [18.5, -1e200]


@pytest.mark.parametrize("kind, labeled", TABLES)
def test_crlf_table_reads_as_its_lf_original_in_c(tmp_path, monkeypatch, kind, labeled):
    # a lone CR still goes to csv: see "CR from mid-file" above
    lines = _chunked_lines(kind, 4 * BLOCK_ROWS)
    lf, crlf = tmp_path / f"lf-{kind}.csv", tmp_path / f"crlf-{kind}.csv"
    lf.write_text("\n".join(lines) + "\n")
    crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    index = _index(tmp_path, labeled, 4 * BLOCK_ROWS)

    def read(path):
        return read_labels(path) if kind == "labels" else _read_table(kind, path, index)

    expected = outcome(lambda: read(lf))
    small_chunks(monkeypatch, LINE)
    reads = strict_reads(monkeypatch)
    assert outcome(lambda: read(crlf)) == expected
    assert reads == []


@pytest.mark.parametrize("end", ["\n", ""], ids=["LF", "no LF at the end"])
@pytest.mark.parametrize("cut", [-1, 0, 1, LINE // 2])
def test_label_blocks_hold_whole_lines_where_a_read_stops_mid_line(tmp_path, monkeypatch,
                                                                   cut, end):
    # each block reads _CHUNK_CHARS bytes, here `cut` bytes past the end of its
    # fifth line, and then the rest of the line it stopped in
    lines = _chunked_lines("labels", 4 * BLOCK_ROWS)
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(lines) + end)
    monkeypatch.setattr(io_module, "_CHUNK_CHARS", 5 * LINE + cut)
    monkeypatch.setattr(io_module, "_CHUNK_LINES", 1)
    blocks = _blocks(path)
    assert all(block.endswith(b"\n") for block in blocks)
    assert b"".join(blocks).decode().split("\n") == lines[2:] + [""]
    assert len(blocks[0]) == (5 if cut < 0 else 6) * LINE
    reads = strict_reads(monkeypatch)
    chunked, csv_reads = outcome(lambda: read_labels(path)), list(reads)
    assert csv_reads == []
    assert chunked == strict_outcome(monkeypatch, lambda: read_labels(path))


def _blocks(path):
    rows = io_module._rows(path, chunked=True)
    next(rows)
    return list(rows)


@pytest.mark.parametrize("budget", [None, 4 * io_module._CHUNK_CHARS], ids=["floor", "budget"])
def test_wide_rows_read_on_to_the_line_floor(tmp_path, monkeypatch, budget):
    # a feature line of d = 64 float reprs takes about 1.2 KB, so _CHUNK_CHARS
    # bytes hold about 100: a block reads on, _CHUNK_CHARS bytes and the rest of
    # a line at a time, until it holds _CHUNK_LINES lines or _BLOCK_BYTES bytes
    path = tmp_path / "features.csv"
    write_features(path, [f"r{i:04d}" for i in range(3000)],
                   np.random.default_rng(7).standard_normal((3000, 64)))
    if budget:
        monkeypatch.setattr(io_module, "_BLOCK_BYTES", budget)
    blocks = _blocks(path)
    assert b"".join(blocks) == path.read_bytes().split(b"\n", 2)[2]
    lines = [block.count(b"\n") for block in blocks]
    assert sum(lines) == 3000 and all(block.endswith(b"\n") for block in blocks)
    if budget:  # four reads, each of _CHUNK_CHARS bytes and at most a line of 1.6 KB
        assert all(budget <= len(block) < budget + 4 * 1_600 for block in blocks[:-1])
        assert max(lines) < io_module._CHUNK_LINES
    else:  # each line takes over 1 KB, so the last read added at most this many lines
        limit = io_module._CHUNK_LINES + io_module._CHUNK_CHARS // 1_000
        assert all(io_module._CHUNK_LINES <= count <= limit for count in lines[:-1])


def test_score_rows_of_the_benchmark_width_keep_their_block_bounds(tmp_path):
    # the score-table benchmark's lines take 88 bytes, so _CHUNK_CHARS bytes
    # hold about 1,490 of them, past the floor: each block is _CHUNK_CHARS bytes
    # and the rest of the line it stops in, as before the reader had a floor
    rng = np.random.default_rng(88)
    lines = [f"r{i:06d}," + ",".join(f"{x:.5f}" for x in row) + "\n"
             for i, row in enumerate(rng.random((20_000, 10)).tolist())]
    assert {len(line) for line in lines} == {88}
    path = tmp_path / "scores.csv"
    path.write_text(f"{FORMAT_LINE}\n{_header('scores', 10)}\n" + "".join(lines))
    data, bounds, start = "".join(lines).encode(), [], 0
    while start < len(data):
        start = data.find(b"\n", start + io_module._CHUNK_CHARS) + 1 or len(data)
        bounds.append(start)
    blocks = _blocks(path)
    assert np.cumsum([len(block) for block in blocks]).tolist() == bounds
    assert len(bounds) == 14 and b"".join(blocks) == data


@pytest.mark.parametrize("variant", ["CRLF", "BOM", "domain column", "true and false", "all"])
def test_label_table_variants_read_as_the_plain_table_without_csv(tmp_path, monkeypatch,
                                                                  variant):
    header = ["recording_id", "true_machine", "is_anomaly", "split"]
    rows = [[f"r{i:03d}", "fan" if i % 2 else "pump", str(i // 2 % 2), SPLITS[i % 2]]
            for i in range(4 * BLOCK_ROWS)]
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join([FORMAT_LINE, ",".join(header), *map(",".join, rows)]) + "\n")
    if variant in ("domain column", "all"):
        header.append("domain")
        rows = [row + ["source" if i % 3 else ""] for i, row in enumerate(rows)]
    if variant in ("true and false", "all"):
        rows = [row[:2] + [["false", "true"][int(row[2])]] + row[3:] for row in rows]
    end = "\r\n" if variant in ("CRLF", "all") else "\n"
    path = tmp_path / "labels.csv"
    path.write_bytes((b"\xef\xbb\xbf" if variant in ("BOM", "all") else b"")
                     + (end.join([FORMAT_LINE, ",".join(header), *map(",".join, rows)])
                        + end).encode())
    expected = outcome(lambda: read_labels(plain))
    small_chunks(monkeypatch, LINE)
    reads = strict_reads(monkeypatch)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "labels.csv: ignoring unknown label columns")
        assert outcome(lambda: read_labels(path)) == expected
    assert reads == []  # csv never read the table


@pytest.mark.parametrize("block", [
    b"a,1\nb,2,3\nc\n",  # the comma total of three lines, one of them without a comma
    b"a,1\n\nb,2,3\n",  # a blank line
    b"a,1\rb,2\n",  # a lone CR
    b'"a",1\n',  # a quote
    b"a,\x1f1\n",  # a byte numpy reads as white space
    "\xe9,1\n".encode(),  # a byte outside ASCII
    b"a" * 131_072 + b",1\n",  # a line past csv's field limit
], ids=["commas", "blank line", "lone CR", "quote", "gate byte", "non-ASCII", "long line"])
def test_gate_turns_down_a_block_that_csv_might_read_otherwise(block):
    with pytest.raises(ValueError):
        io_module._gate(block, 2)


def test_gate_reads_crlf_as_lf_and_bounds_every_field():
    data, bounds = io_module._gate(b"ab,1,\r\nc,,23\r\n", 3)
    assert data.tobytes() == b"ab,1,\nc,,23\n"
    assert bounds.tolist() == [[-1, 2, 4, 5], [5, 7, 8, 11]]


JOIN_ROW = FAULT_ROW - 2  # data row 18, the third row of the third chunk


def _turned(rows):
    return rows[::-1]


def _at_join_row(rows, *lines):
    return rows[:JOIN_ROW] + list(lines) + rows[JOIN_ROW + 1:]


# each case gives the data rows of the labels and of the table, from data rows
# of both in id order (r000, r001, ...); the table leaves label order at chunk 3
JOINS = {
    "label order": (list, list),
    "leaves it at chunk 3": (list, lambda rows: _at_join_row(rows) + [rows[JOIN_ROW]]),
    "reversed": (list, _turned),
    "splits out of id order": (_turned, _turned),
    "repeat of an aligned id": (list, lambda rows: _at_join_row(
        rows, _with_id(rows[JOIN_ROW], "r003"))),
    "unlabeled id": (list, lambda rows: _at_join_row(rows, _with_id(rows[JOIN_ROW], "x018"))),
    "missing labeled id": (list, _at_join_row),
    "unlabeled id after the last": (list, lambda rows: rows + [_with_id(rows[-1], "x032")]),
}
JOIN_FAULTS = ("repeat of an aligned id", "unlabeled id", "missing labeled id",
               "unlabeled id after the last")


@pytest.mark.parametrize("kind", ["scores", "features"])
@pytest.mark.parametrize("case", JOINS)
def test_label_order_join_reads_as_the_id_dict_reads(tmp_path, monkeypatch, kind, case):
    label_rows_of, table_rows_of = JOINS[case]
    labels, path = tmp_path / "labels.csv", tmp_path / f"{kind}.csv"
    header, *rows = _chunked_lines("labels", 4 * BLOCK_ROWS)[1:]
    labels.write_text("\n".join([FORMAT_LINE, header, *label_rows_of(rows)]) + "\n")
    header, *rows = _chunked_lines(kind, 4 * BLOCK_ROWS)[1:]
    path.write_text("\n".join([FORMAT_LINE, header, *table_rows_of(rows)]) + "\n")
    sets = read_labels(labels)
    small_chunks(monkeypatch, LINE)
    joined = outcome(lambda: _read_table(kind, path, sets))
    assert joined == strict_outcome(monkeypatch, lambda: _read_table(kind, path, sets))
    assert (joined[0] in ("FormatError", "ProtocolError")) == (case in JOIN_FAULTS)
    if case not in JOIN_FAULTS:  # oracle: each row at its id's row of a plain {id: row}
        order = [rec_id for merged in sets.values() for rec_id in merged.ids.tolist()]
        lookup, values = dict(zip(order, count())), np.full((len(order), 2), np.nan)
        for line in table_rows_of(rows):
            rec_id, *cells = line.split(",")
            values[lookup[rec_id]] = list(map(float, cells))
        assert joined == [order, values.view(np.uint64).tolist()]


# NUL, DEL, two-byte and astral characters: numpy's StringDType compares ids
# holding NUL wrongly, and a non-ASCII id sends its chunk to csv
_ID_CHARS = st.sampled_from(["\x00", "\x7f", "a", "b", "\xe9", "\u03b1", "\U0001f600",
                             "\U0010ffff"])


def _key(rec_id):
    """An id's key as the csv path builds it: its UTF-8 bytes, each raised by one."""
    return rec_id.encode().translate(protocol_module._RAISED)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(["", "p" * 16]), st.text(_ID_CHARS, min_size=1,
                                                                   max_size=6)).map("".join),
                min_size=1, max_size=12))
@example(["x\x00", "x", "x\x00\x00", "\x00", "p" * 16 + "b", "p" * 16 + "a", "p" * 16])
def test_id_keys_order_and_match_as_the_ids_do(ids):
    # the key of an id orders and matches as the id does as a Python string, in
    # a NUL-padded bytes column too (which drops trailing NULs and in which
    # StringDType's 16-byte searchsorted fault does not arise); an ASCII id's key
    # from the byte reader's gate is the key csv's path gives it
    keys = [_key(rec_id) for rec_id in ids]
    column = np.array(keys, "S")
    ranked = sorted(ids)
    assert sorted(keys) == [_key(rec_id) for rec_id in ranked]
    assert [ids[i] for i in np.argsort(column, kind="stable")] == ranked
    assert (column[:, None] < column).tolist() == [[a < b for b in ids] for a in ids]
    assert (column[:, None] == column).tolist() == [[a == b for b in ids] for a in ids]
    assert np.searchsorted(np.sort(column), column).tolist() == [
        bisect_left(ranked, rec_id) for rec_id in ids]
    assert protocol_module._ids(np.array(keys, object)).tolist() == ids
    assert protocol_module._keys(np.array(ids, np.dtypes.StringDType())).tolist() == keys
    plain = [rec_id for rec_id in ids if rec_id.isascii()]
    if plain:
        data, bounds = io_module._gate("".join(f"{rec_id},1\n" for rec_id in plain).encode(), 2)
        gated = io_module._cells(data + 1, bounds[:, 0] + 1, bounds[:, 1])
        assert gated.tolist() == [_key(rec_id) for rec_id in plain]
        assert protocol_module._ids(gated).tolist() == plain


@st.composite
def _labeled_ids(draw):
    """(id, split) rows of a label file: distinct ids, some an extension of
    another (so "a" and "a\x00" often meet), in id order or not, all of them
    perhaps after one prefix that takes them to 16 bytes or more."""
    ids = draw(st.lists(st.text(_ID_CHARS, min_size=1, max_size=4), min_size=1, max_size=20))
    ids += [rec_id + draw(st.text(_ID_CHARS, min_size=1, max_size=2))
            for rec_id in ids if draw(st.booleans())]
    prefix = draw(st.sampled_from(["", "p" * 16, "rec-" * 5]))
    ids = [prefix + rec_id for rec_id in ids]
    ids = draw(st.permutations(list(dict.fromkeys(ids))))
    if draw(st.booleans()):
        ids = sorted(ids)
    return [(rec_id, draw(st.sampled_from(SPLITS))) for rec_id in ids]


@settings(max_examples=200, deadline=None)
@given(_labeled_ids(), st.sampled_from(["scores", "features"]), st.booleans(), st.booleans())
@example([("x\x00", "dev"), ("x", "dev"), ("x\x00\x00", "eval")], "scores", False, False)
@example([("p" * 16 + "b", "dev"), ("p" * 16 + "a", "dev"), ("p" * 16, "eval")], "features",
         True, False)
@example([("p" * 16 + "b", "dev"), ("p" * 16 + "a", "dev"), ("p" * 16, "eval"), ("a", "dev")],
         "scores", True, True)
@example([("x\x00", "dev"), ("x", "dev"), ("x\x00\x00", "eval"), ("x\x00a", "dev")],
         "features", False, True)
def test_label_join_orders_and_matches_ids_as_python_strings(tmp_path_factory, labeled, kind,
                                                             reversed_table, labels_by_csv):
    # oracle: sorted() per split and a plain {id: row} of the ids as str; the
    # table lists the label file's rows in its order or reversed. An ASCII label
    # file is read by the byte reader alone, unless `labels_by_csv` sends it to
    # csv, and reads as csv reads it. An ASCII table is then read by the byte
    # reader, joined to labels of either reader, and by csv, joined to them too
    labels = [f"{rec_id},m{i % 2},{i % 3 == 0:d},{split}" for i, (rec_id, split)
              in enumerate(labeled)]
    rows = [f"{rec_id},{i}.0,-{i}.5" for i, (rec_id, _) in enumerate(labeled)]
    header = "recording_id," + ("m0,m1" if kind == "scores" else "f_0,f_1")
    texts = ["\n".join([FORMAT_LINE, "recording_id,true_machine,is_anomaly,split", *labels]),
             "\n".join([FORMAT_LINE, header, *(rows[::-1] if reversed_table else rows)])]
    # Python 3.10's csv refuses NUL, and a non-ASCII line is read by csv
    assume(sys.version_info >= (3, 11) or all(text.isascii() or "\x00" not in text
                                              for text in texts))
    assume(sys.version_info >= (3, 11) or not labels_by_csv or "\x00" not in texts[0])
    directory = tmp_path_factory.mktemp("join")
    label_path, path = directory / "labels.csv", directory / f"{kind}.csv"
    label_path.write_text(texts[0] + "\n", encoding="utf-8")
    path.write_text(texts[1] + "\n", encoding="utf-8")
    row_of = {rec_id: i for i, (rec_id, _) in enumerate(labeled)}
    expected = {split: sorted(rec_id for rec_id, where in labeled if where == split)
                for split in SPLITS}
    order = [rec_id for split in SPLITS for rec_id in expected[split]]
    with pytest.MonkeyPatch.context() as monkeypatch:
        small_chunks(monkeypatch, LINE)
        reads = strict_reads(monkeypatch)
        with monkeypatch.context() as patch:
            if labels_by_csv:
                strict_only(patch)
            sets = read_labels(label_path)
        assert (reads == []) == (texts[0].isascii() and not labels_by_csv)
        if sys.version_info >= (3, 11) or "\x00" not in texts[0]:
            assert outcome(lambda: sets) == strict_outcome(monkeypatch,
                                                           lambda: read_labels(label_path))
        reads.clear()
        ids, values = _read_table(kind, path, sets)
        assert (reads == []) == texts[1].isascii()
        strict = strict_outcome(monkeypatch, lambda: _read_table(kind, path, sets))
    assert {split: merged.ids.tolist() for split, merged in sets.items()} == {
        split: split_ids for split, split_ids in expected.items() if split_ids}
    assert [(rec.id, rec.true_machine, rec.is_anomaly) for merged in sets.values()
            for rec in merged.recordings] == [
        (rec_id, f"m{row_of[rec_id] % 2}", row_of[rec_id] % 3 == 0) for rec_id in order]
    assert ids.dtype == np.dtypes.StringDType() and ids.tolist() == order
    assert values.tolist() == [[row_of[rec_id], -row_of[rec_id] - 0.5] for rec_id in order]
    assert strict == outcome(lambda: (ids, values))


@pytest.mark.parametrize("kind", ["scores", "features"])
@pytest.mark.parametrize("labeled_id, table_id", [("\x00a", "\x00b"), ("a\x00b", "a\x00c"),
                                                  ("ab", "abc")])
def test_label_order_join_tells_apart_ids_numpy_calls_equal(tmp_path, kind, labeled_id,
                                                            table_id):
    # numpy 2.4's StringDType == calls the first two pairs equal: same length,
    # same up to a NUL; cast to the labels' 2-byte column, the third pair is equal
    labels, path = tmp_path / "labels.csv", tmp_path / f"{kind}.csv"
    labels.write_text(f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\n"
                      f"a,fan,0,dev\n{labeled_id},fan,1,dev\nz,fan,0,dev\n")
    header = "recording_id," + ("m0" if kind == "scores" else "f_0")
    path.write_text(f"{FORMAT_LINE}\n{header}\na,1.0\n{table_id},2.0\nz,3.0\n")
    sides = [f"1 {kind[:-1]} rows without labels [{table_id!r}]",
             f"1 labeled recordings without {kind} [{labeled_id!r}]"]
    sides = sides if kind == "scores" else sides[::-1]
    with pytest.raises(ProtocolError, match=re.escape(f"{kind}/labels cross-reference mismatch: "
                                                      f"{sides[0]}, {sides[1]}")):
        _read_table(kind, path, read_labels(labels))


def _quoted(line, column):
    return _with_cell(line, column, f'"{line.split(",")[column]}"')


def _id(line):
    return line.partition(",")[0]


def _at(rows, i, *lines):
    return rows[:i] + list(lines) + rows[i + 1:]


# edits of the data rows of a _chunked_lines table at row i, valid or faulted;
# in a label table, rows of the same parity share a split
EDITS = {
    "repeat in split": lambda rows, i: _at(rows, i, _with_id(rows[i], _id(rows[i - 2]))),
    "repeat across splits": lambda rows, i: _at(rows, i, _with_id(rows[i], _id(rows[i - 1]))),
    "row twice": lambda rows, i: _at(rows, i, rows[i], rows[i]),
    "quoted id": lambda rows, i: _at(rows, i, _quoted(rows[i], 0)),
    "quoted cell": lambda rows, i: _at(rows, i, _quoted(rows[i], 1)),
    "id holding a comma": lambda rows, i: _at(rows, i, _with_id(rows[i], f'"{_id(rows[i])},x"')),
    "lone CR": lambda rows, i: rows[:i] + ["\r".join(rows[i:i + 2])] + rows[i + 2:],
    "CRLF line end": lambda rows, i: _at(rows, i, rows[i] + "\r"),
    "blank line": lambda rows, i: _at(rows, i, "", rows[i]),
    "non-finite cell or bad label": lambda rows, i: _at(rows, i, _with_cell(rows[i], 2, "inf")),
    "unlabeled id": lambda rows, i: _at(rows, i, _with_id(rows[i], "x" + _id(rows[i]))),
    "empty id": lambda rows, i: _at(rows, i, _with_id(rows[i], "")),
    "missing labeled id": lambda rows, i: _at(rows, i),
    "reversed": lambda rows, i: rows[::-1],
}


@st.composite
def _edited_tables(draw):
    """A table kind, how it is read and its text, of 1 to 5 chunks of rows
    r000, r001, ... with one to three edits, most of them deep in the file."""
    kind, labeled = draw(st.sampled_from(TABLES))
    n = draw(st.integers(1, 5 * BLOCK_ROWS))
    header, rows = _chunked_lines(kind, n)[:2], _chunked_lines(kind, n)[2:]
    for edit in draw(st.lists(st.sampled_from(sorted(EDITS)), min_size=1, max_size=3)):
        # at a row with cells, not at a blank line
        if len(rows) > 2 and "," in rows[at := draw(st.integers(2, len(rows) - 1))]:
            rows = EDITS[edit](rows, at)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return kind, labeled, n, end.join(header + rows) + end


@settings(max_examples=300)  # a few ms each; fewer let single faults slip through
@given(_edited_tables())
def test_c_then_csv_reads_as_csv_alone(tmp_path_factory, table):
    # the C path reads a table all or nothing, and a table it leaves is read
    # again whole by csv, so the reads match csv alone in ids, values and errors
    kind, labeled, n, text = table
    path = tmp_path_factory.mktemp("table") / f"{kind}.csv"
    path.write_bytes(text.encode())
    index = _index(path.parent, labeled, n)

    def read():
        return read_labels(path) if kind == "labels" else _read_table(kind, path, index)

    with pytest.MonkeyPatch.context() as monkeypatch:
        small_chunks(monkeypatch, LINE)
        assert outcome(read) == strict_outcome(monkeypatch, read)


# the cell around which _CELLS pads characters that may sit next to a number
_CELLS = st.one_of(
    st.text(alphabet="0123456789+-.eE_", max_size=12),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "infinity", "1e400",
                     "-1e-400", "0x10", "1d5"]),
    st.floats().map(repr),
    st.integers(0, 10**17 - 1).map(lambda m: f"0.{m:017d}"),
)
# csv syntax (comma, quote, line ends) is left out: it changes the table, not the cell
_PADDING = st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x3000,
                                          blacklist_characters=',"\n\r'), max_size=3)


@given(_PADDING, _CELLS, _PADDING)
@example("\x1c", "1", "")
@example("", "1", "\x1c")
@example("", "1e1_0", "")
@example("\x00", "1", "")
@example("\u3000", "1", "\xa0")
def test_a_cell_reads_as_float_reads_it(tmp_path_factory, before, cell, after):
    text = before + cell + after
    path = tmp_path_factory.mktemp("cell") / "scores.csv"
    path.write_text(f"{FORMAT_LINE}\nrecording_id,fan\nr1,{text}\n", encoding="utf-8")
    chunked = outcome(lambda: read_scores(path)[2])
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert chunked == strict_outcome(monkeypatch, lambda: read_scores(path)[2])
    if isinstance(chunked, list):
        assert chunked == [[np.float64(float(text)).view(np.uint64)]]


@pytest.mark.parametrize("rec_id, cell, result", [
    ("r016", "\x1c1", "fan value '\\x1c1' is not a number"),
    ("r016", "1\x1c", "fan value '1\\x1c' is not a number"),
    ("r016", "1e1_0", 1e10),
    ("r016", "\uff11\uff12", 12.0),
    ("r" * 200_000, "1", "field larger than field limit (131072)"),
], ids=["separator-before", "separator-after", "underscore", "fullwidth", "long-id"])
def test_cells_the_gate_sends_to_csv_read_as_float_reads_them(tmp_path, monkeypatch, rec_id,
                                                              cell, result):
    # the row is the first of the third chunk; loadtxt reads the first two cells
    # as 1.0 and turns down the rest, which float() (or csv) reads
    lines = [FORMAT_LINE, "recording_id,fan",
             *(_line(LINE, f"r{i:03d}", f"{i}.5") for i in range(4 * BLOCK_ROWS))]
    lines[2 + 2 * BLOCK_ROWS] = f"{rec_id},{cell}"
    path = tmp_path / "scores.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    small_chunks(monkeypatch, LINE)
    chunked = outcome(lambda: read_scores(path)[2][2 * BLOCK_ROWS])
    assert chunked == strict_outcome(monkeypatch, lambda: read_scores(path)[2][2 * BLOCK_ROWS])
    if isinstance(result, str):
        assert chunked == ("FormatError", f"scores.csv:19: {result}")
    else:
        assert chunked == [np.float64(result).view(np.uint64)]


def test_fixtures_read_the_same_through_c_and_csv(tmp_path, monkeypatch):
    golden = Path(__file__).parent / "data" / "golden"
    labels = golden / "labels.csv"
    references, merged = generate(SimConfig(k=2, d=3, n_ref=6, n_norm=8, n_anom=4, seed=9))
    write_features(tmp_path / "features.csv", merged.ids, merged.features)
    write_features(tmp_path / "reference.csv", [f"ref{i}" for i in range(6)],
                   next(iter(references.values())).vectors)
    write_labels(tmp_path / "labels.csv", merged.recordings)
    score_sets, feature_sets = read_labels(labels), read_labels(tmp_path / "labels.csv")
    reads = [
        lambda: read_scores(golden / "scores.csv"),
        lambda: _read_table("scores", golden / "scores.csv", score_sets),
        lambda: read_labels(labels),
        lambda: read_labels(tmp_path / "labels.csv"),
        lambda: read_features(tmp_path / "features.csv"),
        lambda: _read_table("features", tmp_path / "features.csv", feature_sets),
        lambda: read_features(tmp_path / "reference.csv"),
    ]
    strict = strict_reads(monkeypatch)
    chunked = [outcome(read) for read in reads]
    assert strict == []  # the C path read every fixture
    assert chunked == [strict_outcome(monkeypatch, read) for read in reads]
    assert len(strict) == len(reads)  # and csv every one
    assert not any(result[0] in ("FormatError", "ProtocolError") for result in chunked)
    # oracle: a joined read is the file-order read, each row at its id's row of {id: row}
    for sets, plain, joined in [(score_sets, chunked[0][1:3], chunked[1]),
                                (feature_sets, chunked[4], chunked[5])]:
        ids = [rec_id for merged in sets.values() for rec_id in merged.ids.tolist()]
        lookup = dict(zip(ids, count()))
        placed = [None] * len(lookup)
        for rec_id, row in zip(*plain):
            placed[lookup[rec_id]] = row
        assert joined == [ids, placed]


def test_read_scores_memory_is_bounded_by_the_block(tmp_path):
    # the text of a 50,000 x 10 table takes ~35 MB as Python strings; held
    # one block at a time, the peak (~8.7 MB) is the values and the ids, which
    # do not increase ("r10" sorts before "r2") and so are sorted once, as keys
    matrix = np.random.default_rng(3).standard_normal((50_000, 10))
    path = tmp_path / "scores.csv"
    write_scores(path, [f"m{j}" for j in range(10)],
                 {f"r{i}": row for i, row in enumerate(matrix)})
    (_, _, back, _), _, peak = traced(lambda: read_scores(path))
    assert np.array_equal(back, matrix)
    assert peak < 16_000_000


def test_read_labels_holds_at_most_14_bytes_per_id(tmp_path):
    # what stays is the ids' 9-byte keys, one column of which each set holds a
    # slice, a 1-byte machine code and a 1-byte label per id, 11.6 bytes
    # measured; no StringDType id column (16 bytes a slot, 27.7 bytes per id
    # with it) is built until an id is read. Ids held as str objects and lists
    # of them took about 100 (19.0 MiB at 200,000)
    path = tmp_path / "labels.csv"
    write_labels(path, [Recording(f"rec{i:06d}", f"m{i % 10}", i % 4 == 0, SPLITS[i % 2])
                        for i in range(50_000)])
    sets, held, _ = traced(lambda: read_labels(path))
    assert [len(merged.keys) for merged in sets.values()] == [25_000, 25_000]
    assert held <= 14 * 50_000


def test_read_labels_peaks_at_26_bytes_per_id(tmp_path):
    # at its peak the read holds the blocks' parts and the columns they are
    # placed in, about 12 bytes an id each, and one block's transients: 23.7
    # bytes per id measured. Concatenating the parts and gathering each column
    # through one permutation over the whole file (8 bytes an id) took 28.5,
    # and two whole-file argsorts with their gathers 36.4
    n = 200_000
    path = tmp_path / "labels.csv"
    path.write_text(f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\n" + "".join(
        f"rec{i:06d},m{i % 10},{int(i % 4 == 0)},{SPLITS[i % 2]}\n" for i in range(n)))
    sets, _, peak = traced(lambda: read_labels(path))
    assert [len(merged.keys) for merged in sets.values()] == [n // 2, n // 2]
    assert peak <= 26 * n


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_label_order_read_returns_the_label_id_column(tmp_path, monkeypatch, kind):
    # the labels, and evaluate --scores on them, hold the ids' keys alone: on
    # files that match, no id is decoded. A score or feature table joined to
    # the labels' order gives the labels' ids in label order
    labels, path = tmp_path / "labels.csv", tmp_path / f"{kind}.csv"
    write_labels(labels, [Recording(f"r{i:03d}", f"m{i % 3}", i % 4 < 2, SPLITS[i % 2])
                          for i in range(40)])
    _write_table(kind, path, [f"r{i:03d}" for i in range(40)][::-1],
                 np.arange(120.0).reshape(40, 3))
    decoded, decode = [], protocol_module._ids

    def counted(keys):
        decoded.append(len(keys))
        return decode(keys)

    monkeypatch.setattr(protocol_module, "_ids", counted)
    monkeypatch.setattr(io_module, "_ids", counted)
    sets = read_labels(labels)
    if kind == "scores":
        assert main(["evaluate", "--scores", str(path), "--labels", str(labels),
                     "--out", str(tmp_path / "report.json")]) == 0
    assert decoded == []
    ids, _ = _read_table(kind, path, sets)
    expected = [f"r{i:03d}" for split in (0, 1) for i in range(split, 40, 2)]
    assert ids.tolist() == [rec_id for merged in sets.values()
                            for rec_id in merged.ids.tolist()] == expected


# ids that numpy's StringDType compares or sorts wrongly, or that its cast
# from bytes cuts short: with NUL (a trailing NUL too) and of 16 bytes or more;
# CSV_IDS, outside ASCII, take the csv path
ASCII_IDS = ["a\x00", "a", "\x00b", "ab\x00\x00", "p" * 16, "q" * 20 + "\x00", "a\x00b"]
CSV_IDS = ["\xe9t\xe9", "\x00\U0001f600", "\x00\u03b1\u03b1", "\u03b1" * 9]


@pytest.mark.parametrize("by_csv", [False, True], ids=["c", "csv"])
def test_ids_decoded_from_the_keys_read_as_written(tmp_path, monkeypatch, by_csv):
    # on either path, a set's ids are its keys decoded when first read: they
    # read as written, and a mismatch names them as the str ids always did
    if by_csv and sys.version_info < (3, 11):
        pytest.skip("Python 3.10's csv refuses NUL")
    ids = ASCII_IDS + (CSV_IDS if by_csv else [])
    labels, scores = tmp_path / "labels.csv", tmp_path / "scores.csv"
    labels.write_text("\n".join([FORMAT_LINE, "recording_id,true_machine,is_anomaly,split",
                                 *(f"{rec_id},fan,{i % 2},dev" for i, rec_id in enumerate(ids))])
                      + "\n", encoding="utf-8")
    scores.write_text(f"{FORMAT_LINE}\nrecording_id,fan\n{ids[1]},1.0\n", encoding="utf-8")
    reads = strict_reads(monkeypatch)
    sets = read_labels(labels)
    assert reads == (["labels.csv"] if by_csv else [])
    assert sets["dev"].ids.tolist() == sorted(ids)
    missing = sorted(set(ids) - {ids[1]})
    with pytest.raises(ProtocolError) as raised:
        _read_table("scores", scores, sets)
    assert str(raised.value) == (
        f"scores/labels cross-reference mismatch: 0 score rows without labels [], "
        f"{len(missing)} labeled recordings without scores {missing}")


def test_read_labels_memory_is_bounded_by_the_chunk(tmp_path):
    # 50,000 rows peak at ~1.8 MB: these ids do not increase in file order
    # ("r10" sorts before "r2"), so they are sorted, as one column of keys of at
    # most 6 bytes each, while the result (~0.4 MB, the keys and two byte
    # columns) is built; a 128 KiB block's arrays add little. Sorted as str
    # objects, the peak was 6.9 MB
    path = tmp_path / "labels.csv"
    write_labels(path, [Recording(f"r{i}", f"m{i % 10}", i % 4 == 0, SPLITS[i % 2])
                        for i in range(50_000)])
    sets, _, peak = traced(lambda: read_labels(path))
    assert [len(merged.ids) for merged in sets.values()] == [25_000, 25_000]
    assert peak < 3_300_000


def test_one_long_id_sends_the_labels_to_csv_not_to_a_padded_bytes_column(tmp_path,
                                                                           monkeypatch):
    # padded to the one id of 100,000 bytes, 20,000 ids would take 2 GB as a
    # bytes column: the byte reader turns the table down, and csv reads it
    path = tmp_path / "labels.csv"
    recordings = [Recording(f"r{i:05d}", "fan", i % 2 == 0, "dev") for i in range(20_000)]
    write_labels(path, recordings[:12_000] + [Recording("x" * 100_000, "fan", True, "eval")]
                 + recordings[12_000:])
    reads = strict_reads(monkeypatch)
    sets, _, peak = traced(lambda: read_labels(path))
    assert reads == ["labels.csv"]
    assert sets["dev"].ids.tolist() == [rec.id for rec in recordings]
    assert sets["eval"].ids.tolist() == ["x" * 100_000]
    assert peak < 10_000_000  # ~6.2 MB


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_one_long_id_sends_a_table_to_csv_not_to_a_padded_bytes_column(tmp_path, monkeypatch,
                                                                       kind):
    # as with the labels: padded to the one id of 100,000 bytes, a block's 12,000
    # or so keys would take 1.2 GB, and all 20,000 of them 2 GB
    path = tmp_path / f"{kind}.csv"
    ids = [f"r{i:05d}" for i in range(20_000)]
    ids.insert(12_000, "x" * 100_000)
    _write_table(kind, path, ids, np.ones((len(ids), 1)))
    reads = strict_reads(monkeypatch)
    (back_ids, values), _, peak = traced(lambda: _read_table(kind, path))
    assert reads == [path.name]
    assert back_ids.tolist() == ids and values.tolist() == [[1.0]] * len(ids)
    assert peak < 10_000_000  # ~6.6 MB


@pytest.mark.parametrize("odd_id", ["a\x0cb", "a\x1cb", "a\x1db", "a\x1eb", "a\x85b",
                                    "a\u2028b", "a\u2029b", "a\x0bb"])
def test_ids_with_unicode_line_breaks_roundtrip(tmp_path, odd_id):
    # only LF, CRLF and CR end a line; str.splitlines would also break at these
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording(odd_id, "fan", True, "dev"), Recording("z", "fan", False, "dev")])
    assert read_labels(labels)["dev"].ids.tolist() == [odd_id, "z"]
    scores = tmp_path / "scores.csv"
    write_scores(scores, ["fan"], {odd_id: [1.0], "z": [2.0]})
    assert read_scores(scores)[1].tolist() == [odd_id, "z"]


def test_quoted_field_spans_lines_and_later_errors_name_the_physical_line(tmp_path):
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording("a\nb", "fan", True, "dev"), Recording("c", "fan", False, "dev")])
    assert read_labels(labels)["dev"].ids.tolist() == ["a\nb", "c"]
    labels.write_text(
        f'{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\n'
        f'"a\nb",fan,1,dev\nc,fan,1,dev\nd,fan,yes,dev\n'
    )
    with pytest.raises(FormatError, match=r"^labels\.csv:6: is_anomaly"):
        read_labels(labels)
    scores = tmp_path / "scores.csv"
    scores.write_text(f'{FORMAT_LINE}\nrecording_id,fan\n"a\n\nb",1.0\nc,oops\n')
    with pytest.raises(FormatError, match=r"^scores\.csv:6: fan value 'oops'"):
        read_scores(scores)


# ---------------------------------------------------------------------------
# labels


def test_labels_read_as_one_set_per_split(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\n"
        f"e2,pump,1,eval\nd2,fan,0,dev\ne1,fan,0,eval\nd1,pump,1,dev\n"
    )
    sets = read_labels(path)
    assert list(sets) == ["dev", "eval"]
    assert sets["dev"].machines is sets["eval"].machines
    assert sets["dev"].machines == ["pump", "fan"]
    assert label_rows(sets) == [
        ("d1", "pump", True, "dev"), ("d2", "fan", False, "dev"),
        ("e1", "fan", False, "eval"), ("e2", "pump", True, "eval"),
    ]


def test_labels_domain_column_is_ignored(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\n"
        f"r2,fan,1,dev\nr1,pump,0,eval\nr3,pump,0,dev\n"
    )
    path = tmp_path / "labels.csv"
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split,domain\n"
        f"r2,fan,1,dev,source\nr1,pump,0,eval,indoor\nr3,pump,0,dev,\n"
    )
    with pytest.warns(UserWarning) as caught:
        sets = read_labels(path)
    assert [str(w.message) for w in caught] == [
        "labels.csv: ignoring unknown label columns ['domain']"
    ]
    expected = read_labels(plain)
    assert list(sets) == list(expected) == ["dev", "eval"]
    for split, merged in sets.items():
        assert merged.ids.tolist() == expected[split].ids.tolist()
        assert merged.machines == expected[split].machines
        assert np.array_equal(merged.true_machine, expected[split].true_machine)
        assert np.array_equal(merged.is_anomaly, expected[split].is_anomaly)


def test_labels_read_again_by_csv_warn_once(tmp_path):
    # the quoted id fails the C path's gate, so csv reads the whole file again
    path = tmp_path / "labels.csv"
    path.write_text(f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split,domain\n"
                    f'r1,fan,1,dev,source\n"r2",pump,0,dev,indoor\n')
    with pytest.warns(UserWarning) as caught:
        sets = read_labels(path)
    assert [str(w.message) for w in caught] == [
        "labels.csv: ignoring unknown label columns ['domain']"
    ]
    assert sets["dev"].ids.tolist() == ["r1", "r2"]


def test_labels_roundtrip_without_domain(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels(path, [Recording("r1", "fan", True, "eval")])
    assert label_rows(read_labels(path)) == [("r1", "fan", True, "eval")]


def test_labels_accepts_wordy_booleans(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\n"
        f"r1,fan,true,dev\nr2,fan,false,dev\n"
    )
    assert read_labels(path)["dev"].is_anomaly.tolist() == [True, False]


def test_labels_accept_utf8_byte_order_mark(tmp_path):
    plain = tmp_path / "plain.csv"
    write_labels(plain, [Recording("r1", "fan", True, "eval"),
                         Recording("r2", "pump", False, "dev")])
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())

    assert label_rows(read_labels(bom)) == label_rows(read_labels(plain))
    # digests hash the bytes as stored, mark included
    assert file_digest(bom, "labels")["sha256"] != file_digest(plain, "labels")["sha256"]


def test_labels_rejects_bad_is_anomaly(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\nr1,fan,yes,dev\n"
    )
    with pytest.raises(FormatError, match=r"labels\.csv:3.*is_anomaly"):
        read_labels(path)


def test_labels_rejects_empty_true_machine(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\nr1,fan,0,dev\nr2,,1,dev\n"
    )
    with pytest.raises(FormatError, match=r"^labels\.csv:4: empty true_machine$"):
        read_labels(path)


def test_labels_rejects_bad_split_with_line_number(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\nr1,fan,0,test\n"
    )
    with pytest.raises(FormatError, match=r"labels\.csv:3.*split"):
        read_labels(path)


@pytest.mark.parametrize("body, message", [
    ("recording_id,machine,is_anomaly,split\nr1,fan,0,dev\n",
     r"^labels\.csv:2: header must start with recording_id,true_machine,is_anomaly,split$"),
    ("recording_id,true_machine,is_anomaly,split\n", r"^labels\.csv: no label rows$"),
], ids=["wrong header", "no rows"])
def test_labels_rejects_a_wrong_header_and_no_rows(tmp_path, body, message):
    path = tmp_path / "labels.csv"
    path.write_text(f"{FORMAT_LINE}\n{body}")
    with pytest.raises(FormatError, match=message):
        read_labels(path)


def test_labels_warns_on_unknown_columns(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split,domain,notes\n"
        f"r1,fan,0,dev,source,hello\n"
    )
    with pytest.warns(UserWarning, match="notes"):
        back = read_labels(path)
    assert label_rows(back) == [("r1", "fan", False, "dev")]


def test_labels_rejects_duplicates_and_empties(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\n"
        f"r1,fan,0,dev\nr1,fan,1,dev\n"
    )
    with pytest.raises(FormatError, match="duplicate"):
        read_labels(path)
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\n,fan,0,dev\n"
    )
    with pytest.raises(FormatError, match="empty"):
        read_labels(path)


def test_labels_report_row_structure_before_values(tmp_path):
    # the whole file streams through the row checks before a bad value is reported
    path = tmp_path / "labels.csv"
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split\n"
        f"r1,fan,yes,dev\nr2,fan,0,test\nr1,fan,0,dev\n"
    )
    with pytest.raises(FormatError, match=r"^labels\.csv:5: duplicate recording id 'r1'$"):
        read_labels(path)
    path.write_text(
        f"{FORMAT_LINE}\nrecording_id,true_machine,is_anomaly,split,domain\n"
        f"r1,fan,0,dev,\nr2,fan,0,test,indoor\nr3,fan,0,dev,indoor\n"
    )
    with pytest.warns(UserWarning, match="domain"):
        with pytest.raises(FormatError,
                           match=r"^labels\.csv:4: recording 'r2': unknown split 'test'$"):
            read_labels(path)


# ---------------------------------------------------------------------------
# features


def test_features_roundtrip(tmp_path):
    path = tmp_path / "features.csv"
    ids = ["a", "b", "c"]
    vectors = np.array([[0.1, 0.2], [1.0 / 7.0, -3.5], [100.0, 0.0]])
    write_features(path, ids, vectors)
    back_ids, back_vectors = read_features(path)
    assert back_ids.tolist() == ids
    assert np.array_equal(back_vectors, vectors)


def test_features_header_is_strict(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text(f"{FORMAT_LINE}\nrecording_id,x0,x1\na,1.0,2.0\n")
    with pytest.raises(FormatError, match="header"):
        read_features(path)


def test_features_rejects_duplicates(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text(f"{FORMAT_LINE}\nrecording_id,f_0\na,1.0\na,2.0\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_features(path)


def test_write_features_validates_shape(tmp_path):
    with pytest.raises(FormatError):
        write_features(tmp_path / "f.csv", ["a", "b"], np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# manifests


def good_manifest(tmp_path, **overrides):
    doc = {
        "format": FORMAT_VERSION,
        "scorer": {"kind": "nearest_reference", "k": 2,
                   "normalizer": {"kind": "none"}},
        "features": "features.csv",
        "machines": [
            {"name": "fan", "reference": "ref_fan.csv"},
            {"name": "pump", "reference": "refs/pump.csv"},
        ],
    }
    doc.update(overrides)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def test_manifest_parses_and_resolves_paths(tmp_path):
    manifest = read_manifest(good_manifest(tmp_path))
    assert manifest.scorer == ScorerSpec("nearest_reference", k=2)
    assert manifest.features == tmp_path / "features.csv"
    assert manifest.references["pump"] == tmp_path / "refs" / "pump.csv"


def test_manifest_null_normalizer_means_none(tmp_path):
    scorer = read_manifest(good_manifest(tmp_path, scorer={
        "kind": "nearest_reference", "k": 2, "epsilon": None, "normalizer": None})).scorer
    assert scorer == ScorerSpec("nearest_reference", k=2)


def test_manifest_takes_integral_float_counts_as_ints(tmp_path):
    scorer = read_manifest(good_manifest(tmp_path, scorer={
        "kind": "nearest_reference", "k": 2.0,
        "normalizer": {"kind": "local_density", "k_norm": 3.0}})).scorer
    assert (scorer.k, scorer.normalizer.k_norm) == (2, 3)
    assert type(scorer.k) is int and type(scorer.normalizer.k_norm) is int


def test_manifest_rejects_bad_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="JSON"):
        read_manifest(path)


def test_manifest_with_an_int_too_long_to_convert_is_a_format_error(tmp_path):
    # from Python 3.10.7 json.loads raises a plain ValueError, not a
    # JSONDecodeError, for an int of more than 4,300 digits
    path = tmp_path / "manifest.json"
    path.write_text('{"format": 1' + "0" * 5000 + "}")
    with pytest.raises(FormatError, match=r"^manifest\.json: "):
        read_manifest(path)


def test_manifest_rejects_bytes_that_are_not_utf8(tmp_path):
    path = good_manifest(tmp_path)
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    with pytest.raises(FormatError, match=r"^manifest\.json: not UTF-8 text"):
        read_manifest(path)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"format": "idfree-asd/9"}, "format"),
        ({"scorer": {}}, "kind"),
        ({"scorer": {"kind": "kmeans"}}, "unknown scorer"),
        ({"scorer": {"kind": "nearest_reference", "k": 0}}, "positive integer"),
        ({"features": ""}, "features"),
        ({"machines": []}, "machines"),
        ({"machines": [{"name": "fan"}]}, "reference"),
        (
            {"machines": [{"name": "fan", "reference": "a.csv"},
                          {"name": "fan", "reference": "b.csv"}]},
            "duplicate",
        ),
        # wrongly typed values are data errors, not internal ones
        ({"scorer": {"kind": "nearest_reference", "k": None}}, "k must be a positive integer"),
        ({"scorer": {"kind": "nearest_reference", "k": True}}, "k must be a positive integer"),
        ({"scorer": {"kind": "nearest_reference", "k": "2"}}, "k must be a positive integer"),
        ({"scorer": {"kind": "nearest_reference", "k": 1.5}}, "k must be a positive integer"),
        ({"scorer": {"kind": "nearest_reference", "k": float("inf")}},
         "k must be a positive integer"),
        ({"scorer": {"kind": "nearest_reference", "k": float("nan")}},
         "k must be a positive integer"),
        ({"scorer": {"kind": "nearest_reference",
                     "normalizer": {"kind": "local_density", "k_norm": [2]}}},
         "k_norm must be a positive integer"),
        ({"scorer": {"kind": "nearest_reference",
                     "normalizer": {"kind": "local_density", "k_norm": False}}},
         "k_norm must be a positive integer"),
        ({"scorer": {"kind": "mahalanobis", "epsilon": "0.1"}}, "epsilon must be a finite"),
        ({"scorer": {"kind": "mahalanobis", "epsilon": True}}, "epsilon must be a finite"),
        ({"scorer": {"kind": "mahalanobis", "epsilon": float("inf")}},
         "epsilon must be a finite"),
        ({"scorer": {"kind": "mahalanobis", "epsilon": 0}}, "epsilon must be a finite"),
        # a machine name must be a nonempty string: sortable and hashable
        ({"machines": [{"name": 5, "reference": "a.csv"},
                       {"name": "x", "reference": "b.csv"}]}, "needs a name"),
        ({"machines": [{"name": ["fan"], "reference": "a.csv"}]}, "needs a name"),
        ({"machines": [{"name": "", "reference": "a.csv"}]}, "needs a name"),
        # an empty reference path would resolve to the manifest's own directory
        ({"machines": [{"name": "fan", "reference": ""}]}, "needs a name and a reference"),
        # keys outside the documented schema are errors, not silently ignored
        ({"scorer": {"kind": "nearest_reference", "K": 3}}, "unknown key 'K' in scorer "),
        ({"weights": "w.csv"}, "unknown key 'weights' in manifest "),
        ({"scorer": {"kind": "nearest_reference", "normalizer": {"kind": "none", "k": 2}}},
         "unknown key 'k' in scorer.normalizer "),
        ({"machines": [{"name": "fan", "reference": "a.csv", "ref": "b.csv"}]},
         "unknown key 'ref' in machine entry "),
        # a normalizer is an object or null; false, 0, "" and [] do not mean none
        ({"scorer": {"kind": "nearest_reference", "normalizer": False}}, "object or null"),
        ({"scorer": {"kind": "nearest_reference", "normalizer": 0}}, "object or null"),
        ({"scorer": {"kind": "nearest_reference", "normalizer": ""}}, "object or null"),
        ({"scorer": {"kind": "nearest_reference", "normalizer": []}}, "object or null"),
    ],
)
def test_manifest_validation(tmp_path, overrides, message):
    with pytest.raises(FormatError, match=message):
        read_manifest(good_manifest(tmp_path, **overrides))


# ---------------------------------------------------------------------------
# check tables


def test_check_table_parses_percent_and_undefined(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(
        f"{FORMAT_LINE}\nlabel,a_known,a_unknown,expected\n"
        f"row-1,0.7031,0.6966,3.20%\n"
        f"row-2,0.7,0.69,1.5\n"
        f"row-3,0.5,0.6,undefined\n"
    )
    rows = read_check_table(path)
    assert rows[0] == CheckRow("row-1", 0.7031, 0.6966, 3.20, 3)
    assert rows[1].expected_percent == 1.5
    assert rows[2].expected_percent is None


def test_check_table_errors(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(f"{FORMAT_LINE}\nlabel,known,unknown,expected\nr,0.7,0.6,1\n")
    with pytest.raises(FormatError, match="header"):
        read_check_table(path)
    path.write_text(
        f"{FORMAT_LINE}\nlabel,a_known,a_unknown,expected\nr,0.7,abc,1\n"
    )
    with pytest.raises(FormatError, match="a_unknown"):
        read_check_table(path)
    for body, message in [("r,0.7,0.6\n", r"^table\.csv:3: expected 4 fields, got 3$"),
                          (",0.7,0.6,1\n", r"^table\.csv:3: empty label$"),
                          ("", r"^table\.csv: no check rows$")]:
        path.write_text(f"{FORMAT_LINE}\nlabel,a_known,a_unknown,expected\n{body}")
        with pytest.raises(FormatError, match=message):
            read_check_table(path)


# ---------------------------------------------------------------------------
# documents and digests


def test_percent_text():
    assert percent_text(0.0320) == "3.20"
    assert percent_text(1.0) == "100.00"
    assert percent_text(None) is None


def test_file_digest_matches_hashlib(tmp_path):
    path = tmp_path / "some" / "file.txt"
    path.parent.mkdir()
    path.write_bytes(b"hello")
    digest = file_digest(path, "scores")
    assert digest == {
        "role": "scores",
        "path": "file.txt",  # basename only, no absolute paths in reports
        "sha256": hashlib.sha256(b"hello").hexdigest(),
    }
    # larger than one read block, ending mid-block
    data = bytes(range(256)) * 9000
    path.write_bytes(data)
    assert file_digest(path, "scores")["sha256"] == hashlib.sha256(data).hexdigest()


def make_report():
    from idfree_asd.protocol import MergedTestSet, ScoreMatrix

    matrix = ScoreMatrix(["fan"], ["a1", "a2", "n1", "n2"], [[2.0], [3.0], [0.0], [0.5]])
    merged = MergedTestSet(["a1", "a2", "n1", "n2"], ["fan"], [0, 0, 0, 0],
                           [True, True, False, False])
    return full_report(matrix, merged)


def test_evaluation_document_shape():
    report = make_report()
    doc = evaluation_document(
        {"dev": report}, [{"role": "scores", "path": "s.csv", "sha256": "00"}],
        EvalConfig(), higher_is_anomalous=True,
    )
    assert doc["format"] == FORMAT_VERSION
    assert doc["kind"] == "evaluation"
    assert doc["config"]["higher_is_anomalous"] is True
    dev = doc["splits"]["dev"]
    assert dev["known"]["aggregate"] == 1.0
    assert dev["identification"]["raw_accuracy_percent"] == "100.00"
    assert dev["delta_norm"]["fraction"] == 0.0
    text = document_text(doc)
    assert json.loads(text) == doc
    assert text.endswith("\n")


def test_document_text_is_stable_and_rejects_nan():
    doc = {"a": 1.5, "b": [1, 2]}
    assert document_text(doc) == document_text(doc)
    with pytest.raises(ValueError):
        document_text({"x": float("nan")})


def test_simulate_and_sweep_documents():
    config = SimConfig(k=2, d=3, n_ref=4, n_norm=4, n_anom=2, seed=8)
    point = run_point(config)
    doc = simulate_document(point, config, ScorerSpec(), EvalConfig())
    assert doc["kind"] == "simulate"
    assert doc["config"]["seed"] == 8
    assert doc["point"]["separation"] == config.separation

    points = sweep(config, separations=[4.0, 8.0], repeats=1)
    sweep_doc = sweep_document(points, config, (4.0, 8.0), 1, ScorerSpec(), EvalConfig())
    assert sweep_doc["kind"] == "sweep"
    assert sweep_doc["separations"] == [4.0, 8.0]
    assert sweep_doc["repeats"] == 1
    assert len(sweep_doc["points"]) == 2
    json.loads(document_text(sweep_doc))


def test_check_table_document_all_pass_flag():
    rows = [{"label": "a", "pass": True}, {"label": "b", "pass": False}]
    doc = check_table_document(rows, [], 0.005)
    assert doc["all_pass"] is False
    assert doc["tolerance_percent"] == 0.005


# ---------------------------------------------------------------------------
# sweep CSV


def test_sweep_csv_cells():
    points = [
        SweepPoint(4.5, 0, 7, 0.5, 0.125, 0.9, 0.85, 0.1),
        SweepPoint(5.0, 1, 8, None, None, None, None, None, error="SimError: x, y"),
    ]
    text = sweep_csv_text(points)
    lines = text.splitlines()
    assert lines[0] == FORMAT_LINE
    assert lines[1].startswith("separation,repeat,seed,")
    first = lines[2].split(",")
    assert first[0] == "4.5" and first[3] == "0.5" and first[4] == "0.125"
    # None becomes an empty cell; the error message is quoted (embedded comma)
    assert ",,,,," in lines[3]
    assert '"SimError: x, y"' in lines[3]
    # repr floats round-trip exactly
    assert float(first[6]) == 0.85


def test_sweep_csv_values_are_plain_reprs():
    points = sweep(SimConfig(k=2, d=3, n_ref=6, n_norm=8, n_anom=4, seed=3),
                   separations=[5.0], repeats=1)
    text = sweep_csv_text(points)
    assert "np.float64" not in text
    assert "None" not in text


# ---------------------------------------------------------------------------
# SVG scatter


def test_scatter_svg_contains_points():
    text = scatter_svg_text([(0.1, 0.2), (0.5, 0.4), (0.9, 0.0)])
    assert text.startswith("<svg ")
    assert text.count("<circle") == 3
    assert "identification accuracy" in text
    assert scatter_svg_text([(0.1, 0.2), (0.5, 0.4), (0.9, 0.0)]) == text


def test_scatter_svg_handles_degenerate_ranges():
    text = scatter_svg_text([(0.5, 0.5)])
    assert text.count("<circle") == 1
    empty = scatter_svg_text([])
    assert empty.count("<circle") == 0 and "</svg>" in empty


# ---------------------------------------------------------------------------
# atomic writes


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    atomic_write_text(path, "new contents")
    assert path.read_text() == "new contents"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
    assert leftovers == []


def test_atomic_write_gives_the_mode_a_plain_open_would(tmp_path):
    old = os.umask(0o022)
    try:
        atomic_write_text(tmp_path / "out.json", "text")
    finally:
        os.umask(old)
    assert (tmp_path / "out.json").stat().st_mode & 0o777 == 0o644


def test_atomic_write_cleans_up_on_failure(tmp_path):
    target = tmp_path / "dir-in-the-way"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(target, "text")
    assert [p.name for p in tmp_path.iterdir()] == ["dir-in-the-way"]
