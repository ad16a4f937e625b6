import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import idfree_asd.io as io_module
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
from idfree_asd.protocol import EvalConfig, Recording, full_report
from idfree_asd.scorers import ScorerSpec
from idfree_asd.simulate import SimConfig, SweepPoint, run_point, sweep
from tables import label_rows, write_features, write_labels, write_scores

# ---------------------------------------------------------------------------
# score tables


def test_scores_roundtrip(tmp_path):
    path = tmp_path / "scores.csv"
    rows = {"r1": [0.1, 2.5], "r2": [1.0 / 3.0, -4.25]}
    write_scores(path, ["fan", "pump"], rows, orientation="higher")
    machines, ids, table, orientation = read_scores(path)
    assert machines == ["fan", "pump"]
    assert orientation == "higher"
    assert ids == list(rows)
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


def _read_table(kind, path):
    if kind == "features":
        return read_features(path)
    _, ids, values, _ = read_scores(path)
    return ids, values


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_clean_table_converts_by_column_without_cell_pass(tmp_path, monkeypatch, kind):
    ids = [f"r{i}" for i in range(50)]
    matrix = np.random.default_rng(1).standard_normal((50, 3))
    path = tmp_path / f"{kind}.csv"
    _write_table(kind, path, ids, matrix)
    calls = []
    original = io_module._parse_float
    monkeypatch.setattr(io_module, "_parse_float",
                        lambda *args: calls.append(args) or original(*args))
    back_ids, back = _read_table(kind, path)
    assert calls == []
    assert back_ids == ids and np.array_equal(back, matrix)


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


def small_blocks(monkeypatch, width):
    """Make tables of `width` value columns convert BLOCK_ROWS rows at a time; count the blocks."""
    monkeypatch.setattr(io_module, "_BLOCK_CELLS", BLOCK_ROWS * width)
    converted = []
    original = io_module._float_block
    monkeypatch.setattr(io_module, "_float_block",
                        lambda path, header, lines, cells:
                        converted.append(len(lines)) or original(path, header, lines, cells))
    return converted


@pytest.mark.parametrize("kind", ["scores", "features"])
@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 2])
def test_blocked_conversion_matches_float_on_each_cell(tmp_path, monkeypatch, kind, n):
    bits = np.random.default_rng(n).integers(0, 2**64, size=(n, 3), dtype=np.uint64)
    matrix = bits.view(np.float64)
    matrix[~np.isfinite(matrix)] = 1.5
    path = tmp_path / f"{kind}.csv"
    ids = [f"r{i}" for i in range(n)]
    _write_table(kind, path, ids, matrix)
    expected = np.array([[float(cell) for cell in line.split(",")[1:]]
                         for line in path.read_text().splitlines()[2:]])
    converted = small_blocks(monkeypatch, 3)
    back_ids, back = _read_table(kind, path)
    assert converted == [BLOCK_ROWS] * (n // BLOCK_ROWS) + [n % BLOCK_ROWS] * (n % BLOCK_ROWS > 0)
    assert back_ids == ids
    assert back.shape == (n, 3)
    assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))


def _table_lines(kind, n):
    header = ["recording_id"] + ([f"m{j}" for j in range(2)] if kind == "scores"
                                 else [f"f_{j}" for j in range(2)])
    return [FORMAT_LINE, ",".join(header)] + [f"r{i},{i}.5,{-i}" for i in range(n)]


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_blocked_bad_cell_waits_for_row_structure(tmp_path, monkeypatch, kind):
    # data row i is line i + 3: a bad cell in block 1, a duplicate id in block 3
    lines = _table_lines(kind, 3 * BLOCK_ROWS)
    lines[2 + 1] = "r1,oops,1"
    lines[2 + 2 * BLOCK_ROWS + 4] = "r5,1,1"
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    small_blocks(monkeypatch, 2)
    with pytest.raises(FormatError) as err:
        _read_table(kind, path)
    assert str(err.value) == (f"{path.name}:{2 * BLOCK_ROWS + 7}: "
                              f"duplicate recording id 'r5'")


@pytest.mark.parametrize("kind", ["scores", "features"])
def test_blocked_first_bad_block_names_its_cell(tmp_path, monkeypatch, kind):
    lines = _table_lines(kind, 3 * BLOCK_ROWS)
    lines[2 + BLOCK_ROWS + 3] = f"r{BLOCK_ROWS + 3},1,nan"
    lines[2 + 2 * BLOCK_ROWS] = f"r{2 * BLOCK_ROWS},oops,1"
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    converted = small_blocks(monkeypatch, 2)
    with pytest.raises(FormatError) as err:
        _read_table(kind, path)
    column = "m1" if kind == "scores" else "f_1"
    assert str(err.value) == f"{path.name}:{BLOCK_ROWS + 6}: {column} value 'nan' is not finite"
    assert converted == [BLOCK_ROWS, BLOCK_ROWS]  # block 3 is not converted


def test_read_scores_memory_is_bounded_by_the_block(tmp_path):
    # the text of a 50,000 x 10 table takes ~35 MB as Python strings; held
    # one block at a time, the peak is the ids, the id set and the values
    matrix = np.random.default_rng(3).standard_normal((50_000, 10))
    path = tmp_path / "scores.csv"
    write_scores(path, [f"m{j}" for j in range(10)],
                 {f"r{i}": row for i, row in enumerate(matrix)})
    tracemalloc.start()
    try:
        _, _, back, _ = read_scores(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, matrix)
    assert peak < 16_000_000


@pytest.mark.parametrize("odd_id", ["a\x0cb", "a\x1cb", "a\x1db", "a\x1eb", "a\x85b",
                                    "a\u2028b", "a\u2029b", "a\x0bb"])
def test_ids_with_unicode_line_breaks_roundtrip(tmp_path, odd_id):
    # only LF, CRLF and CR end a line; str.splitlines would also break at these
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording(odd_id, "fan", True, "dev"), Recording("z", "fan", False, "dev")])
    assert read_labels(labels)["dev"].ids == [odd_id, "z"]
    scores = tmp_path / "scores.csv"
    write_scores(scores, ["fan"], {odd_id: [1.0], "z": [2.0]})
    assert read_scores(scores)[1] == [odd_id, "z"]


def test_quoted_field_spans_lines_and_later_errors_name_the_physical_line(tmp_path):
    labels = tmp_path / "labels.csv"
    write_labels(labels, [Recording("a\nb", "fan", True, "dev"), Recording("c", "fan", False, "dev")])
    assert read_labels(labels)["dev"].ids == ["a\nb", "c"]
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
        assert merged.ids == expected[split].ids
        assert merged.machines == expected[split].machines
        assert np.array_equal(merged.true_machine, expected[split].true_machine)
        assert np.array_equal(merged.is_anomaly, expected[split].is_anomaly)


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
    assert back_ids == ids
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


def test_atomic_write_cleans_up_on_failure(tmp_path):
    target = tmp_path / "dir-in-the-way"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(target, "text")
    assert [p.name for p in tmp_path.iterdir()] == ["dir-in-the-way"]
