"""File formats, report documents, and deterministic serialization.

Every format opens with a version comment line so readers can reject
foreign files early. Reports embed input digests and only basenames, never
absolute paths or timestamps, so reruns produce byte-identical documents.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import tempfile
import warnings
from dataclasses import asdict, dataclass, fields
from io import StringIO
from itertools import chain
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .protocol import SPLITS, EvalConfig, EvalReport, MergedTestSet, ModeResult, ProtocolError
from .scorers import NormalizerSpec, ScorerSpec
from .simulate import SimConfig, SweepPoint

__all__ = [
    "FormatError",
    "FORMAT_VERSION",
    "FORMAT_LINE",
    "TOOL_NAME",
    "TOOL_VERSION",
    "ORIENTATIONS",
    "Manifest",
    "CheckRow",
    "read_scores",
    "read_labels",
    "read_features",
    "read_manifest",
    "read_check_table",
    "file_digest",
    "percent_text",
    "evaluation_document",
    "simulate_document",
    "sweep_document",
    "check_table_document",
    "document_text",
    "sweep_csv_text",
    "scatter_svg_text",
    "atomic_write_text",
]

FORMAT_VERSION = "idfree-asd/1"
FORMAT_LINE = f"# format: {FORMAT_VERSION}"
TOOL_NAME = "idfree-asd"
TOOL_VERSION = "0.1.0"
ORIENTATIONS = ("higher", "lower")

_ORIENTATION_RE = re.compile(r"#\s*orientation:\s*(\S+)\s*$")
_TRUTH = {"0": False, "1": True, "false": False, "true": True}
# a numeric table's cells are converted to floats this many at a time, so
# its text is never held whole
_BLOCK_CELLS = 2**15
# a cross-reference error names at most this many ids per side, so a file
# that matches nothing still gives a short message
_LISTED_IDS = 10


class FormatError(ValueError):
    """Raised on malformed or wrongly versioned input files."""


def _rows(
    path: Path, comments: list[tuple[int, str]] | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Stream the header and data rows of a versioned CSV file.

    Each row carries the 1-based physical line it starts on; comment lines
    after the format line go into ``comments``. Rows come from one csv.reader
    fed straight from the file handle, so the file is never held whole. Only
    LF, CRLF and CR end a line, a quoted field may span lines, and blank
    lines are skipped.
    """
    # utf-8-sig drops a leading byte-order mark that some editors write
    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            if handle.readline().strip() != FORMAT_LINE:
                raise FormatError(f"{path.name}: first line must be {FORMAT_LINE!r}")
            skipped = 1
            while (line := handle.readline()).lstrip().startswith("#"):
                skipped += 1
                if comments is not None:
                    comments.append((skipped, line))
            reader = csv.reader(chain([line], handle))
            start, found = skipped + 1, False
            for fields in reader:
                if fields:
                    found = True
                    yield start, fields
                start = skipped + 1 + reader.line_num
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path.name}:{_undecodable_line(path)}: not UTF-8 text "
                              f"({exc.reason})") from None
        except csv.Error as exc:
            raise FormatError(f"{path.name}:{start}: {exc}") from None
        if not found:
            raise FormatError(f"{path.name}: no header row found")


def _undecodable_line(path: Path) -> int:
    # the text reader decodes ahead in blocks, so find the first bad byte in
    # the whole file (only on this error path) and count the lines before it
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:exc.start]
    return 1 + data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _parse_orientation(path: Path, comments: list[tuple[int, str]]) -> str | None:
    orientation = None
    for line_no, text in comments:
        match = _ORIENTATION_RE.match(text.strip())
        if match:
            if match.group(1) not in ORIENTATIONS:
                raise FormatError(
                    f"{path.name}:{line_no}: orientation must be one of "
                    f"{ORIENTATIONS}, got {match.group(1)!r}"
                )
            orientation = match.group(1)
    return orientation


def _parse_float(path: Path, line_no: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(
            f"{path.name}:{line_no}: {column} value {text!r} is not a number"
        ) from None
    if not np.isfinite(value):
        raise FormatError(f"{path.name}:{line_no}: {column} value {text!r} is not finite")
    return value


def _keyed_rows(path: Path, rows: Iterator[tuple[int, list[str]]], width: int, what: str,
                index: Mapping[str, int] | None = None, filled: bytearray | None = None,
                unlabeled: set[str] | None = None) -> Iterator[tuple[int, list[str], str | int]]:
    """Check the data rows of a table keyed by recording id as they stream by.

    Every row needs one field per header column and a nonempty id that no
    other row has; ``what`` names the rows when there are none. Each row
    comes with a key: its id, or with an ``index`` of {id: position} its id's
    position, which is then marked in ``filled``. An id outside the index
    has key -1 and goes into ``unlabeled``.
    """
    seen: set[str] = set() if index is None else unlabeled
    found = False
    for line_no, row in rows:
        if len(row) != width:
            raise FormatError(f"{path.name}:{line_no}: expected {width} fields, got {len(row)}")
        rec_id = row[0]
        if not rec_id:
            raise FormatError(f"{path.name}:{line_no}: empty recording id")
        if index is None or (position := index.get(rec_id, -1)) < 0:
            duplicate = rec_id in seen
            seen.add(rec_id)
        else:
            duplicate, filled[position] = filled[position], 1
        if duplicate:
            raise FormatError(f"{path.name}:{line_no}: duplicate recording id {rec_id!r}")
        found = True
        yield line_no, row, rec_id if index is None else position
    if not found:
        raise FormatError(f"{path.name}: no {what} rows")


def _cell_blocks(keyed: Iterator[tuple[int, list[str], str | int]], width: int
                 ) -> Iterator[tuple[list, list[int], list[str]]]:
    # keys, lines and flat cells of about _BLOCK_CELLS cells of keyed rows at a
    # time; the lists are emptied once the caller is done with them, so only
    # one block's text is alive at once
    per_block = max(1, _BLOCK_CELLS // width)
    keys: list = []
    lines: list[int] = []
    cells: list[str] = []
    for line_no, row, key in keyed:
        keys.append(key)
        lines.append(line_no)
        cells += row[1:]
        if len(lines) == per_block:
            yield keys, lines, cells
            keys.clear()
            lines.clear()
            cells.clear()
    if keys:
        yield keys, lines, cells


def _float_block(path: Path, header: list[str], lines: list[int],
                 cells: list[str]) -> np.ndarray:
    # one conversion for the whole block; on failure or a non-finite value the
    # cell-by-cell pass names the first bad cell (and takes float()'s value
    # should numpy turn down a spelling float() accepts)
    try:
        block = np.array(cells, dtype=float)
    except ValueError:
        block = None
    if block is None or not np.isfinite(block).all():
        width = len(header) - 1
        block = np.array([_parse_float(path, lines[i // width], header[1 + i % width], cell)
                          for i, cell in enumerate(cells)])
    return block.reshape(len(lines), -1)


def _unmatched(description: str, ids: Collection[str]) -> str:
    # the count, then the first ids in sorted order
    listed = sorted(ids)[:_LISTED_IDS]
    more = f" and {len(ids) - len(listed)} more" if len(ids) > len(listed) else ""
    return f"{len(ids)} {description} {listed}{more}"


def _float_rows(path: Path, rows: Iterator[tuple[int, list[str]]], header: list[str],
                what: str, index: Mapping[str, int] | None = None
                ) -> tuple[list[str], np.ndarray]:
    """Ids, and every cell after the id as an (n, d) array, of keyed data rows.

    With an ``index`` that maps the i-th of n ids to i, each row's cells land
    at its id's row of a preallocated array, and an id on one side only
    raises a ProtocolError once the whole file has passed; else rows keep
    file order.

    Cells are converted one block of rows (about _BLOCK_CELLS cells) at a
    time as the rows stream by, so only one block's text is held at once. A
    block that numpy cannot convert, or that holds a non-finite value, goes
    through a cell-by-cell pass that names its first bad cell and line. That
    error is kept, later blocks are only checked for row structure, and it
    is raised once the whole file's row structure has passed.
    """
    width = len(header) - 1
    filled, unlabeled = bytearray(len(index or ())), set()
    keyed = _keyed_rows(path, rows, len(header), what, index, filled, unlabeled)
    ids: list[str] = []
    blocks: list[np.ndarray] = []
    values = np.empty((len(filled), width))
    problem: FormatError | None = None
    for keys, lines, cells in _cell_blocks(keyed, width):
        if problem is None:
            try:
                block = _float_block(path, header, lines, cells)
            except FormatError as exc:
                problem = exc
                continue
            if index is None:
                ids += keys
                blocks.append(block)
            else:
                positions = np.array(keys)
                values[positions[positions >= 0]] = block[positions >= 0]
    if problem is not None:
        raise problem
    if index is None:
        return ids, np.concatenate(blocks)
    if unlabeled or 0 in filled:
        missing = [rec_id for rec_id, row in index.items() if not filled[row]]
        sides = [_unmatched(f"{what} rows without labels", unlabeled),
                 _unmatched(f"labeled recordings without {what}s", missing)]
        if what == "feature":  # a feature mismatch names the labeled side first
            sides.reverse()
        raise ProtocolError(f"{what}s/labels cross-reference mismatch: {', '.join(sides)}")
    return list(index), values


def _table_text(header: Sequence[str], rows: Iterable[Sequence[str]],
                comments: Sequence[str] = ()) -> str:
    """A versioned CSV file: format line, comment lines, header, rows."""
    buf = StringIO()
    buf.write(FORMAT_LINE + "\n")
    for line in comments:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_scores(path, index: Mapping[str, int] | None = None
                ) -> tuple[list[str], list[str], np.ndarray, str | None]:
    """Read a wide per-machine score table.

    Returns (machine column names, recording ids, (n, k) scores with row i
    for ids[i], declared orientation or None), rows in file order or, given
    an ``index`` that maps the i-th of n ids to i, in the index's order.
    Scores are returned as stored; callers negate when the orientation says
    lower means more anomalous.
    """
    path = Path(path)
    comments: list[tuple[int, str]] = []
    rows = _rows(path, comments)
    header_no, header = next(rows)
    orientation = _parse_orientation(path, comments)
    if header[0] != "recording_id" or len(header) < 2:
        raise FormatError(
            f"{path.name}:{header_no}: header must be recording_id,<machine>,..."
        )
    machines = header[1:]
    if len(set(machines)) != len(machines) or any(not m for m in machines):
        raise FormatError(f"{path.name}:{header_no}: machine columns must be unique and nonempty")
    return (machines, *_float_rows(path, rows, header, "score", index), orientation)


_LABEL_COLUMNS = ("recording_id", "true_machine", "is_anomaly", "split")


def _label_problem(row: list[str]) -> str | None:
    rec_id, machine, anomaly_text, split = row[:4]
    if not machine:
        return "empty true_machine"
    if anomaly_text not in _TRUTH:
        return f"is_anomaly must be one of {sorted(_TRUTH)}, got {anomaly_text!r}"
    if split not in SPLITS:
        return f"recording {rec_id!r}: unknown split {split!r}"
    return None


def read_labels(path) -> dict[str, MergedTestSet]:
    """Read recording labels as one test set per split present, in SPLITS order.

    The sets share one `machines` list, in order of first appearance. Row
    structure (field count, empty or duplicate id) is checked over the whole
    file before the first bad label value is reported.
    """
    path = Path(path)
    rows = _rows(path)
    header_no, header = next(rows)
    if tuple(header[:4]) != _LABEL_COLUMNS:
        raise FormatError(
            f"{path.name}:{header_no}: header must start with {','.join(_LABEL_COLUMNS)}"
        )
    if header[4:]:
        warnings.warn(f"{path.name}: ignoring unknown label columns {header[4:]}", stacklevel=2)
    codes: dict[str, int] = {}  # machine name -> code, in order of first appearance
    columns = {split: ([], [], []) for split in SPLITS}  # ids, machine codes, labels
    problem = None
    for line_no, row, _ in _keyed_rows(path, rows, len(header), "label"):
        if problem is None and (message := _label_problem(row)):
            problem = f"{path.name}:{line_no}: {message}"
        elif problem is None:
            ids, machine, anomalous = columns[row[3]]
            ids.append(row[0])
            machine.append(codes.setdefault(row[1], len(codes)))
            anomalous.append(_TRUTH[row[2]])
    if problem is not None:
        raise FormatError(problem)
    machines = list(codes)
    return {split: MergedTestSet(ids, machines, machine, anomalous, split)
            for split, (ids, machine, anomalous) in columns.items() if ids}


def read_features(path, index: Mapping[str, int] | None = None
                  ) -> tuple[list[str], np.ndarray]:
    """Read per-recording feature vectors as (ids, (n, d) array), in read_scores' row order."""
    path = Path(path)
    rows = _rows(path)
    header_no, header = next(rows)
    d = len(header) - 1
    expected = ["recording_id"] + [f"f_{i}" for i in range(d)]
    if header != expected or d < 1:
        raise FormatError(
            f"{path.name}:{header_no}: header must be recording_id,f_0,...,f_{{d-1}}"
        )
    return _float_rows(path, rows, header, "feature", index)


@dataclass(frozen=True)
class Manifest:
    """Scorer configuration plus feature file locations for one run."""

    scorer: ScorerSpec
    features: Path
    references: dict[str, Path]


def read_manifest(path) -> Manifest:
    """Read a scorer manifest; relative paths resolve against its directory."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:  # bad syntax, or an int of more digits than Python converts
        raise FormatError(f"{path.name}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict) or raw.get("format") != FORMAT_VERSION:
        raise FormatError(f"{path.name}: missing or unsupported format field")
    scorer_raw = raw.get("scorer")
    if not isinstance(scorer_raw, dict) or "kind" not in scorer_raw:
        raise FormatError(f"{path.name}: scorer section with a kind is required")
    normalizer_raw = scorer_raw.get("normalizer") or {}
    if not isinstance(normalizer_raw, dict):
        raise FormatError(f"{path.name}: scorer.normalizer must be an object")
    try:
        normalizer = NormalizerSpec(
            kind=normalizer_raw.get("kind", "none"),
            k_norm=normalizer_raw.get("k_norm", 1),
        )
        scorer = ScorerSpec(
            kind=scorer_raw["kind"],
            k=scorer_raw.get("k", 1),
            epsilon=scorer_raw.get("epsilon"),
            normalizer=normalizer,
        )
    except ValueError as exc:
        raise FormatError(f"{path.name}: {exc}") from None
    features = raw.get("features")
    machines_raw = raw.get("machines")
    if not isinstance(features, str) or not features:
        raise FormatError(f"{path.name}: features path is required")
    if not isinstance(machines_raw, list) or not machines_raw:
        raise FormatError(f"{path.name}: machines list is required")
    references: dict[str, Path] = {}
    for entry in machines_raw:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or not entry["name"]
            or not isinstance(entry.get("reference"), str)
            or not entry["reference"]
        ):
            raise FormatError(
                f"{path.name}: each machine needs a name and a reference path"
            )
        name = entry["name"]
        if name in references:
            raise FormatError(f"{path.name}: duplicate machine {name!r}")
        references[name] = path.parent / entry["reference"]
    return Manifest(scorer, path.parent / features, references)


@dataclass(frozen=True)
class CheckRow:
    """One aggregate triple with its expected degradation percentage.

    expected_percent is None for rows declared undefined.
    """

    label: str
    a_known: float
    a_unknown: float
    expected_percent: float | None
    line: int


def read_check_table(path) -> list[CheckRow]:
    path = Path(path)
    rows = _rows(path)
    header_no, header = next(rows)
    if header != ["label", "a_known", "a_unknown", "expected"]:
        raise FormatError(
            f"{path.name}:{header_no}: header must be label,a_known,a_unknown,expected"
        )
    out: list[CheckRow] = []
    for line_no, row in rows:
        if len(row) != 4:
            raise FormatError(f"{path.name}:{line_no}: expected 4 fields, got {len(row)}")
        label, known_text, unknown_text, expected_text = row
        if not label:
            raise FormatError(f"{path.name}:{line_no}: empty label")
        expected_text = expected_text.strip()
        if expected_text == "undefined":
            expected = None
        else:
            expected = _parse_float(
                path, line_no, "expected", expected_text.removesuffix("%")
            )
        out.append(
            CheckRow(
                label,
                _parse_float(path, line_no, "a_known", known_text),
                _parse_float(path, line_no, "a_unknown", unknown_text),
                expected,
                line_no,
            )
        )
    if not out:
        raise FormatError(f"{path.name}: no check rows")
    return out


def file_digest(path, role: str) -> dict:
    # hashed in 1 MiB blocks so a large input is never held whole
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return {"role": role, "path": Path(path).name, "sha256": digest.hexdigest()}


def percent_text(fraction: float | None) -> str | None:
    """Render a fraction as a percentage with two decimals."""
    if fraction is None:
        return None
    return f"{100.0 * fraction:.2f}"


def _mode_section(mode: ModeResult) -> dict:
    per_machine = {}
    for machine in sorted(mode.per_machine):
        metrics = mode.per_machine[machine]
        per_machine[machine] = {
            "n_normal": metrics.n_normal,
            "n_anomalous": metrics.n_anomalous,
            "auc": metrics.auc,
            "pauc": metrics.pauc,
        }
    return {
        "average": mode.average,
        "pauc_p": mode.pauc_p,
        "aggregate": mode.aggregate,
        "per_machine": per_machine,
        "excluded_machines": sorted(mode.excluded_machines),
    }


def _split_section(report: EvalReport) -> dict:
    ident = report.identification
    return {
        "machines": list(report.machines),
        "n_recordings": report.n_recordings,
        "known": _mode_section(report.known),
        "unknown": _mode_section(report.unknown),
        "identification": {
            "k": ident.k,
            "n_recordings": ident.n_recordings,
            "n_correct": ident.n_correct,
            "tie_count": ident.tie_count,
            "raw_accuracy": ident.raw_accuracy,
            "raw_accuracy_percent": percent_text(ident.raw_accuracy),
            "normalized": ident.normalized_accuracy,
            "normalized_percent": percent_text(ident.normalized_accuracy),
            "misid_probability": ident.misid_probability,
            "misid_percent": percent_text(ident.misid_probability),
        },
        "delta_norm": {
            "a_known": report.known.aggregate,
            "a_unknown": report.unknown.aggregate,
            "fraction": report.delta_norm,
            "percent": percent_text(report.delta_norm),
        },
    }


def _document_head(kind: str, inputs: Iterable[dict]) -> dict:
    return {
        "format": FORMAT_VERSION,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "kind": kind,
        "inputs": list(inputs),
    }


def evaluation_document(
    splits: Mapping[str, EvalReport],
    inputs: Iterable[dict],
    config: EvalConfig,
    higher_is_anomalous: bool,
) -> dict:
    doc = _document_head("evaluation", inputs)
    doc["config"] = {
        "pauc_p": config.pauc_p,
        "average": config.average,
        "higher_is_anomalous": higher_is_anomalous,
    }
    doc["splits"] = {split: _split_section(splits[split]) for split in sorted(splits)}
    return doc


def simulate_document(
    point: SweepPoint, config: SimConfig, scorer: ScorerSpec, eval_config: EvalConfig
) -> dict:
    doc = _document_head("simulate", [])
    doc["config"] = asdict(config)
    doc["scorer"] = asdict(scorer)
    doc["evaluation"] = {"pauc_p": eval_config.pauc_p, "average": eval_config.average}
    doc["point"] = asdict(point)
    return doc


def sweep_document(points: Sequence[SweepPoint], base: SimConfig, separations: Sequence[float],
                   repeats: int, scorer: ScorerSpec, eval_config: EvalConfig) -> dict:
    doc = _document_head("sweep", [])
    doc["config"] = asdict(base)
    doc["scorer"] = asdict(scorer)
    doc["evaluation"] = {"pauc_p": eval_config.pauc_p, "average": eval_config.average}
    doc["separations"] = list(separations)
    doc["repeats"] = repeats
    doc["points"] = [asdict(p) for p in points]
    return doc


def check_table_document(rows: list[dict], inputs: Iterable[dict], tolerance: float) -> dict:
    doc = _document_head("check-table", inputs)
    doc["tolerance_percent"] = tolerance
    doc["rows"] = rows
    doc["all_pass"] = all(row["pass"] for row in rows)
    return doc


def document_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def sweep_csv_text(points: Iterable[SweepPoint]) -> str:
    """Scatter table for external plotting; one row per sweep point."""
    columns = [field.name for field in fields(SweepPoint)]
    body = ([_csv_cell(getattr(point, column)) for column in columns] for point in points)
    return _table_text(columns, body)


def scatter_svg_text(points: Sequence[tuple[float, float]]) -> str:
    """Static SVG scatter of degradation against identification accuracy."""
    width, height = 480.0, 360.0
    left, right, top, bottom = 64.0, 16.0, 16.0, 48.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)
        py = height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left:.1f}" y1="{height - bottom:.1f}" x2="{width - right:.1f}" '
        f'y2="{height - bottom:.1f}" stroke="black"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" '
        f'y2="{height - bottom:.1f}" stroke="black"/>',
    ]
    for i in range(5):
        frac = i / 4.0
        x_val = x_lo + frac * (x_hi - x_lo)
        y_val = y_lo + frac * (y_hi - y_lo)
        px, _ = to_px(x_val, y_lo)
        _, py = to_px(x_lo, y_val)
        parts.append(
            f'<text x="{px:.1f}" y="{height - bottom + 16:.1f}" font-size="10" '
            f'text-anchor="middle">{x_val:.2f}</text>'
        )
        parts.append(
            f'<text x="{left - 6:.1f}" y="{py + 3:.1f}" font-size="10" '
            f'text-anchor="end">{y_val:.2f}</text>'
        )
    parts.append(
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12:.1f}" '
        f'font-size="11" text-anchor="middle">identification accuracy (normalized)</text>'
    )
    parts.append(
        f'<text x="14" y="{(top + height - bottom) / 2:.1f}" font-size="11" '
        f'text-anchor="middle" transform="rotate(-90 14 {(top + height - bottom) / 2:.1f})">'
        f"normalized degradation</text>"
    )
    for x, y in points:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a same-directory temp file and rename into place."""
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        newline="",
        dir=path.parent,
        prefix=f".{path.name}.",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise
