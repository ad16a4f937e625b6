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
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .protocol import EvalConfig, EvalReport, ModeResult, Recording
from .scorers import NormalizerSpec, ScorerSpec
from .simulate import SimConfig, SweepPoint, SweepResult

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
    "write_scores",
    "read_labels",
    "write_labels",
    "read_features",
    "write_features",
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


class FormatError(ValueError):
    """Raised on malformed or wrongly versioned input files."""


def _split_file(path: Path) -> tuple[list[tuple[int, str]], list[tuple[int, list[str]]]]:
    """Split a versioned CSV file into comment lines and parsed rows.

    Returns (comments, rows) where each entry carries the 1-based physical
    line it starts on. The first line must be the format comment. Only LF,
    CRLF and CR end a line, and a quoted field may span lines.
    """
    # utf-8-sig drops a leading byte-order mark that some editors write
    lines = StringIO(path.read_text(encoding="utf-8-sig"), newline="").readlines()
    if not lines or lines[0].strip() != FORMAT_LINE:
        raise FormatError(f"{path.name}: first line must be {FORMAT_LINE!r}")
    comments: list[tuple[int, str]] = [(1, lines[0])]
    index = 1
    while index < len(lines) and lines[index].lstrip().startswith("#"):
        comments.append((index + 1, lines[index]))
        index += 1
    rows: list[tuple[int, list[str]]] = []
    reader = csv.reader(lines[index:])
    start = index + 1
    for parsed in reader:
        if parsed:
            rows.append((start, parsed))
        start = index + 1 + reader.line_num
    if not rows:
        raise FormatError(f"{path.name}: no header row found")
    return comments, rows


def _parse_orientation(path: Path, comments: list[tuple[int, str]]) -> str | None:
    orientation = None
    for line_no, text in comments[1:]:
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


def _keyed_ids(path: Path, rows: list[tuple[int, list[str]]], what: str) -> list[str]:
    """Check the data rows of a table keyed by recording id; return the ids.

    Every row needs one field per header column and a nonempty id that no
    other row has; ``what`` names the rows when there are none.
    """
    width = len(rows[0][1])
    ids: list[str] = []
    seen: set[str] = set()
    for line_no, row in rows[1:]:
        if len(row) != width:
            raise FormatError(f"{path.name}:{line_no}: expected {width} fields, got {len(row)}")
        rec_id = row[0]
        if not rec_id:
            raise FormatError(f"{path.name}:{line_no}: empty recording id")
        if rec_id in seen:
            raise FormatError(f"{path.name}:{line_no}: duplicate recording id {rec_id!r}")
        seen.add(rec_id)
        ids.append(rec_id)
    if not ids:
        raise FormatError(f"{path.name}: no {what} rows")
    return ids


def _float_block(path: Path, rows: list[tuple[int, list[str]]]) -> np.ndarray:
    """Every cell after the id of rows checked by _keyed_ids, as an (n, d) array.

    Converts one column at a time. If that fails or meets a non-finite
    value, the cell-by-cell pass reruns, naming the first bad cell and its
    line (and giving float()'s values should numpy turn down a spelling
    float() accepts).
    """
    header, body = rows[0][1], rows[1:]
    try:
        block = np.column_stack(
            [np.array([row[j] for _, row in body], dtype=float) for j in range(1, len(header))]
        )
    except ValueError:
        block = None
    if block is not None and np.isfinite(block).all():
        return block
    return np.array([
        [_parse_float(path, line_no, column, cell) for column, cell in zip(header[1:], row[1:])]
        for line_no, row in body
    ])


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


def read_scores(path) -> tuple[list[str], dict[str, np.ndarray], str | None]:
    """Read a wide per-machine score table.

    Returns (machine column names, rows keyed by recording id, declared
    orientation or None). Scores are returned as stored; callers negate when
    the orientation says lower means more anomalous.
    """
    path = Path(path)
    comments, rows = _split_file(path)
    orientation = _parse_orientation(path, comments)
    header_no, header = rows[0]
    if header[0] != "recording_id" or len(header) < 2:
        raise FormatError(
            f"{path.name}:{header_no}: header must be recording_id,<machine>,..."
        )
    machines = header[1:]
    if len(set(machines)) != len(machines) or any(not m for m in machines):
        raise FormatError(f"{path.name}:{header_no}: machine columns must be unique and nonempty")
    ids = _keyed_ids(path, rows, "score")
    return machines, dict(zip(ids, _float_block(path, rows))), orientation


def write_scores(path, machines: Sequence[str], rows: Mapping[str, Sequence[float]],
                 orientation: str | None = None) -> None:
    comments = []
    if orientation is not None:
        if orientation not in ORIENTATIONS:
            raise FormatError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
        comments.append(f"# orientation: {orientation}")
    body = ([rec_id, *(repr(float(v)) for v in rows[rec_id])] for rec_id in rows)
    atomic_write_text(path, _table_text(["recording_id", *machines], body, comments))


_LABEL_COLUMNS = ("recording_id", "true_machine", "is_anomaly", "split")


def read_labels(path) -> list[Recording]:
    """Read recording labels; recordings come back without features."""
    path = Path(path)
    _, rows = _split_file(path)
    header_no, header = rows[0]
    if tuple(header[:4]) != _LABEL_COLUMNS:
        raise FormatError(
            f"{path.name}:{header_no}: header must start with {','.join(_LABEL_COLUMNS)}"
        )
    has_domain = len(header) > 4 and header[4] == "domain"
    known_width = 5 if has_domain else 4
    extras = header[known_width:]
    if extras:
        warnings.warn(f"{path.name}: ignoring unknown label columns {extras}", stacklevel=2)
    _keyed_ids(path, rows, "label")
    recordings: list[Recording] = []
    for line_no, row in rows[1:]:
        rec_id, machine, anomaly_text, split = row[:4]
        if not machine:
            raise FormatError(f"{path.name}:{line_no}: empty recording id or machine")
        if anomaly_text not in _TRUTH:
            raise FormatError(
                f"{path.name}:{line_no}: is_anomaly must be one of "
                f"{sorted(_TRUTH)}, got {anomaly_text!r}"
            )
        domain = row[4] if has_domain else ""
        try:
            recordings.append(
                Recording(rec_id, machine, _TRUTH[anomaly_text], split, domain or None)
            )
        except ValueError as exc:
            raise FormatError(f"{path.name}:{line_no}: {exc}") from None
    return recordings


def write_labels(path, recordings: Sequence[Recording]) -> None:
    with_domain = any(rec.domain is not None for rec in recordings)
    header = list(_LABEL_COLUMNS) + (["domain"] if with_domain else [])
    body = (
        [rec.id, rec.true_machine, "1" if rec.is_anomaly else "0", rec.split]
        + ([rec.domain or ""] if with_domain else [])
        for rec in recordings
    )
    atomic_write_text(path, _table_text(header, body))


def read_features(path) -> tuple[list[str], np.ndarray]:
    """Read per-recording feature vectors as (ids, (n, d) array)."""
    path = Path(path)
    _, rows = _split_file(path)
    header_no, header = rows[0]
    d = len(header) - 1
    expected = ["recording_id"] + [f"f_{i}" for i in range(d)]
    if header != expected or d < 1:
        raise FormatError(
            f"{path.name}:{header_no}: header must be recording_id,f_0,...,f_{{d-1}}"
        )
    return _keyed_ids(path, rows, "feature"), _float_block(path, rows)


def write_features(path, ids: Sequence[str], vectors) -> None:
    matrix = np.asarray(vectors, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise FormatError("feature matrix must be 2-D with one row per id")
    header = ["recording_id"] + [f"f_{i}" for i in range(matrix.shape[1])]
    body = ([rec_id, *map(repr, row)] for rec_id, row in zip(ids, matrix.tolist()))
    atomic_write_text(path, _table_text(header, body))


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
    except json.JSONDecodeError as exc:
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
            or not entry.get("name")
            or not isinstance(entry.get("reference"), str)
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
    _, rows = _split_file(path)
    header_no, header = rows[0]
    if header != ["label", "a_known", "a_unknown", "expected"]:
        raise FormatError(
            f"{path.name}:{header_no}: header must be label,a_known,a_unknown,expected"
        )
    out: list[CheckRow] = []
    for line_no, row in rows[1:]:
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
    accuracy = ident.accuracy()
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
            "normalized": accuracy.normalized,
            "normalized_percent": percent_text(accuracy.normalized),
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


def sweep_document(
    result: SweepResult, scorer: ScorerSpec, eval_config: EvalConfig
) -> dict:
    doc = _document_head("sweep", [])
    doc["config"] = asdict(result.base)
    doc["scorer"] = asdict(scorer)
    doc["evaluation"] = {"pauc_p": eval_config.pauc_p, "average": eval_config.average}
    doc["separations"] = list(result.separations)
    doc["repeats"] = result.repeats
    doc["points"] = [asdict(p) for p in result.points]
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


def sweep_csv_text(result: SweepResult) -> str:
    """Scatter table for external plotting; one row per sweep point."""
    columns = [field.name for field in fields(SweepPoint)]
    body = ([_csv_cell(getattr(point, column)) for column in columns] for point in result.points)
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
