"""File formats, report documents, and deterministic serialization.

Every format opens with a version comment line so readers can reject
foreign files early. Reports embed input digests and only basenames, never
absolute paths or timestamps, so reruns produce byte-identical documents.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import tempfile
import warnings
from contextlib import closing
from dataclasses import asdict, dataclass, fields
from io import StringIO
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .protocol import (_RAISED, SPLITS, EvalConfig, EvalReport, MergedTestSet, ModeResult,
                       ProtocolError, _ids, _key_order)
from .scorers import _BLOCK_BYTES, NormalizerSpec, ScorerError, ScorerSpec
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
# the fast path reads data lines about this many bytes at a time, so a table's
# text is never held whole, and on (within _BLOCK_BYTES) to this many lines, so
# a block of wide rows still gives the scorers' kernel rows enough
_CHUNK_CHARS = 2**17
_CHUNK_LINES = 1024
# a block holding one of these bytes fails the gate, as one outside ASCII does:
# a quote has a csv meaning, and numpy reads \x1c-\x1f around a number as white
# space, float() does not; a CR outside a CRLF line end is checked on its own
_STRICT_BYTES = b'"\x1c\x1d\x1e\x1f'
# a cross-reference error names at most this many ids per side, so a file
# that matches nothing still gives a short message
_LISTED_IDS = 10


class FormatError(ValueError):
    """Raised on malformed or wrongly versioned input files."""


def _rows(path: Path, comments: list[tuple[int, str]] | None = None,
          chunked: bool = False) -> Iterator:
    """Stream the header row of a versioned CSV file, then its data.

    Comment lines after the format line go into ``comments``. The header and
    every data row carry the 1-based physical line they start on. Rows come
    from one csv.reader fed straight from the file handle, so the file is
    never held whole: only LF, CRLF and CR end a line, a quoted field may
    span lines, and blank lines are skipped. With ``chunked``, the data
    after the header comes instead as bytes, whole lines of about
    _CHUNK_CHARS bytes, or of _CHUNK_LINES lines if fewer fit (up to about
    _BLOCK_BYTES bytes), at a time, each block ending in LF.
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
            # read by readline, as next() would turn off the handle's tell()
            reader = csv.reader(chain([line], iter(handle.readline, "")))
            start, found = skipped + 1, False
            for fields in reader:
                if fields:
                    found = True
                    yield start, fields
                    if chunked:  # read on from where the text handle stands
                        (data := handle.buffer).seek(handle.tell())
                        while block := data.read(_CHUNK_CHARS) + data.readline():
                            while (block.count(b"\n") < _CHUNK_LINES and len(block) < _BLOCK_BYTES
                                   and (more := data.read(_CHUNK_CHARS))):
                                block += more + data.readline()
                            yield block if block.endswith(b"\n") else block + b"\n"
                        return
                start = skipped + 1 + reader.line_num
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path.name}:{_undecodable_line(path)}: not UTF-8 text "
                              f"({exc.reason})") from None
        except csv.Error as exc:
            raise FormatError(f"{path.name}:{start}: {exc}") from None
        if not found:
            raise FormatError(f"{path.name}: no header row found")


def _gate(block: bytes, width: int, fields: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A block of data lines as one uint8 array, CRLF line ends read as LF, and
    each line's bounds of its first ``fields`` fields (all by default): the LF
    before it, then its commas and its LF, so field k of line i lies strictly
    between bounds[i, k] and bounds[i, k + 1]. A block that csv might read
    otherwise raises a ValueError: one with a CR outside a CRLF line end, a
    byte outside ASCII or in _STRICT_BYTES, a line of other than ``width``
    fields or a line past csv's field limit."""
    data = np.frombuffer(block, np.uint8)
    if len(cr := np.flatnonzero(data == 13)) and (data[cr + 1] == 10).all():
        data, cr = np.delete(data, cr), cr[:0]
    # every comma and LF in order: each line is width - 1 commas and then its LF
    seps = np.flatnonzero((data == 44) | (data == 10))
    if (len(cr) or not block.isascii() or any(map(block.__contains__, _STRICT_BYTES))
            or len(seps) % width
            or (data[seps].reshape(-1, width) != [44] * (width - 1) + [10]).any()):
        raise ValueError("a block left to csv")
    seps = seps.reshape(-1, width)
    starts = np.r_[-1, seps[:-1, -1]]
    if (seps[:, -1] - starts).max() > csv.field_size_limit():
        raise ValueError("a block left to csv")
    return data, np.column_stack([starts, seps[:, :fields]])


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
        if match := _ORIENTATION_RE.match(text.strip()):
            if match.group(1) not in ORIENTATIONS:
                raise FormatError(f"{path.name}:{line_no}: orientation must be one of "
                                  f"{ORIENTATIONS}, got {match.group(1)!r}")
            orientation = match.group(1)
    return orientation


def _parse_float(path: Path, line_no: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"{path.name}:{line_no}: {column} value {text!r} is not a number"
                          ) from None
    if not math.isfinite(value):
        raise FormatError(f"{path.name}:{line_no}: {column} value {text!r} is not finite")
    return value


def _keyed_rows(path: Path, width: int, convert: Callable[[int, list[str]], object]
                ) -> Iterator[tuple[np.ndarray, list]]:
    """The strict reader: the id keys, as objects, and ``convert(line, row)`` of
    each data row, read again through csv, _CHUNK_LINES rows at a time.

    A row without ``width`` fields, with an empty id or with one seen before
    raises at once; the first FormatError of ``convert`` (a bad cell) ends the
    rows and is raised once the whole file's row structure has passed.
    """
    rows, seen, problem, keys, batch = _rows(path), set(), None, [], []
    next(rows)  # the header, checked before the fast path ran
    for line_no, row in rows:
        if len(row) != width:
            raise FormatError(f"{path.name}:{line_no}: expected {width} fields, got {len(row)}")
        if not row[0]:
            raise FormatError(f"{path.name}:{line_no}: empty recording id")
        if row[0] in seen:
            raise FormatError(f"{path.name}:{line_no}: duplicate recording id {row[0]!r}")
        seen.add(row[0])
        if problem is None:
            # the keys as objects, so one long id never pads a column
            keys.append(row[0].encode().translate(_RAISED))
            try:
                batch.append(convert(line_no, row))
            except FormatError as exc:
                problem = exc
            if len(batch) == _CHUNK_LINES:
                yield np.array(keys, object), batch
                keys, batch = [], []
    if problem is not None:
        raise problem
    if batch:
        yield np.array(keys, object), batch


def _fast_or_strict(rows: Iterator, join: Callable, fast: Iterator, strict: Callable):
    # join(fast), the pieces that `fast` reads from `rows` in C, if all of that
    # passes; a reader's ValueError (a chunk that `fast` leaves to csv, or a
    # repeated id, which csv names by its line) drops it for join(strict()),
    # which reads the whole file again through csv and so gives every error. A
    # ScorerError, from a join that scores its rows, ends the read: csv would
    # score them again
    with closing(rows):
        try:
            return join(fast)
        except ScorerError:
            raise
        except ValueError:
            pass
    return join(strict())


def _unmatched(description: str, keys: np.ndarray) -> str:
    # the count, then the first ids in sorted order, of the ids of the key
    # column `keys`: keys sort as their ids do, so only the ids named are decoded
    keys = np.sort(keys)
    listed = _ids(keys[:_LISTED_IDS]).tolist()
    more = f" and {len(keys) - len(listed)} more" if len(keys) > len(listed) else ""
    return f"{len(keys)} {description} {listed}{more}"


def _label_rows(sets: Mapping[str, MergedTestSet], keys: np.ndarray) -> np.ndarray:
    """The joined row of each of ``keys`` among the rows of ``sets`` in turn,
    each in its id order, -1 for a key without a label."""
    rows, lo = np.full(len(keys), -1), 0
    left = np.arange(len(keys))  # the keys no earlier set holds: a key lies in one at most
    for labeled in (merged.keys for merged in sets.values()):
        # the keys in the labels' dtype, so the labels are never cast; a key cut short has no label
        at = np.searchsorted(labeled, keys.astype(labeled.dtype, copy=False))
        found = labeled[np.minimum(at, len(labeled) - 1, out=at)] == keys
        rows[left[found]] = at[found] + lo
        left, keys, lo = left[~found], keys[~found], lo + len(labeled)
    return rows


def _c_floats(blocks: Iterator[bytes], width: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The id keys and cells (by one loadtxt call) of each block of data lines that
    passes the gate. A block with an empty id raises a ValueError, as does one after
    which the keys, padded to the widest so far, would take 4 times the bytes read."""
    rows = size = widest = 0
    for block in blocks:
        # the bounds of each line's id alone, so no array of every separator
        # outlives the gate
        data, bounds = _gate(block, width + 1, 1)
        start, stop = bounds[:, 0] + 1, bounds[:, 1]
        rows, size, widest = rows + len(start), size + len(data), max(widest, (stop - start).max())
        if (stop == start).any() or rows * widest > 4 * size:
            raise ValueError("a block left to csv")
        keys = _cells(data + 1, start, stop)
        lines = data.tobytes().decode("ascii").split("\n")[:-1]
        cells = np.loadtxt(lines, delimiter=",", comments=None, usecols=range(1, width + 1),
                           ndmin=2)
        # loadtxt skips a blank line, which the gate turns down: one row a line
        if len(cells) != len(keys) or not np.isfinite(cells).all():
            raise ValueError("a block left to csv")
        yield keys, cells


def _float_rows(path: Path, rows: Iterator, header: list[str], what: str,
                sets: Mapping[str, MergedTestSet] | None = None,
                place: Callable[[np.ndarray, np.ndarray], None] | None = None
                ) -> tuple[np.ndarray, np.ndarray] | None:
    """The ids' keys, and every cell after the id as an (n, d) array, of keyed data rows.

    The fast path reads the byte blocks of ``rows`` through _c_floats; any
    block it turns down, or a repeated id, sends the whole file to the strict
    reader, which names the line at fault.

    Joined to read_labels' ``sets`` instead, each block goes, as it is read,
    to place(rows, block), at its ids' rows among the sets' n rows in turn,
    and nothing is returned. An id on one side only raises a ProtocolError
    once the pass that read the whole table ends, so a mismatch reads the
    table once. A csv pass after a declined block places its rows again: a
    place that scores them gives equal scores, as the scorers are pure.
    """
    def join(pieces: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        keys, blocks, extra, stop = [], [], [], 0
        # the label rows this join placed: a csv pass after a declined block
        # places every row again, so each pass starts from none
        placed = np.zeros(0 if sets is None else sum(len(merged.keys) for merged in sets.values()),
                          bool)
        for chunk, block in pieces:
            stop += len(chunk)
            if sets is None:
                keys.append(chunk)
                blocks.append(block)
                continue
            rows = _label_rows(sets, chunk)
            if rows.min() < 0:  # ids without labels, named once the whole file is in
                extra.append(chunk[rows < 0])
                block, rows = block[rows >= 0], rows[rows >= 0]
            place(rows, block)
            placed[rows] = True
        if not stop:
            raise FormatError(f"{path.name}: no {what} rows")
        if sets is None:
            keys, blocks = np.concatenate(keys), np.concatenate(blocks)
            _key_order(keys)  # a repeat raises; on the C path only, as csv names its line
            return keys, blocks
        extra = np.concatenate(extra) if extra else np.zeros(0, object)
        found = np.count_nonzero(placed)
        if found + len(extra) != stop:  # a labeled id read twice, on the C path only
            raise ValueError("a repeated id left to csv")
        _key_order(extra)  # raises for an id without labels read twice, so csv names it too
        # the unlabeled keys and the labeled ones left unplaced
        return extra, (np.concatenate([merged.keys for merged in sets.values()])[~placed]
                       if found < len(placed) else extra[:0])

    def cells(line_no: int, row: list[str]) -> list[float]:
        return [_parse_float(path, line_no, column, cell)
                for column, cell in zip(header[1:], row[1:])]

    def strict() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return ((keys, np.array(batch)) for keys, batch in _keyed_rows(path, len(header), cells))

    read = _fast_or_strict(rows, join, _c_floats(rows, len(header) - 1), strict)
    if sets is None:
        return read
    extra, missing = read
    if len(extra) or len(missing):
        sides = [_unmatched(f"{what} rows without labels", extra),
                 _unmatched(f"labeled recordings without {what}s", missing)]
        if what == "feature":  # a feature mismatch names the labeled side first
            sides.reverse()
        raise ProtocolError(f"{what}s/labels cross-reference mismatch: {', '.join(sides)}")


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


def read_scores(path) -> tuple[list[str], np.ndarray, np.ndarray, str | None]:
    """Read a wide per-machine score table.

    Returns (machine column names, recording ids as one StringDType array,
    (n, k) scores with row i for ids[i], declared orientation or None), rows
    in file order. Scores are returned as stored; callers negate when the
    orientation says lower means more anomalous.
    """
    machines, keys, values, orientation = _score_table(path)
    return machines, _ids(keys), values, orientation


def _score_table(path, sets=None, placement=None) -> tuple:
    # read_scores with the ids' keys, not the ids; or, joined to the label `sets`, (machines,
    # result, orientation), with the (result, place) that placement(machines, orientation) gives
    path = Path(path)
    comments: list[tuple[int, str]] = []
    rows = _rows(path, comments, chunked=True)
    header_no, header = next(rows)
    orientation = _parse_orientation(path, comments)
    if header[0] != "recording_id" or len(header) < 2:
        raise FormatError(f"{path.name}:{header_no}: header must be recording_id,<machine>,...")
    machines = header[1:]
    if len(set(machines)) != len(machines) or any(not m for m in machines):
        raise FormatError(f"{path.name}:{header_no}: machine columns must be unique and nonempty")
    if sets is None:
        return machines, *_float_rows(path, rows, header, "score"), orientation
    result, place = placement(machines, orientation)
    _float_rows(path, rows, header, "score", sets, place)
    return machines, result, orientation


_LABEL_COLUMNS = ("recording_id", "true_machine", "is_anomaly", "split")


def _cells(data: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    # the fields [start, stop) of the bytes `data` as one bytes column, NUL-padded
    width = int((stop - start).max())
    cells = np.lib.stride_tricks.sliding_window_view(np.r_[data, np.zeros(width, np.uint8)],
                                                     width)[start]
    cells *= np.arange(width) < (stop - start)[:, None]
    return cells.view(f"S{width}").ravel()


def _which(data: np.ndarray, start: np.ndarray, stop: np.ndarray, words) -> np.ndarray:
    # the index into `words` of each field [start, stop) of the bytes `data`, -1 for none
    which = np.full(len(start), -1, np.int8)
    for j, word in enumerate(map(str.encode, words)):
        rows = np.flatnonzero(stop - start == len(word))
        found = data[start[rows, None] + np.arange(len(word))] == np.frombuffer(word, np.uint8)
        which[rows[found.all(axis=1)]] = j
    return which


def _byte_labels(blocks: Iterator[bytes], width: int) -> Iterator[tuple]:
    """(id keys, machine names with their comma, is_anomaly, split codes) of each
    block of data lines that passes the gate. A block with an empty id or
    machine name or a bad label raises a ValueError, as does one after which the
    keys or names, padded to the widest so far, would take 4 times the bytes read."""
    rows = size = widest = 0
    for block in blocks:
        data, bounds = _gate(block, width)
        gaps = np.diff(bounds[:, :3])
        labels, splits = (_which(data, bounds[:, k] + 1, bounds[:, k + 1], words)
                          for k, words in [(2, _TRUTH), (3, SPLITS)])
        rows, size, widest = rows + len(gaps), size + len(data), max(widest, gaps.max())
        if ((gaps < 2).any() or (labels < 0).any() or (splits < 0).any()
                or rows * widest > 4 * size):
            raise ValueError("a block left to csv")
        yield (_cells(data + 1, bounds[:, 0] + 1, bounds[:, 1]),
               _cells(data, bounds[:, 1] + 1, bounds[:, 2] + 1),
               np.array(list(_TRUTH.values()))[labels], splits)


def read_labels(path) -> dict[str, MergedTestSet]:
    """Read recording labels as one test set per split present, in SPLITS order.

    The sets share one `machines` list, in order of first appearance. Each
    holds its ids' keys alone, a slice of one column, and decodes its `ids` from
    them on first read; the sets in turn are the rows that a score or feature
    table is joined to. Row structure (field count, empty or duplicate id) is
    checked over the whole file before the first bad label value is reported.
    """
    path = Path(path)
    rows = _rows(path, chunked=True)
    header_no, header = next(rows)
    if tuple(header[:4]) != _LABEL_COLUMNS:
        raise FormatError(f"{path.name}:{header_no}: header must start with "
                          f"{','.join(_LABEL_COLUMNS)}")
    if header[4:]:
        warnings.warn(f"{path.name}: ignoring unknown label columns {header[4:]}", stacklevel=2)

    def join(blocks: Iterable[tuple]) -> dict[str, MergedTestSet]:
        codes: dict[bytes, int] = {}  # machine name and comma -> code, in order of first appearance
        parts = []  # each block's columns, machines as codes
        for keys, names, labels, splits in blocks:
            names, first, inverse = np.unique(names, return_index=True, return_inverse=True)
            for name in names[np.argsort(first)].tolist():
                codes.setdefault(name, len(codes))
            machines = np.array([codes[name] for name in names.tolist()],
                                np.min_scalar_type(len(codes)))[inverse]
            parts.append((keys, machines, labels, splits))
        if not parts:
            raise FormatError(f"{path.name}: no label rows")
        keys, machines, labels, splits = map(np.concatenate, zip(*parts))
        del parts
        # the keys split by split, each split in id order; a repeat in any split
        # raises (on the C path only, as csv names its line)
        at = _key_order(keys)
        at = at[np.argsort(splits[at], kind="stable")]
        keys, machines, labels = keys[at], machines[at], labels[at]
        del at
        names = [name[:-1].decode() for name in codes]
        sets, stop = {}, 0
        for j, split_rows in enumerate(np.bincount(splits, minlength=len(SPLITS)).tolist()):
            start, stop = stop, stop + split_rows
            if split_rows:
                sets[SPLITS[j]] = MergedTestSet(None, names, machines[start:stop],
                                                labels[start:stop], SPLITS[j],
                                                keys=keys[start:stop])
        return sets

    def cells(line_no: int, row: list[str]) -> tuple:
        rec_id, machine, anomaly_text, split = row[:4]
        if not machine:
            problem = "empty true_machine"
        elif anomaly_text not in _TRUTH:
            problem = f"is_anomaly must be one of {sorted(_TRUTH)}, got {anomaly_text!r}"
        elif split not in SPLITS:
            problem = f"recording {rec_id!r}: unknown split {split!r}"
        else:
            return machine.encode() + b",", _TRUTH[anomaly_text], SPLITS.index(split)
        raise FormatError(f"{path.name}:{line_no}: {problem}")

    def strict() -> Iterator[tuple]:
        # csv's rows as _byte_labels' columns, names as objects, as the keys
        # are, so no column is padded to the longest
        for keys, batch in _keyed_rows(path, len(header), cells):
            names, *columns = zip(*batch)
            yield keys, np.array(names, object), *map(np.array, columns)

    return _fast_or_strict(rows, join, _byte_labels(rows, len(header)), strict)


def read_features(path) -> tuple[np.ndarray, np.ndarray]:
    """Read per-recording feature vectors as (ids, (n, d) array), in file order."""
    keys, values = _feature_table(path)
    return _ids(keys), values


def _feature_table(path, sets: Mapping[str, MergedTestSet] | None = None,
                   place: Callable | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    # read_features with the ids' keys, not the ids; or joined to the label
    # `sets`, each block going to _float_rows' place, as evaluate --manifest scores it
    path = Path(path)
    rows = _rows(path, chunked=True)
    header_no, header = next(rows)
    d = len(header) - 1
    expected = ["recording_id"] + [f"f_{i}" for i in range(d)]
    if header != expected or d < 1:
        raise FormatError(f"{path.name}:{header_no}: header must be recording_id,f_0,...,f_{{d-1}}")
    return _float_rows(path, rows, header, "feature", sets, place)


@dataclass(frozen=True)
class Manifest:
    """Scorer configuration plus feature file locations for one run."""

    scorer: ScorerSpec
    features: Path
    references: dict[str, Path]


def _check_keys(path: Path, section: str, raw: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise FormatError(f"{path.name}: unknown key {unknown[0]!r} in {section} "
                          f"(allowed: {', '.join(allowed)})")


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
    _check_keys(path, "manifest", raw, ("format", "scorer", "features", "machines"))
    scorer_raw = raw.get("scorer")
    if not isinstance(scorer_raw, dict) or "kind" not in scorer_raw:
        raise FormatError(f"{path.name}: scorer section with a kind is required")
    _check_keys(path, "scorer", scorer_raw, ("kind", "k", "epsilon", "normalizer"))
    # null means no normalizer, as null means no epsilon
    normalizer_raw = {} if scorer_raw.get("normalizer") is None else scorer_raw["normalizer"]
    if not isinstance(normalizer_raw, dict):
        raise FormatError(f"{path.name}: scorer.normalizer must be an object or null")
    _check_keys(path, "scorer.normalizer", normalizer_raw, ("kind", "k_norm"))
    try:
        normalizer = NormalizerSpec(kind=normalizer_raw.get("kind", "none"),
                                    k_norm=normalizer_raw.get("k_norm", 1))
        scorer = ScorerSpec(kind=scorer_raw["kind"], k=scorer_raw.get("k", 1),
                            epsilon=scorer_raw.get("epsilon"), normalizer=normalizer)
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
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str) and entry["name"]
                and isinstance(entry.get("reference"), str) and entry["reference"]):
            raise FormatError(f"{path.name}: each machine needs a name and a reference path")
        _check_keys(path, "machine entry", entry, ("name", "reference"))
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
        raise FormatError(f"{path.name}:{header_no}: header must be "
                          "label,a_known,a_unknown,expected")
    out: list[CheckRow] = []
    for line_no, row in rows:
        if len(row) != 4:
            raise FormatError(f"{path.name}:{line_no}: expected 4 fields, got {len(row)}")
        label, known_text, unknown_text, expected_text = row
        if not label:
            raise FormatError(f"{path.name}:{line_no}: empty label")
        expected_text = expected_text.strip()
        expected = (None if expected_text == "undefined"
                    else _parse_float(path, line_no, "expected", expected_text.removesuffix("%")))
        out.append(CheckRow(label, _parse_float(path, line_no, "a_known", known_text),
                            _parse_float(path, line_no, "a_unknown", unknown_text), expected,
                            line_no))
    if not out:
        raise FormatError(f"{path.name}: no check rows")
    return out


def file_digest(path, role: str) -> dict:
    import hashlib  # on first use, not with the module: it maps OpenSSL, 3.6 MB resident

    # hashed in 1 MiB blocks so a large input is never held whole
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return {"role": role, "path": Path(path).name, "sha256": digest.hexdigest()}


def percent_text(fraction: float | None) -> str | None:
    """Render a fraction as a percentage with two decimals."""
    return None if fraction is None else f"{100.0 * fraction:.2f}"


def _mode_section(mode: ModeResult) -> dict:
    per_machine = {machine: {"n_normal": metrics.n_normal, "n_anomalous": metrics.n_anomalous,
                             "auc": metrics.auc, "pauc": metrics.pauc}
                   for machine, metrics in sorted(mode.per_machine.items())}
    return {"average": mode.average, "pauc_p": mode.pauc_p, "aggregate": mode.aggregate,
            "per_machine": per_machine, "excluded_machines": sorted(mode.excluded_machines)}


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
    return {"format": FORMAT_VERSION, "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "kind": kind, "inputs": list(inputs)}


def evaluation_document(splits: Mapping[str, EvalReport], inputs: Iterable[dict],
                        config: EvalConfig, higher_is_anomalous: bool) -> dict:
    doc = _document_head("evaluation", inputs)
    doc["config"] = {"pauc_p": config.pauc_p, "average": config.average,
                     "higher_is_anomalous": higher_is_anomalous}
    doc["splits"] = {split: _split_section(splits[split]) for split in sorted(splits)}
    return doc


def _simulation_head(kind: str, config: SimConfig, scorer: ScorerSpec,
                     eval_config: EvalConfig) -> dict:
    return {**_document_head(kind, []), "config": asdict(config), "scorer": asdict(scorer),
            "evaluation": {"pauc_p": eval_config.pauc_p, "average": eval_config.average}}


def simulate_document(point: SweepPoint, config: SimConfig, scorer: ScorerSpec,
                      eval_config: EvalConfig) -> dict:
    return {**_simulation_head("simulate", config, scorer, eval_config), "point": asdict(point)}


def sweep_document(points: Sequence[SweepPoint], base: SimConfig, separations: Sequence[float],
                   repeats: int, scorer: ScorerSpec, eval_config: EvalConfig) -> dict:
    return {**_simulation_head("sweep", base, scorer, eval_config),
            "separations": list(separations), "repeats": repeats,
            "points": [asdict(p) for p in points]}


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
        parts.append(f'<text x="{px:.1f}" y="{height - bottom + 16:.1f}" font-size="10" '
                     f'text-anchor="middle">{x_val:.2f}</text>')
        parts.append(f'<text x="{left - 6:.1f}" y="{py + 3:.1f}" font-size="10" '
                     f'text-anchor="end">{y_val:.2f}</text>')
    parts.append(f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12:.1f}" '
                 f'font-size="11" text-anchor="middle">identification accuracy (normalized)</text>')
    middle = (top + height - bottom) / 2
    parts.append(f'<text x="14" y="{middle:.1f}" font-size="11" text-anchor="middle" '
                 f'transform="rotate(-90 14 {middle:.1f})">normalized degradation</text>')
    for x, y in points:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a same-directory temp file and rename into place."""
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(mode="w", encoding="utf-8", newline="", dir=path.parent,
                                         prefix=f".{path.name}.", delete=False)
    umask = os.umask(0)
    os.umask(umask)
    try:
        with handle:
            handle.write(text)
        # the temp file is created 0o600; give it what open(path, "w") would
        os.chmod(handle.name, 0o666 & ~umask)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise
