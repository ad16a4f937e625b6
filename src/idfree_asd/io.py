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
import pickle
import re
import signal
import tempfile
import warnings
from contextlib import closing
from dataclasses import asdict, dataclass, fields
from functools import partial
from io import StringIO
from itertools import chain, compress, count, repeat
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .protocol import (_ID_DTYPE, SPLITS, EvalConfig, EvalReport, MergedTestSet, ModeResult,
                       ProtocolError, _column_rising, _id_column, _id_order)
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
# the fast path reads data lines about this many characters at a time, so a
# table's text is never held whole
_CHUNK_CHARS = 2**17
# a chunk holding one of these fails the gate: quote and a CR outside CRLF
# have csv meanings, and numpy reads \x1c-\x1f around a number as white
# space, float() does not
_STRICT_CHARS = '"\r\x1c\x1d\x1e\x1f'
# a cross-reference error names at most this many ids per side, so a file
# that matches nothing still gives a short message
_LISTED_IDS = 10
# the strict reader hands its rows on in batches of this many
_BATCH_ROWS = 4096


class FormatError(ValueError):
    """Raised on malformed or wrongly versioned input files."""


def _rows(path: Path, comments: list[tuple[int, str]] | None = None,
          chunked: bool | type = False) -> Iterator:
    """Stream the header row of a versioned CSV file, then its data.

    Comment lines after the format line go into ``comments``. The header and
    every data row carry the 1-based physical line they start on. Rows come
    from one csv.reader fed straight from the file handle, so the file is
    never held whole: only LF, CRLF and CR end a line, a quoted field may
    span lines, and blank lines are skipped. With ``chunked``, the data
    lines after the header come instead as lists of about _CHUNK_CHARS
    characters, as the file holds them, or with ``chunked=bytes`` as bytes,
    whole lines of about _CHUNK_CHARS at a time, each block ending in LF.
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
                    if chunked is bytes:  # read on from where the text handle stands
                        (data := handle.buffer).seek(handle.tell())
                        while block := data.read(_CHUNK_CHARS) + data.readline():
                            yield block if block.endswith(b"\n") else block + b"\n"
                        return
                    if chunked:
                        yield from iter(partial(handle.readlines, _CHUNK_CHARS), [])
                        return
                start = skipped + 1 + reader.line_num
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path.name}:{_undecodable_line(path)}: not UTF-8 text "
                              f"({exc.reason})") from None
        except csv.Error as exc:
            raise FormatError(f"{path.name}:{start}: {exc}") from None
        if not found:
            raise FormatError(f"{path.name}: no header row found")


def _plain(lines: list[str], commas: int) -> str | None:
    # the LF text of data lines the C path reads as csv does, else None: ASCII without
    # _STRICT_CHARS, no line past csv's field limit, `commas` commas a line in all
    text = "".join(lines)
    if "\r" in text:  # a CR that is left is not part of a CRLF line end
        text = text.replace("\r\n", "\n")
    plain = (text.isascii() and not any(map(text.__contains__, _STRICT_CHARS))
             and max(map(len, lines)) <= csv.field_size_limit()
             and text.count(",") == commas * len(lines))
    return text if plain else None


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


def _keyed_rows(path: Path, width: int, convert: Callable[[int, list[str]], tuple]
                ) -> Iterator[list[list]]:
    """The strict reader: ``convert(line, row)`` of each data row, read again through csv.

    The converted rows come as columns, _BATCH_ROWS rows at a time. A row
    without ``width`` fields, with an empty id or with one seen before raises
    at once; the first FormatError of ``convert`` (a bad cell) ends the rows
    and is raised once the whole file's row structure has passed.
    """
    rows, seen, problem, batch = _rows(path), set(), None, []
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
            try:
                batch.append(convert(line_no, row))
            except FormatError as exc:
                problem = exc
            if len(batch) == _BATCH_ROWS:
                yield list(map(list, zip(*batch)))
                batch = []
    if problem is not None:
        raise problem
    if batch:
        yield list(map(list, zip(*batch)))


def _fast_or_strict(rows: Iterator, join: Callable, fast: Iterator, strict: Callable):
    # join(fast), the pieces that `fast` reads from `rows` in C, if all of that
    # passes; a ValueError anywhere (a chunk that `fast` leaves to csv, a
    # FormatError or a ProtocolError) drops it for join(strict()), which reads
    # the whole file again through csv and so gives every error
    with closing(rows):
        try:
            return join(fast)
        except ValueError:
            pass
    return join(strict())


def _unmatched(description: str, ids: Collection[str]) -> str:
    # the count, then the first ids in sorted order
    listed = sorted(ids)[:_LISTED_IDS]
    more = f" and {len(ids) - len(listed)} more" if len(ids) > len(listed) else ""
    return f"{len(ids)} {description} {listed}{more}"


@dataclass(frozen=True, eq=False)
class _LabelOrder:
    """read_labels' ids as an index: ``ids`` holds them split by split in SPLITS
    order, each split in id order, and ``rows[i]`` is the index row of the i-th
    id of the label file. ``spans`` holds each present split's [start, stop)
    of ``ids`` when id order is the label file's order, else it is None."""

    ids: np.ndarray
    rows: np.ndarray
    spans: tuple[tuple[int, int], ...] | None

    def follows(self, start: int, chunk: list[str]) -> bool:
        """Whether ``chunk`` holds the ids of label-file rows start, start + 1, ...,
        compared as str (StringDType's == calls ids that differ by a NUL equal)."""
        rows = self.rows[start:start + len(chunk)]
        if len(rows) < len(chunk):
            return False
        if self.spans is None:
            return self.ids[rows].tolist() == chunk
        # a split's label-file rows are consecutive rows of ids, so the chunk's
        # share of each split is one slice of them
        for lo, hi in self.spans:
            mine = (rows >= lo) & (rows < hi)
            n, first = int(np.count_nonzero(mine)), int(rows[mine.argmax()])
            if n and list(compress(chunk, mine.tobytes())) != self.ids[first:first + n].tolist():
                return False
        return True


def _c_floats(chunks: Iterator[list[str]], width: int) -> Iterator[tuple[list[str], np.ndarray]]:
    # the ids and cells of each chunk of data lines, the cells by one loadtxt call
    for lines in chunks:
        block = _plain(lines, width) and np.loadtxt(
            lines, delimiter=",", comments=None, usecols=range(1, width + 1), ndmin=2)
        ids = [line.partition(",")[0] for line in lines]
        # loadtxt turns down a line short of cells and skips a blank one, so a
        # row for every line and _plain's comma total give each line its commas
        if block is None or len(block) < len(lines) or not np.isfinite(block).all() or "" in ids:
            raise ValueError("a chunk left to csv")
        yield ids, block


def _float_rows(path: Path, rows: Iterator, header: list[str], what: str,
                index: _LabelOrder | None = None,
                chunks: Iterator[tuple[list[str], np.ndarray]] | None = None,
                placement: Callable[[], tuple] | None = None) -> tuple[np.ndarray, object]:
    """Ids, and every cell after the id as an (n, d) array, of keyed data rows.

    The fast path reads ``rows`` through _c_floats, or takes ``chunks``, the
    same pieces read elsewhere, in its place.

    With an ``index``, read_labels' order of n ids, blocks land at their ids'
    rows: by the index's rows while pieces follow the label file, else through
    one {id: row} dict, and the ids returned are the index's own. They land in
    an (n, d) array, or by ``placement()``: (the result, its place(rows, block)).
    n rows that place every row hold each id once; an id on one side only
    raises a ProtocolError. Else rows keep file order.
    """
    width = len(header) - 1
    if index is not None:  # by default each block lands at its rows of an (n, width) array
        result, place = placement() if placement else (
            (values := np.empty((len(index.ids), width))), values.__setitem__)

    def join(pieces: Iterable[tuple[list[str], np.ndarray]]) -> tuple[np.ndarray, object]:
        ids, blocks, extra, stop, lookup = [], [], [], 0, None
        # the label rows this join placed: when _fast_or_strict joins again, the
        # csv pass must place every row itself, so the first pass's result is reused
        placed = np.zeros(0 if index is None else len(index.ids), bool)
        for chunk, block in pieces:
            start, stop = stop, stop + len(chunk)
            if index is None:
                ids.append(_id_column(chunk))
                blocks.append(block)
                continue
            if lookup is None and index.follows(start, chunk):
                keys = index.rows[start:stop]
            else:
                if lookup is None:
                    lookup = dict(zip(index.ids.tolist(), count()))
                keys = np.fromiter(map(lookup.get, chunk, repeat(-1)), np.intp, len(chunk))
                if keys.min() < 0:  # ids without labels, named once the whole file is in
                    extra.extend(compress(chunk, (keys < 0).tolist()))
                    block, keys = block[keys >= 0], keys[keys >= 0]
            place(keys, block)
            placed[keys] = True
        if not stop:
            raise FormatError(f"{path.name}: no {what} rows")
        if index is None:
            ids = np.concatenate(ids)
            # a repeat raises; on the C path only, as csv names its line
            if not _column_rising(ids):
                _id_order(ids)
            return ids, np.concatenate(blocks)
        if extra or not placed.all() or stop != len(index.ids):
            sides = [_unmatched(f"{what} rows without labels", extra),
                     _unmatched(f"labeled recordings without {what}s",
                                list(compress(index.ids.tolist(), (~placed).tolist())))]
            if what == "feature":  # a feature mismatch names the labeled side first
                sides.reverse()
            raise ProtocolError(f"{what}s/labels cross-reference mismatch: {', '.join(sides)}")
        return index.ids, result

    def cells(line_no: int, row: list[str]) -> tuple[str, list[float]]:
        return row[0], [_parse_float(path, line_no, column, cell)
                        for column, cell in zip(header[1:], row[1:])]

    def strict() -> Iterator[tuple[list[str], np.ndarray]]:
        for ids, cells_read in _keyed_rows(path, len(header), cells):
            yield ids, np.array(cells_read)

    return _fast_or_strict(rows, join, _c_floats(rows, width) if chunks is None else chunks,
                           strict)


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


def read_scores(path, index: _LabelOrder | None = None
                ) -> tuple[list[str], np.ndarray, np.ndarray, str | None]:
    """Read a wide per-machine score table.

    Returns (machine column names, recording ids as one StringDType array,
    (n, k) scores with row i for ids[i], declared orientation or None), rows
    in file order or, given ``index``, the ``order`` of read_labels' result,
    in its order, with its id column as the ids.
    Scores are returned as stored; callers negate when the orientation says
    lower means more anomalous.
    """
    return _score_table(path, index, None)


def _score_table(path, index, chunks, placement=None) -> tuple:
    # read_scores, with a _ScoreWorker's ``chunks`` and a placement(machines, orientation) if given
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
    return (machines, *_float_rows(path, rows, header, "score", index, chunks,
                                   placement and partial(placement, machines, orientation)),
            orientation)


class _ScoreWorker:
    """read_scores' fast path over one score table, run in a forked child.

    The child reads the table through _c_floats and keeps every chunk; only
    once all pass does it pickle them to a pipe, so it delivers all or nothing.
    ``chunks`` reads the delivery, as _score_table's ``chunks``; a delivery that
    is empty (a chunk left to csv, a bad header, a crash) or cut short leaves
    the table to csv. Where no worker starts (no os.fork, SIGCHLD ignored, one
    CPU), ``chunks`` is None. ``close()`` kills and reaps the child.
    """

    def __init__(self, path) -> None:
        self.path, self.pid, self.pipe, self.chunks = Path(path), None, None, None
        # where SIGCHLD is ignored the kernel reaps a child itself, and its pid
        # could be another process's by the time close() kills it; on one CPU
        # the child's work would only add to the parent's
        if (not hasattr(os, "fork") or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN
                or hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2):
            return
        read_end, write_end = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork() in a process with threads, and numpy's
                # OpenBLAS starts some at import; the child runs no BLAS, starts no
                # thread and leaves through os._exit
                warnings.filterwarnings("ignore", r"This process .*is multi-threaded",
                                        DeprecationWarning)
                self.pid = os.fork()
        except OSError:  # no process to spare: read in process
            os.close(read_end)
            os.close(write_end)
            return
        if self.pid == 0:
            code = 1
            try:
                os.close(read_end)
                self._deliver(write_end)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        self.pipe = open(read_end, "rb")
        self.chunks = self._chunks()

    def _deliver(self, pipe: int) -> None:
        # in the child: any warning declines, which leaves the table to csv
        warnings.simplefilter("error")
        rows = _rows(self.path, chunked=True)
        width = len(next(rows)[1]) - 1
        pieces = [("\n".join(ids), block) for ids, block in _c_floats(rows, width)]
        with open(pipe, "wb") as out:
            pickle.dump(len(pieces), out)
            for piece in pieces:
                pickle.dump(piece, out, pickle.HIGHEST_PROTOCOL)

    def _chunks(self) -> Iterator[tuple[list[str], np.ndarray]]:
        # the pipe is private to a child that this process forked, so no outside
        # data is unpickled; one load a chunk, so no unpickler memo keeps chunks alive.
        # An empty pipe raises as a cut one does, so the table goes straight to csv
        try:
            for _ in range(pickle.load(self.pipe)):
                text, block = pickle.load(self.pipe)
                yield text.split("\n"), block
        except (EOFError, pickle.UnpicklingError):
            raise ValueError("the score worker delivered nothing or stopped mid-delivery")

    def close(self) -> None:
        if self.pipe is not None:
            self.pipe.close()
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


_LABEL_COLUMNS = ("recording_id", "true_machine", "is_anomaly", "split")
# a label block holding one of these bytes goes to csv, as one outside ASCII
# does; a CR is checked on its own
_STRICT_BYTES = _STRICT_CHARS.replace("\r", "").encode()


class _LabelSets(dict):
    """read_labels' {split: MergedTestSet}, with its ids' _LabelOrder as ``order``."""


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


def _rises(keys: np.ndarray, lengths: np.ndarray) -> bool:
    # whether ids held as NUL-padded bytes and byte lengths (or as str objects)
    # strictly increase in Python's order of them as str, NUL included
    return bool(((keys[:-1] < keys[1:])
                 | (keys[:-1] == keys[1:]) & (lengths[:-1] < lengths[1:])).all())


def _byte_labels(blocks: Iterator[bytes], width: int) -> Iterator[tuple]:
    """(id bytes, their lengths, machine names with their comma, is_anomaly, split
    codes) of each block of data lines, read as one uint8 array. A block that csv
    might read otherwise (see _plain) raises a ValueError, as does one after which
    the ids or names, padded to the widest so far, would take 4 times the bytes read."""
    rows = size = widest = 0
    for block in blocks:
        data = np.frombuffer(block, np.uint8)
        if len(cr := np.flatnonzero(data == 13)) and (data[cr + 1] == 10).all():
            data, cr = np.delete(data, cr), cr[:0]  # CRLF line ends read as LF
        ends, commas = np.flatnonzero(data == 10), np.flatnonzero(data == 44)
        if (len(cr) or not block.isascii() or any(map(block.__contains__, _STRICT_BYTES))
                or len(commas) != len(ends) * (width - 1)):
            raise ValueError("a block left to csv")
        # line i's fields lie between its bounds: the LF before it, its commas, its LF
        bounds = np.column_stack([np.r_[-1, ends[:-1]], commas.reshape(len(ends), -1), ends])
        gaps = np.diff(bounds)
        labels, splits = (_which(data, bounds[:, k] + 1, bounds[:, k + 1], words)
                          for k, words in [(2, _TRUTH), (3, SPLITS)])
        if ((gaps < 1).any() or (gaps[:, :2] < 2).any() or (labels < 0).any()
                or (splits < 0).any() or gaps.sum(axis=1).max() > csv.field_size_limit()):
            raise ValueError("a block left to csv")
        rows, size, widest = rows + len(gaps), size + len(data), max(widest, gaps[:, :2].max())
        if rows * widest > 4 * size:
            raise ValueError("ids or machine names too unequal in length for a bytes column")
        lengths = gaps[:, 0] - 1
        yield (_cells(data, bounds[:, 0] + 1, bounds[:, 1]),
               lengths.astype(np.min_scalar_type(lengths.max())),
               _cells(data, bounds[:, 1] + 1, bounds[:, 2] + 1),
               np.array(list(_TRUTH.values()))[labels], splits)


def read_labels(path) -> dict[str, MergedTestSet]:
    """Read recording labels as one test set per split present, in SPLITS order.

    The sets share one `machines` list, in order of first appearance. Row
    structure (field count, empty or duplicate id) is checked over the whole
    file before the first bad label value is reported.
    """
    path = Path(path)
    rows = _rows(path, chunked=bytes)
    header_no, header = next(rows)
    if tuple(header[:4]) != _LABEL_COLUMNS:
        raise FormatError(f"{path.name}:{header_no}: header must start with "
                          f"{','.join(_LABEL_COLUMNS)}")
    if header[4:]:
        warnings.warn(f"{path.name}: ignoring unknown label columns {header[4:]}", stacklevel=2)

    def join(blocks: Iterable[tuple]) -> _LabelSets:
        codes: dict[bytes, int] = {}  # machine name and comma -> code, in order of first appearance
        parts = []  # each block's columns, machines as codes
        for keys, lengths, names, labels, splits in blocks:
            names, first, inverse = np.unique(names, return_index=True, return_inverse=True)
            for name in names[np.argsort(first)].tolist():
                codes.setdefault(name, len(codes))
            machines = np.array([codes[name] for name in names.tolist()],
                                np.min_scalar_type(len(codes)))[inverse]
            parts.append((keys, lengths, machines, labels, splits))
        if not parts:
            raise FormatError(f"{path.name}: no label rows")
        keys, lengths, machines, labels, splits = map(np.concatenate, zip(*parts))
        del parts
        rising = _rises(keys, lengths)
        # a repeat in any split raises (on the C path only, as csv names its line)
        at = np.arange(len(keys)) if rising else np.lexsort((lengths, keys))
        if not (rising or _rises(keys[at], lengths[at])):
            raise ProtocolError("duplicate recording ids in merged test set")
        # the ids split by split, each split in id order: ids[i] is on file row at[i]
        at = at[np.argsort(splits[at], kind="stable")]
        keys, lengths, machines, labels = keys[at], lengths[at], machines[at], labels[at]
        rows = np.empty(len(at), np.min_scalar_type(len(at)))  # the inverse of at
        rows[at] = np.arange(len(at), dtype=rows.dtype)
        del at
        ids = keys.astype(_ID_DTYPE)
        # csv's ids come whole, as str; ids read as bytes hold NUL where a byte is 0,
        # and their bytes column drops trailing NULs
        nul_free = keys.dtype.kind == "S" and np.count_nonzero(keys.view(np.uint8)) == lengths.sum()
        if keys.dtype.kind == "S" and not nul_free:
            lost = lengths - np.strings.str_len(keys)
            for row in np.flatnonzero(lost).tolist():
                ids[row] += "\x00" * int(lost[row])
        del keys, lengths
        names = [name[:-1].decode() for name in codes]
        sets, stop, spans = _LabelSets(), 0, []
        for j, split_rows in enumerate(np.bincount(splits, minlength=len(SPLITS)).tolist()):
            start, stop = stop, stop + split_rows
            if split_rows:
                sets[SPLITS[j]] = MergedTestSet(ids[start:stop], names, machines[start:stop],
                                                labels[start:stop], SPLITS[j], nul_free=nul_free)
                spans.append((start, stop))
        sets.order = _LabelOrder(ids, rows, tuple(spans) if rising else None)
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
            return rec_id, machine.encode() + b",", _TRUTH[anomaly_text], SPLITS.index(split)
        raise FormatError(f"{path.name}:{line_no}: {problem}")

    def strict() -> Iterator[tuple]:
        # csv's rows as _byte_labels' columns, ids (as str, whose order needs no
        # lengths) and names as objects, so no column is padded to the longest
        for ids, names, *columns in _keyed_rows(path, len(header), cells):
            yield (np.array(ids, object), np.zeros(len(ids), np.uint8), np.array(names, object),
                   *map(np.array, columns))

    return _fast_or_strict(rows, join, _byte_labels(rows, len(header)), strict)


def read_features(path, index: _LabelOrder | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read per-recording feature vectors as (ids, (n, d) array), in read_scores' row order."""
    path = Path(path)
    rows = _rows(path, chunked=True)
    header_no, header = next(rows)
    d = len(header) - 1
    expected = ["recording_id"] + [f"f_{i}" for i in range(d)]
    if header != expected or d < 1:
        raise FormatError(f"{path.name}:{header_no}: header must be recording_id,f_0,...,f_{{d-1}}")
    return _float_rows(path, rows, header, "feature", index)


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
