"""Command-line interface: evaluate, simulate, sweep, check-table.

Exit codes: 0 success, 1 usage error (bad flags or unreadable paths),
2 data error (malformed inputs, failed checks), 3 unexpected internal
failure. Errors print one JSON object to stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import io as formats
from .metrics import AVERAGING_MODES, MetricError, delta_norm
from .protocol import EvalConfig, ProtocolError, _placed_columns, _report
from .scorers import ReferenceSet, ScorerError, _machines, _scorer

# bench/spans.py traces through these names
from .protocol import ScoreMatrix, full_report, merge_test_sets  # noqa: F401
from .scorers import build_score_matrix  # noqa: F401
from .simulate import (
    DEFAULT_REPEATS,
    DEFAULT_SCORER,
    DEFAULT_SEPARATIONS,
    SimConfig,
    SimError,
    run_point,
    sweep,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# one-unit tolerance in the last printed digit of a two-decimal percentage
CHECK_TOLERANCE_PERCENT = 0.005

_DATA_ERRORS = (
    formats.FormatError,
    MetricError,
    ProtocolError,
    ScorerError,
    SimError,
)


class UsageError(Exception):
    """Bad flag combinations or values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def _emit(doc: dict, out: str | None) -> None:
    text = formats.document_text(doc)
    if out is None:
        sys.stdout.write(text)
    else:
        formats.atomic_write_text(out, text)


def _resolve_orientation(flag: str | None, header: str | None) -> bool:
    """True when higher scores mean more anomalous; the flag wins."""
    if flag is not None:
        return flag == "true"
    if header is not None:
        return header == "higher"
    return True


def _scatter_path(out: str) -> Path:
    return Path(out).with_suffix(".csv")


def _check_args(args) -> None:
    """Every check that needs no input file; fails before any computation."""
    out, svg = getattr(args, "out", None), getattr(args, "svg", None)
    for path in (out, svg):
        if path is not None and not Path(path).parent.is_dir():
            raise UsageError(f"output directory {str(Path(path).parent)!r} does not exist")
    if not 0.0 < getattr(args, "pauc_p", 1.0) <= 1.0:
        raise UsageError(f"--pauc-p must lie in (0, 1], got {args.pauc_p}")
    if hasattr(args, "svg"):  # the commands that write a scatter table next to --out
        csv_path = _scatter_path(out)
        if csv_path == Path(out):
            raise UsageError("--out must not end in .csv; the scatter table takes that name")
        if svg and Path(svg).resolve() in (Path(out).resolve(), csv_path.resolve()):
            raise UsageError("--svg must differ from --out and from the scatter table "
                             f"{str(csv_path)!r}")


def _cmd_evaluate(args) -> int:
    if (args.scores is None) == (args.manifest is None):
        raise UsageError("provide exactly one of --scores and --manifest")
    if args.manifest is not None and args.higher_is_anomalous is not None:
        raise UsageError("--higher-is-anomalous applies to --scores files only")
    config = EvalConfig(pauc_p=args.pauc_p, average=args.avg)
    reports, higher, inputs = _split_reports(args, config)
    # hashed once the labels and scores are released and their heap handed back:
    # the digest maps OpenSSL (3.5 MB resident)
    _hand_back_freed_heap()
    inputs = [formats.file_digest(path, role) for path, role in inputs]
    _emit(formats.evaluation_document(reports, inputs, config, higher), args.out)
    return EXIT_OK


def _hand_back_freed_heap() -> None:
    # glibc keeps freed heap resident until asked (malloc_trim; skipped where the
    # C library lacks it), so what a stage freed would stack under the next one
    if trim := getattr(ctypes.pythonapi, "malloc_trim", None):
        trim(0)


def _split_reports(args, config: EvalConfig) -> tuple[dict, bool, list[tuple]]:
    """evaluate's report of each split, its orientation and its (path, role) inputs."""
    # the labels come first, so a label error is reported before any other, and
    # each chunk of the score or feature table is reduced to the protocols'
    # columns as it is joined to them; the ids are matched as keys, never decoded.
    # The label read's freed blocks are handed back before the columns are made
    test_sets = formats.read_labels(args.labels)
    _hand_back_freed_heap()
    if args.scores is not None:
        placement = (lambda machines, orientation: _placed_columns(machines, test_sets.values(),
                     not _resolve_orientation(args.higher_is_anomalous, orientation)))
        machines, columns, header_orientation = formats._score_table(args.scores, test_sets,
                                                                     placement)
        higher = _resolve_orientation(args.higher_is_anomalous, header_orientation)
        inputs = [(args.scores, "scores"), (args.labels, "labels")]
    else:
        higher = True
        manifest = formats.read_manifest(args.manifest)
        # the references come before the feature table, whose chunks are scored
        # against every machine as they are joined
        references = sorted(manifest.references.items())
        specs = {machine: (manifest.scorer, ReferenceSet(machine, formats._feature_table(path)[1]))
                 for machine, path in references}
        inputs = [(args.manifest, "manifest"), (manifest.features, "features"),
                  (args.labels, "labels")] + [(path, f"reference:{m}") for m, path in references]
        machines = _machines(specs)
        columns, place = _placed_columns(machines, test_sets.values(), False)
        formats._feature_table(manifest.features, test_sets, _scorer(specs, place))
    reports = {split: _report(split_columns, merged, machines, config)
               for (split, merged), split_columns in zip(test_sets.items(), columns)}
    return reports, higher, inputs


def _cmd_check_table(args) -> int:
    rows = formats.read_check_table(args.table)
    doc_rows = []
    for row in rows:
        try:
            computed = delta_norm(row.a_known, row.a_unknown)
        except MetricError as exc:
            raise MetricError(f"{Path(args.table).name}:{row.line}: {exc}") from None
        if computed is None:
            ok = row.expected_percent is None
        elif row.expected_percent is None:
            ok = False
        else:
            ok = abs(100.0 * computed - row.expected_percent) <= (
                CHECK_TOLERANCE_PERCENT + 1e-12
            )
        doc_rows.append(
            {
                "label": row.label,
                "a_known": row.a_known,
                "a_unknown": row.a_unknown,
                "expected_percent": (
                    "undefined"
                    if row.expected_percent is None
                    else f"{row.expected_percent:.2f}"
                ),
                "computed_fraction": computed,
                "computed_percent": (
                    "undefined" if computed is None else formats.percent_text(computed)
                ),
                "pass": ok,
            }
        )
    doc = formats.check_table_document(
        doc_rows, [formats.file_digest(args.table, "table")], CHECK_TOLERANCE_PERCENT
    )
    _emit(doc, args.out)
    return EXIT_OK if doc["all_pass"] else EXIT_DATA


def _sim_config(args, separation: float) -> SimConfig:
    # every field but the separation comes from the flag of the same name
    flags = {f.name: getattr(args, f.name) for f in fields(SimConfig) if f.name != "separation"}
    return SimConfig(separation=separation, **flags)


def _write_points(args, doc: dict, points) -> None:
    formats.atomic_write_text(args.out, formats.document_text(doc))
    formats.atomic_write_text(_scatter_path(args.out), formats.sweep_csv_text(points))
    if args.svg:
        pairs = [(p.id_accuracy_normalized, p.delta_norm) for p in points
                 if p.id_accuracy_normalized is not None and p.delta_norm is not None]
        formats.atomic_write_text(args.svg, formats.scatter_svg_text(pairs))


def _cmd_simulate(args) -> int:
    config = _sim_config(args, args.separation)
    eval_config = EvalConfig(pauc_p=args.pauc_p, average=args.avg)
    point = run_point(config, DEFAULT_SCORER, eval_config)
    _write_points(args, formats.simulate_document(point, config, DEFAULT_SCORER, eval_config),
                  [point])
    return EXIT_OK


def _cmd_sweep(args) -> int:
    base = _sim_config(args, 0.0)
    eval_config = EvalConfig(pauc_p=args.pauc_p, average=args.avg)
    points = sweep(base, args.separations, args.repeats, DEFAULT_SCORER, eval_config)
    _write_points(args, formats.sweep_document(points, base, args.separations, args.repeats,
                                               DEFAULT_SCORER, eval_config), points)
    return EXIT_OK


def _separation_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("empty separation list")
    return values


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pauc-p", type=float, default=0.1,
                        help="FPR cap for partial AUC (default 0.1)")
    parser.add_argument("--avg", choices=AVERAGING_MODES, default="harmonic",
                        help="aggregation over per-machine AUC and pAUC values")


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    defaults = SimConfig()
    parser.add_argument("--k", type=int, default=defaults.k, help="machine count")
    parser.add_argument("--d", type=int, default=defaults.d, help="feature dimension")
    parser.add_argument("--n-ref", type=int, default=defaults.n_ref,
                        help="reference vectors per machine")
    parser.add_argument("--n-norm", type=int, default=defaults.n_norm,
                        help="normal test recordings per machine")
    parser.add_argument("--n-anom", type=int, default=defaults.n_anom,
                        help="anomalous test recordings per machine")
    parser.add_argument("--spread", type=float, default=defaults.spread,
                        help="within-machine standard deviation")
    parser.add_argument("--anomaly-offset", type=float, default=defaults.anomaly_offset,
                        help="radial shift of anomalies from their machine center")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="unsigned 64-bit generator seed")
    parser.add_argument("--svg", metavar="PATH",
                        help="also write a static scatter SVG")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="idfree-asd",
        description="Evaluate anomalous sound detection without machine identity.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    evaluate = sub.add_parser(
        "evaluate", help="score a labeled test set with and without identity"
    )
    evaluate.add_argument("--scores", metavar="CSV",
                          help="wide per-machine score table")
    evaluate.add_argument("--manifest", metavar="JSON",
                          help="scorer manifest for feature-driven runs")
    evaluate.add_argument("--labels", required=True, metavar="CSV",
                          help="recording labels")
    evaluate.add_argument("--higher-is-anomalous", choices=("true", "false"),
                          help="override the score file's orientation header")
    _add_eval_flags(evaluate)
    evaluate.add_argument("--out", metavar="JSON",
                          help="report path (default: stdout)")
    evaluate.set_defaults(handler=_cmd_evaluate)

    check = sub.add_parser(
        "check-table", help="recompute expected degradation percentages"
    )
    check.add_argument("--table", required=True, metavar="CSV",
                       help="label,a_known,a_unknown,expected rows")
    check.add_argument("--out", metavar="JSON",
                       help="report path (default: stdout)")
    check.set_defaults(handler=_cmd_check_table)

    simulate = sub.add_parser(
        "simulate", help="run one synthetic evaluation point"
    )
    simulate.add_argument("--separation", type=float,
                          default=SimConfig().separation,
                          help="distance between machine cluster centers")
    _add_sim_flags(simulate)
    _add_eval_flags(simulate)
    simulate.add_argument("--out", required=True, metavar="JSON",
                          help="report path; scatter CSV lands next to it")
    simulate.set_defaults(handler=_cmd_simulate)

    sweep_parser = sub.add_parser(
        "sweep", help="sweep separations and tabulate the degradation scatter"
    )
    sweep_parser.add_argument("--separations", type=_separation_list,
                              default=DEFAULT_SEPARATIONS, metavar="S1,S2,...",
                              help="comma-separated separation values")
    sweep_parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                              help="independent repeats per separation")
    _add_sim_flags(sweep_parser)
    _add_eval_flags(sweep_parser)
    sweep_parser.add_argument("--out", required=True, metavar="JSON",
                              help="report path; scatter CSV lands next to it")
    sweep_parser.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
        return args.handler(args)
    except UsageError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except OSError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except _DATA_ERRORS as exc:
        return _fail(EXIT_DATA, "data", str(exc))
    except Exception as exc:
        return _fail(EXIT_INTERNAL, "internal", f"{type(exc).__name__}: {exc}")


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
