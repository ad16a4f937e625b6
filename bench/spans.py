"""Span tracing of one CLI process from outside the package, and its summary.

Run as a script, ``python bench/spans.py SPANS.json CLI-ARGS...`` imports
``idfree_asd.cli`` inside a span, replaces the public names that the package
modules call each other through with span-recording wrappers, runs
``idfree_asd.cli.main(CLI-ARGS)`` and, at exit, writes the spans kept in
memory to SPANS.json. Nothing under ``src/`` is edited.

A span records its name, its parent span, wall and process-CPU time at open
and close, the process's peak resident set at close, and optional work
counts. ``summarize`` turns the spans of one or more processes into the
per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

LAYERS = ("cli", "io", "protocol", "metrics", "scorers", "simulate")


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0,
                           time.process_time(), 0.0, 0, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        span[5] = time.process_time()
        span[6] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        span[7] = counts
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """Callable that runs ``fn`` inside a span; ``count`` maps
        (args, kwargs, result) to the span's work counts."""

        def traced(*args, **kwargs):
            index = self.open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, kwargs, result)
                return result
            finally:
                self.close(index, counts)

        return traced


def _cells_scores(args, kwargs, result):
    machines, table, _ = result
    return {"cells": len(table) * (len(machines) + 1)}


def _cells_labels(args, kwargs, result):
    width = 5 if any(rec.domain is not None for rec in result) else 4
    return {"cells": len(result) * width}


def _cells_features(args, kwargs, result):
    ids, vectors = result
    return {"cells": len(ids) * (vectors.shape[1] + 1)}


def _rows(args, kwargs, result):
    merged = args[1] if len(args) > 1 else kwargs["merged"]
    return {"rows": len(merged.recordings)}


def install(tracer: Tracer) -> None:
    """Wrap the public names in the module namespaces that call them."""
    from idfree_asd import cli, io, protocol, scorers, simulate

    originals = {
        "protocol.merge_test_sets": protocol.merge_test_sets,
        "protocol.ScoreMatrix": protocol.ScoreMatrix,
        "protocol.full_report": protocol.full_report,
        "scorers.ReferenceSet": scorers.ReferenceSet,
        "scorers.build_score_matrix": scorers.build_score_matrix,
        "simulate.run_point": simulate.run_point,
    }

    def put(module, attr, name, count=None):
        setattr(module, attr, tracer.wrap(originals.get(name, getattr(module, attr)),
                                          name, count))

    for attr, count in (("read_scores", _cells_scores), ("read_labels", _cells_labels),
                        ("read_features", _cells_features), ("read_manifest", None)):
        put(io, attr, f"io.{attr}", count)
    io.file_digest = tracer.wrap(io.file_digest, "io.file_digest")
    for attr in ("evaluation_document", "simulate_document", "sweep_document",
                 "document_text", "sweep_csv_text", "scatter_svg_text",
                 "atomic_write_text"):
        setattr(io, attr, tracer.wrap(getattr(io, attr), "io.write"))

    for module in (cli, simulate):
        put(module, "merge_test_sets", "protocol.merge_test_sets")
        put(module, "ReferenceSet", "scorers.ReferenceSet")
        put(module, "build_score_matrix", "scorers.build_score_matrix")
        put(module, "full_report", "protocol.full_report")
    put(cli, "ScoreMatrix", "protocol.ScoreMatrix")
    put(scorers, "ScoreMatrix", "protocol.ScoreMatrix")
    put(scorers, "ReferenceSet", "scorers.ReferenceSet")
    put(cli, "run_point", "simulate.run_point")
    put(simulate, "run_point", "simulate.run_point")
    put(cli, "sweep", "simulate.sweep")
    put(simulate, "generate", "simulate.generate")
    put(protocol, "evaluate_known", "protocol.evaluate_known", _rows)
    put(protocol, "evaluate_unknown", "protocol.evaluate_unknown", _rows)
    for attr in ("auc", "pauc", "aggregate", "delta_norm"):
        put(protocol, attr, f"metrics.{attr}")

    scoring_function = scorers.scoring_function

    def traced_scoring_function(spec, ref):
        batch = tracer.wrap(scoring_function, "scorers.scoring_function")(spec, ref)
        # distance matrices a batch call fills: the k-nearest scorer's and the
        # local-density normalizer's, each rows x n_ref float64
        per_row = ref.n * ((spec.kind == "nearest_reference")
                           + (spec.normalizer.kind == "local_density"))
        return tracer.wrap(batch, "scorers.batch",
                           lambda args, kwargs, result: {"pairs": len(args[0]) * per_row})

    scorers.scoring_function = traced_scoring_function


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    index = tracer.open("cli.import")
    import idfree_asd.cli as cli

    tracer.close(index)
    install(tracer)
    index = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(index)
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


# per-layer metric name -> unit; a workload that never enters a layer reads 0
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "io.read_scores_s": "s",
    "io.read_labels_s": "s",
    "io.read_features_s": "s",
    "io.read_manifest_s": "s",
    "io.write_s": "s",
    "io.digest_s": "s",
    "io.cells": "count",
    "io.cells_per_s": "1/s",
    "protocol.merge_test_sets_s": "s",
    "protocol.ScoreMatrix_s": "s",
    "protocol.evaluate_known.self_s": "s",
    "protocol.evaluate_unknown.self_s": "s",
    "protocol.rows": "count",
    "metrics.auc_s": "s",
    "metrics.pauc_s": "s",
    "metrics.aggregate_s": "s",
    "scorers.ReferenceSet.calls": "count",
    "scorers.ReferenceSet_s": "s",
    "scorers.scoring_function_s": "s",
    "scorers.batch_s": "s",
    "scorers.distance_pairs": "count",
    "scorers.distance_bytes": "bytes",
    "scorers.pairs_per_s": "1/s",
    "scorers.build_score_matrix.self_s": "s",
    "simulate.generate_s": "s",
    "simulate.run_point_median_s": "s",
    "simulate.run_point_p95_s": "s",
    "simulate.points": "count",
    **{f"{layer}.{key}": unit for layer in LAYERS
       for key, unit in (("self_s", "s"), ("self_cpu_s", "s"), ("calls", "count"),
                         ("peak_rss_mb", "MB"))},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
}


def _by_name(processes: list[list[list]]) -> tuple[dict, dict, list[float]]:
    """Totals per span name, per layer, and every run_point duration."""
    names: dict[str, dict] = {}
    layers = {layer: {"self_s": 0.0, "self_cpu_s": 0.0, "calls": 0, "peak_rss_mb": 0.0}
              for layer in LAYERS}
    run_points: list[float] = []
    for spans in processes:
        child_wall = [0.0] * len(spans)
        child_cpu = [0.0] * len(spans)
        for name, parent, t0, t1, c0, c1, _, _ in spans:
            if parent >= 0:
                child_wall[parent] += t1 - t0
                child_cpu[parent] += c1 - c0
        for i, (name, _, t0, t1, c0, c1, rss_kb, counts) in enumerate(spans):
            entry = names.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += t1 - t0
            entry["self_s"] += t1 - t0 - child_wall[i]
            entry["calls"] += 1
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
            layer = layers[name.split(".", 1)[0]]
            layer["self_s"] += t1 - t0 - child_wall[i]
            layer["self_cpu_s"] += c1 - c0 - child_cpu[i]
            layer["calls"] += 1
            layer["peak_rss_mb"] = max(layer["peak_rss_mb"], rss_kb / 1024.0)
            if name == "simulate.run_point":
                run_points.append(t1 - t0)
    return names, layers, run_points


def summarize(processes: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one traced round (the spans of each of its processes)."""
    names, layers, run_points = _by_name(processes)

    def get(name, key="s"):
        return names.get(name, {}).get(key, 0)

    cells = sum(get(f"io.read_{kind}", "cells") for kind in ("scores", "labels", "features"))
    read_s = sum(get(f"io.read_{kind}") for kind in ("scores", "labels", "features"))
    pairs = get("scorers.batch", "pairs")
    batch_s = get("scorers.batch")
    run_points.sort()
    out = {
        "cli.import_s": get("cli.import"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "io.read_scores_s": get("io.read_scores"),
        "io.read_labels_s": get("io.read_labels"),
        "io.read_features_s": get("io.read_features"),
        "io.read_manifest_s": get("io.read_manifest"),
        "io.write_s": get("io.write"),
        "io.digest_s": get("io.file_digest"),
        "io.cells": cells,
        "io.cells_per_s": cells / read_s if read_s > 0 else 0.0,
        "protocol.merge_test_sets_s": get("protocol.merge_test_sets"),
        "protocol.ScoreMatrix_s": get("protocol.ScoreMatrix"),
        "protocol.evaluate_known.self_s": get("protocol.evaluate_known", "self_s"),
        "protocol.evaluate_unknown.self_s": get("protocol.evaluate_unknown", "self_s"),
        "protocol.rows": get("protocol.evaluate_unknown", "rows"),
        "metrics.auc_s": get("metrics.auc"),
        "metrics.pauc_s": get("metrics.pauc"),
        "metrics.aggregate_s": get("metrics.aggregate"),
        "scorers.ReferenceSet.calls": get("scorers.ReferenceSet", "calls"),
        "scorers.ReferenceSet_s": get("scorers.ReferenceSet"),
        "scorers.scoring_function_s": get("scorers.scoring_function"),
        "scorers.batch_s": batch_s,
        "scorers.distance_pairs": pairs,
        "scorers.distance_bytes": 8 * pairs,
        "scorers.pairs_per_s": pairs / batch_s if batch_s > 0 else 0.0,
        "scorers.build_score_matrix.self_s": get("scorers.build_score_matrix", "self_s"),
        "simulate.generate_s": get("simulate.generate"),
        "simulate.run_point_median_s": statistics.median(run_points) if run_points else 0.0,
        # nearest-rank p95 only when at least 10 samples lie beyond it
        "simulate.run_point_p95_s": (run_points[-(len(run_points) // 20) - 1]
                                     if len(run_points) >= 200 else 0.0),
        "simulate.points": len(run_points),
    }
    for layer, totals in layers.items():
        for key, value in totals.items():
            out[f"{layer}.{key}"] = value
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
