"""Benchmark of the idfree-asd CLI: four seeded workloads, end to end and per module.

Run from the root of a checkout::

    python3 bench/run.py --workload score-table --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seconds 10          # every workload, one after another

Each round of a workload launches the real CLI (``python -m idfree_asd.cli``)
in fresh processes on inputs generated from ``--seed``, times each process
from launch to exit and reads its peak resident set from ``os.wait4``.
Rounds repeat until ``--seconds`` of them have been measured. The first
round's outputs are checked against computations made apart from the
program; every later round must reproduce them byte for byte.

``--trace 0`` reports the end-to-end metrics ``wall_s``, ``peak_rss_mb`` and
``setup_s``. ``--trace 1`` alternates untraced rounds with rounds run under
``bench/spans.py`` and reports the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_SAMPLES = 5
PROCESS_LIMIT_S = 120.0
SETUP_CODE = "import idfree_asd.cli as cli; cli.build_parser()"

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Child:
    """Finished child process: exit code, launch-to-exit wall time, peak RSS.

    The command runs under ``launch.py``, so its peak RSS is its own and not
    this (larger) process's."""

    def __init__(self, argv: list[str], env: dict, cwd: Path, log: Path) -> None:
        launcher = [sys.executable, str(BENCH_DIR / "launch.py"), str(PROCESS_LIMIT_S),
                    str(log), *argv]
        proc = subprocess.Popen(launcher, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=PROCESS_LIMIT_S + 30)
        except BaseException:
            # SIGTERM lets the launcher stop its own child before it exits
            proc.terminate()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"launcher exited {proc.returncode} for {argv}")
        result = json.loads(stdout)
        self.code = result["code"]
        self.wall_s = result["wall_s"]
        self.peak_rss_mb = result["peak_rss_kb"] / 1024.0
        self.log = log


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure_setup(root: Path, env: dict, work: Path) -> float:
    """Median launch-to-exit time of a fresh interpreter that imports the CLI
    and builds its parser. The median also hides the one launch of a fresh
    checkout that writes the bytecode caches."""
    times = []
    for _ in range(SETUP_SAMPLES):
        child = Child([sys.executable, "-c", SETUP_CODE], env, root, work / "setup.log")
        if child.code != 0:
            raise RuntimeError(f"importing the CLI failed:\n{child.log.read_text()}")
        times.append(child.wall_s)
    return statistics.median(times)


def run_round(workload, out: Path, root: Path, env: dict, traced: bool) -> dict:
    out.mkdir()
    children, processes = [], []
    for n, argv in enumerate(workload.commands(out)):
        if traced:
            spans_path = out / f"spans-{n}.json"
            command = [sys.executable, str(BENCH_DIR / "spans.py"), str(spans_path), *argv]
        else:
            command = [sys.executable, "-m", "idfree_asd.cli", *argv]
        child = Child(command, env, root, out / f"log-{n}.txt")
        children.append(child)
        if traced and child.code == 0:
            processes.append(json.loads(spans_path.read_text()))
    return {
        "wall_s": sum(c.wall_s for c in children),
        "peak_rss_mb": max(c.peak_rss_mb for c in children),
        "codes": [c.code for c in children],
        "logs": [c.log for c in children],
        "layers": spans.summarize(processes) if traced else None,
    }


def check_outputs(workload, out: Path) -> Outcome:
    """The workload's check; outputs it cannot read fail every operation."""
    try:
        return workload.check(out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        n = workload.ops_per_round
        return Outcome(n, n, [f"unreadable output: {type(exc).__name__}: {exc}"])


def judge_round(workload, out: Path, result: dict, reference: dict) -> Outcome:
    """Check a round: fully the first time, then byte equality with the first."""
    failed_codes = [(i, c) for i, c in enumerate(result["codes"]) if c != 0]
    if failed_codes:
        outcome = Outcome(workload.ops_per_round)
        for i, code in failed_codes:
            outcome.failed += workload.ops_per_command[i]
            log(f"command {i} exited {code}: {result['logs'][i].read_text()[-2000:]}")
        return outcome
    produced = {path.name: path.read_bytes() for path in workload.outputs(out)
                if path.is_file()}
    if not reference:
        outcome = check_outputs(workload, out)
        if not outcome.errors:
            reference.update(produced)
        return outcome
    if produced == reference:
        return Outcome(workload.ops_per_round)
    outcome = check_outputs(workload, out)
    changed = sorted(name for name in produced if produced[name] != reference.get(name))
    outcome.errors.append(f"outputs differ from the first round: {changed}")
    outcome.failed = max(outcome.failed, 1)
    return outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 work: Path) -> dict:
    env = child_env(root / "src")
    inputs = work / "inputs"
    inputs.mkdir()
    workload = WORKLOADS[name](inputs, seed)
    log(f"{name}: inputs ready")
    setup_s = None if trace else measure_setup(root, env, work)

    untraced, traced, reference = [], [], {}
    total = Outcome()
    measured = 0.0
    n = 0
    # alternate untraced and traced rounds when tracing; whole rounds only
    while measured < seconds or (trace and n % 2):
        is_traced = trace and n % 2 == 1
        out = work / f"round-{n}"
        result = run_round(workload, out, root, env, is_traced)
        measured += result["wall_s"]
        outcome = judge_round(workload, out, result, reference)
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        total.errors += outcome.errors
        (traced if is_traced else untraced).append(result)
        shutil.rmtree(out)
        log(f"{name}: round {n}{' traced' if is_traced else ''} "
            f"{result['wall_s']:.3f} s, {result['peak_rss_mb']:.1f} MB")
        n += 1

    for error in total.errors[:20]:
        log(f"{name}: CHECK FAILED: {error}")
    if trace:
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "setup_s": setup_s,
        }
    units = spans.PER_LAYER if trace else END_TO_END
    return {
        "correct": not total.errors,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Median over traced rounds of each per-layer metric, plus the overhead."""
    layers = [r["layers"] for r in traced if r["layers"] is not None and all(
        c == 0 for c in r["codes"])]
    metrics = {key: statistics.median(layer[key] for layer in layers) if layers else 0.0
               for key in spans.PER_LAYER if not key.startswith("trace.")}
    plain = statistics.median(r["wall_s"] for r in untraced)
    with_spans = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = with_spans
    metrics["trace.untraced_wall_s"] = plain
    metrics["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0)
    return metrics


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time of rounds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # a SIGTERM unwinds like an exception: children are stopped, scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "idfree_asd" / "cli.py").is_file():
        log(f"no program to measure: {root / 'src' / 'idfree_asd'} is missing; "
            f"run from the root of an idfree-asd checkout")
        return 2
    sys.path.insert(0, str(root / "src"))
    import numpy
    import scipy

    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    log(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, {os.cpu_count()} cpus, thread settings {threads}")

    scratch_parent = root / ".bench_work"
    scratch_parent.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_parent))
            try:
                results[name] = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace), root, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    finally:
        try:
            scratch_parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {str(result['correct']).lower()}")
        for key, metric in result["metrics"].items():
            print(f"  {key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": metric for name, result in results.items()
                    for key, metric in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
