"""The public surface: every exported name resolves, and the bench tracer,
which wraps package names by attribute, still runs the CLI end to end."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["idfree_asd"] + [
    f"idfree_asd.{name}" for name in ("cli", "io", "metrics", "protocol", "scorers", "simulate")
])
def test_every_exported_name_resolves(module):
    namespace = importlib.import_module(module)
    assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == []


def test_bench_tracer_runs_a_small_simulate(tmp_path):
    # a package name that bench/spans.py wraps and that no longer exists
    # fails here, not only in a traced bench run
    spans = tmp_path / "spans.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "spans.py"), str(spans), "simulate",
         "--k", "2", "--d", "3", "--n-ref", "6", "--n-norm", "8", "--n-anom", "4",
         "--out", str(tmp_path / "point.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    names = {span[0] for span in json.loads(spans.read_text())}
    assert {"simulate.run_point", "metrics.aggregate", "io.write"} <= names
