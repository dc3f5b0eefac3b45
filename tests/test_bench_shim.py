"""The benchmark's tracer wraps hashjack functions by name; keep those names."""

import importlib
import importlib.util
import json
from pathlib import Path

from hashjack.cli import entrypoint
from test_imports import run_fresh

SHIM = Path(__file__).resolve().parent.parent / "bench" / "shim.py"


def load_shim():
    spec = importlib.util.spec_from_file_location("bench_shim", SHIM)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    return shim


def test_every_traced_function_exists():
    shim = load_shim()
    missing = [
        f"hashjack.{module}.{name}"
        for module, name, _span, _extra in shim.SPANS
        if not callable(getattr(importlib.import_module(f"hashjack.{module}"), name, None))
    ]
    assert shim.SPANS and not missing


def test_cli_import_loads_every_traced_module():
    """The tracer looks each SPANS module up in sys.modules right after
    `import hashjack.cli`, so that import must load every one of them."""
    modules = sorted({f"hashjack.{module}" for module, *_ in load_shim().SPANS})
    done = run_fresh(
        f"import sys, hashjack.cli\nprint([m for m in {modules!r} if m not in sys.modules])"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


CONFIG = {
    "seed": 3,
    "parties": [{"name": "party1", "partisans": 40, "contras": 15}],
    "public_hashtags": [{"name": "agenda", "pro": 60, "contra": 20}],
    "activity": {"zipf_s": 1.05, "events_per_member": 6, "attention_s": 2.0},
    "mixing": {"p_in": 0.95, "p_out": 0.001},
    "participation": 0.8,
}


def test_tracer_reaches_every_stage(tmp_path):
    """The tracer replaces the stage functions in the pipeline module, so
    `pipeline` must look each one up there when it runs the stage."""
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    corpus = tmp_path / "corpus.jsonl"
    assert entrypoint(["synth", "--config", str(tmp_path / "config.json"),
                       "--out", str(corpus)]) == 0
    argv = ["pipeline", "ingest", "build", "communities", "--input", str(corpus),
            "--tracked", "party1,agenda", "--run-dir", str(tmp_path / "run")]

    def traced(out):
        done = run_fresh(
            f"import runpy, sys\nsys.argv = {[str(SHIM), str(out), *argv]!r}\n"
            f"runpy.run_path({str(SHIM)!r}, run_name='__main__')"
        )
        assert done.returncode == 0, done.stderr
        return json.loads(out.read_text())

    cold = traced(tmp_path / "cold.json")
    assert [cold.get(f"pipeline.{stage}_calls") for stage in ("ingest", "build", "communities")
            ] == [1, 1, 1]
    assert cold["pipeline.stages_run"] == 3
    assert traced(tmp_path / "again.json")["pipeline.stages_skipped"] == 3
