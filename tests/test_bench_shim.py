"""The benchmark's tracer wraps hashjack functions by name; keep those names."""

import importlib
import importlib.util
from pathlib import Path

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
