"""The benchmark's tracer wraps hashjack functions by name; keep those names."""

import importlib
import importlib.util
from pathlib import Path

SHIM = Path(__file__).resolve().parent.parent / "bench" / "shim.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_shim", SHIM)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    missing = [
        f"hashjack.{module}.{name}"
        for module, name, _span, _extra in shim.SPANS
        if not callable(getattr(importlib.import_module(f"hashjack.{module}"), name, None))
    ]
    assert shim.SPANS and not missing
