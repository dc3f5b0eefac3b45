"""Each submodule imports on its own, and the package itself imports nothing.

Every case runs in a fresh interpreter, so a module cannot lean on another
module that an earlier import happened to load.
"""

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import hashjack

SRC = str(Path(hashjack.__file__).resolve().parent.parent)
MODULES = sorted(info.name for info in pkgutil.iter_modules(hashjack.__path__))


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.fixture(scope="module")
def fresh_imports():
    """`import hashjack.<module>` in one interpreter per module, a few at a time."""
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        done = pool.map(lambda module: run_fresh(f"import hashjack.{module}"), MODULES)
        return dict(zip(MODULES, done))


def test_every_module_is_listed():
    assert {"cli", "community", "pipeline", "synth"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(fresh_imports, module):
    done = fresh_imports[module]
    assert done.returncode == 0, done.stderr


def test_package_loads_no_submodule():
    done = run_fresh(
        "import sys, hashjack\n"
        "print(sorted(m for m in sys.modules if m.startswith('hashjack.')))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
