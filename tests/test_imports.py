"""Each submodule imports on its own, the package itself imports nothing, and
a read-only CLI call loads no numpy.

Every case runs in a fresh interpreter, so a module cannot lean on another
module that an earlier import happened to load.
"""

import json
import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import hashjack
from hashjack.cli import entrypoint

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


def test_cli_import_loads_no_numpy():
    done = run_fresh("import sys, hashjack.cli\nprint('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A small run directory driven through every stage, in this process."""
    root = tmp_path_factory.mktemp("finished")
    config = {
        "seed": 3,
        "parties": [{"name": "party1", "partisans": 40, "contras": 15}],
        "public_hashtags": [{"name": "agenda", "pro": 60, "contra": 20}],
        "activity": {"zipf_s": 1.05, "events_per_member": 6, "attention_s": 2.0},
        "mixing": {"p_in": 0.95, "p_out": 0.001},
        "participation": 0.8,
        "hijack": {"party1": {"agenda": 0.25}},
    }
    (root / "config.json").write_text(json.dumps(config))
    corpus, truth = root / "corpus.jsonl", root / "truth.json"
    assert entrypoint(["synth", "--config", str(root / "config.json"),
                       "--out", str(corpus), "--truth", str(truth)]) == 0
    sides = json.loads(truth.read_text())["sides"]
    labels = [
        {"network": tag, "seeds": {side: sides[tag][side][:3] for side in ("pro", "contra")}}
        for tag in ("party1", "agenda")
    ]
    (root / "labels.json").write_text(json.dumps(labels))
    run = root / "run"
    assert entrypoint(["pipeline", "ingest", "build", "communities", "label", "polarisation",
                       "odds", "activity", "report", "--input", str(corpus),
                       "--tracked", "party1,agenda", "--labels", str(root / "labels.json"),
                       "--targets", "agenda", "--run-dir", str(run)]) == 0
    return run


@pytest.mark.parametrize("argv", [
    ["label", "report", "--network", "agenda"],
    ["export", "--network", "agenda", "--gexf", "{tmp}/agenda.gexf"],
    ["report"],
], ids=["label report", "export", "report"])
def test_read_only_call_loads_no_numpy(finished, tmp_path, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--run-dir", str(finished)]
    done = run_fresh(
        "import sys\n"
        "from hashjack.cli import entrypoint\n"
        f"code = entrypoint({argv!r})\n"
        "print(code, 'numpy' in sys.modules)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False", done.stderr
