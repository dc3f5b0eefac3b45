#!/usr/bin/env python3
"""Benchmark of the hashjack CLI: cold pipeline runs and the manual relabel loop.

Usage (from the repository root):

    python3 bench/run.py --workload cold-pipeline --seed 1 --seconds 18 --trace 0

Every operation runs the real CLI (``python -m hashjack ...``) in child
processes, one at a time, and every operation's outputs are checked against
computations made here, apart from the program (see ``checks.py``). The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (median per
operation); with ``--trace 1`` operations alternate between traced calls,
which go through ``shim.py`` and report per-layer timers and counters, and
untraced ones, whose wall time gives the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

# Pinned before numpy is imported (by checks) so this process stays
# single-threaded; the same settings go to every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

MiB = 2**20
TRACKED = ("party1", "party2", "agenda")
TARGET = "agenda"
RESOLUTION = "0.5"
# Set-up is repeated and its median reported, so work moved into set-up shows.
SETUP_REPEATS = 2
# Seed-list sizes of the two labels files (top planted accounts per side).
SEED_LIST_SIZES = (10, 20)
# (partisans, contras) per party and (pro, contra) for the public hashtag:
# the criterion-8 corpus shape, and a quarter of it for the timed runs.
SCALES = {
    "quarter": ((6000, 1250), (9000, 1500)),
    "full": ((24000, 5000), (36000, 6000)),
}
# Fixed lines injected into the cold-pipeline input: five malformed lines
# and three that repeat the id of the first generated event (t00000000).
_TS = "2020-03-01T00:00:00Z"
INJECTED = (
    '{"tweet_id": "bad-1", "author": "x"',
    '["not", "an", "object"]',
    json.dumps({"tweet_id": "bad-3", "author": "u1", "retweeted_author": "u1",
                "hashtags": ["#agenda"], "timestamp": _TS}),
    json.dumps({"tweet_id": "bad-4", "author": "u1", "retweeted_author": "u2",
                "hashtags": ["#agenda"], "timestamp": "yesterday"}),
    json.dumps({"tweet_id": "bad-5", "author": "u1", "retweeted_author": "u2",
                "hashtags": ["#not a tag"], "timestamp": _TS}),
) + tuple(
    json.dumps({"tweet_id": "t00000000", "author": f"dup{i}", "retweeted_author": "u2",
                "hashtags": ["#party1"], "timestamp": _TS})
    for i in range(3)
)
INJECT_EVERY = 10_000  # one injected line after every this many corpus lines

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "run_dir_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "cli.import_s": "s",
    **{f"pipeline.{stage}_s": "s" for stage in (
        "ingest", "build", "communities", "label", "polarisation", "odds",
        "activity", "report", "export", "label_report")},
    "pipeline.skip_s": "s",
    "pipeline.stages_run": "count",
    "pipeline.stages_skipped": "count",
    "ingest.parse_s": "s",
    "ingest.parse_calls": "count",
    "ingest.records_parsed": "count",
    "ingest.split_s": "s",
    "ingest.stats_s": "s",
    "ingest.write_s": "s",
    "graph.build_s": "s",
    "graph.projection_s": "s",
    "graph.edges": "count",
    "community.louvain_s": "s",
    "community.modularity_s": "s",
    "community.modularity_calls": "count",
    "community.levels": "count",
    "labeling.top_retweeted_s": "s",
    "labeling.label_s": "s",
    "labeling.partisans_s": "s",
    "metrics.polarisation_s": "s",
    "metrics.concentration_s": "s",
    "metrics.composition_s": "s",
    "odds.matrix_s": "s",
    "store.dump_s": "s",
    "store.written_mb": "MiB",
    "store.load_s": "s",
    "store.load_calls": "count",
    "store.loaded_mb": "MiB",
    "store.decode_s": "s",
    "store.digest_s": "s",
    "store.digest_calls": "count",
    "store.hashed_mb": "MiB",
    "gexf.document_s": "s",
    "gexf.out_mb": "MiB",
    "synth.generate_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class CallFailed(Exception):
    """A hashjack child process exited with a non-zero code."""


class Runner:
    """Runs hashjack CLI calls in child processes and records what each cost."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.calls: list[dict] = []
        self._n = 0

    def hashjack(self, *args, traced: bool = False, stdout: Path | None = None) -> None:
        self._n += 1
        log = self.work / "logs" / f"{self._n:05d}"
        trace_path = log.with_suffix(".trace.json")
        argv = [str(a) for a in args]
        if traced:
            cmd = [sys.executable, str(BENCH / "shim.py"), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-m", "hashjack", *argv]
        out_path = stdout or log.with_suffix(".out")
        err_path = log.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawn(cmd[0], cmd, self.env, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            raise CallFailed(f"hashjack {' '.join(argv[:3])} exited {code}: {' | '.join(tail)}")
        call = {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss * 1024 / MiB}
        if traced:
            call["trace"] = json.loads(trace_path.read_text())
        self.calls.append(call)


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / MiB


def synth_config(seed: int, scale: str) -> dict:
    (partisans, contras), (pro, contra) = SCALES[scale]
    return {
        "seed": seed,
        "parties": [
            {"name": "party1", "partisans": partisans, "contras": contras},
            {"name": "party2", "partisans": partisans, "contras": contras},
        ],
        "public_hashtags": [{"name": "agenda", "pro": pro, "contra": contra}],
        "activity": {"zipf_s": 1.05, "events_per_member": 3.7, "attention_s": 2.2},
        "mixing": {"p_in": 0.95, "p_out": 0.001},
        "participation": 0.8,
        "hijack": {"party1": {"agenda": 0.1}},
    }


class Inputs:
    """Corpus, truth and the two labels files for one workload seed."""

    def __init__(self, runner: Runner, dest: Path, config: dict, inject: bool,
                 traced: bool = False):
        dest.mkdir(parents=True)
        config_path = dest / "synth.json"
        config_path.write_text(json.dumps(config))
        self.clean = dest / "generated.jsonl"
        truth_path = dest / "truth.json"
        runner.hashjack("synth", "--config", config_path, "--out", self.clean,
                        "--truth", truth_path, traced=traced)
        truth = json.loads(truth_path.read_text())
        self.sides = truth["sides"]
        self.event_count = truth["event_count"]
        self.labels = []
        for size in SEED_LIST_SIZES:
            path = dest / f"labels-{size}.json"
            path.write_text(json.dumps([
                {"network": tag, "seeds": {side: accounts[:size]
                                           for side, accounts in sides.items()}}
                for tag, sides in sorted(self.sides.items())
            ]))
            self.labels.append(path)
        self.injected = len(INJECTED) if inject else 0
        self.corpus = self.clean
        if inject:
            self.corpus = dest / "corpus.jsonl"
            with open(self.clean, encoding="utf-8") as src, \
                    open(self.corpus, "w", encoding="utf-8") as dst:
                pending = list(INJECTED)
                for n, line in enumerate(src, start=1):
                    dst.write(line)
                    if pending and n % INJECT_EVERY == 0:
                        dst.write(pending.pop(0) + "\n")
                for line in pending:
                    dst.write(line + "\n")


def pipeline_args(inputs: Inputs, labels: Path, run_dir: Path) -> list:
    return [
        "pipeline", "ingest", "build", "communities", "label", "polarisation",
        "odds", "activity", "report", "--input", inputs.corpus,
        "--tracked", ",".join(TRACKED), "--resolution", RESOLUTION,
        "--labels", labels, "--targets", TARGET, "--run-dir", run_dir,
    ]


class Workload:
    """Set-up, one operation and its checks; subclasses fill in the stages."""

    inject = False

    def __init__(self, runner: Runner, seed: int, scale: str):
        self.runner = runner
        self.seed = seed
        self.scale = scale
        self.recount: checks.Recount | None = None

    def setup(self, dest: Path, repeat: int, traced: bool) -> None:
        self.inputs = Inputs(self.runner, dest / "inputs",
                             synth_config(self.seed, self.scale), self.inject, traced)
        self.run_dir = dest / "run"
        self.prepare(repeat, traced)

    def prepare(self, repeat: int, traced: bool) -> None:
        """Upstream stages the operations start from."""

    def verify_setup(self) -> list[str]:
        """Check the set-up's own outputs; the recount serves later checks."""
        self.recount = checks.recount_corpus(self.inputs.clean)
        return []

    def operation(self, i: int, traced: bool) -> Path:
        """Run operation i; returns the run directory it leaves behind."""
        raise NotImplementedError

    def verify(self, i: int, run: checks.Run) -> list[str]:
        raise NotImplementedError

    def finish(self, run_dir: Path) -> None:
        """Clean up after an operation has been measured and checked."""

    def _upstream_checks(self, run: checks.Run, rejects: int) -> list[str]:
        return (checks.check_stats(run, self.inputs.event_count, rejects)
                + checks.check_networks(run, self.recount))

    def _label_checks(self, run: checks.Run) -> list[str]:
        return checks.check_modularity(run) + checks.check_labels(run, self.inputs.sides)

    def _metric_checks(self, run: checks.Run) -> list[str]:
        return (checks.check_odds(run) + checks.check_polarisation(run)
                + checks.check_activity(run))


class ColdPipeline(Workload):
    """The full pipeline into a fresh run directory: the first run on a corpus."""

    inject = True

    def operation(self, i, traced):
        run_dir = self.runner.work / "ops" / f"cold-{i}"
        self.runner.hashjack(*pipeline_args(self.inputs, self.inputs.labels[0], run_dir),
                             traced=traced)
        return run_dir

    def verify(self, i, run):
        return (self._upstream_checks(run, self.inputs.injected)
                + self._label_checks(run) + self._metric_checks(run))

    def finish(self, run_dir):
        shutil.rmtree(run_dir)


class RelabelLoop(Workload):
    """The manual labeling loop on a finished run: report, relabel, export.

    Set-up repeat k runs the full pipeline with labels file k % 2, so the
    two set-ups leave from-scratch reports for both labels files; operation
    i then uses the other file than the one before it.
    """

    def __init__(self, runner, seed, scale):
        super().__init__(runner, seed, scale)
        self.reference: dict[int, bytes] = {}
        self.reports: dict[str, Path] = {}

    def prepare(self, repeat, traced):
        which = repeat % 2
        self.runner.hashjack(
            *pipeline_args(self.inputs, self.inputs.labels[which], self.run_dir),
            traced=traced)
        self.reference[which] = (self.run_dir / "report.json").read_bytes()

    def verify_setup(self):
        problems = super().verify_setup()
        run = checks.Run(self.run_dir)
        return (problems + self._upstream_checks(run, 0) + self._label_checks(run)
                + self._metric_checks(run))

    def _which(self, i: int) -> int:
        return (SETUP_REPEATS + i) % 2

    def operation(self, i, traced):
        run = self.runner.hashjack
        for tag in TRACKED:
            self.reports[tag] = self.runner.work / f"label-report-{tag}.txt"
            run("label", "report", "--network", tag, "--run-dir", self.run_dir,
                traced=traced, stdout=self.reports[tag])
        run(*pipeline_args(self.inputs, self.inputs.labels[self._which(i)], self.run_dir),
            traced=traced)
        run("export", "--network", TARGET, "--gexf", self.run_dir / f"{TARGET}.gexf",
            "--run-dir", self.run_dir, traced=traced)
        return self.run_dir

    def verify(self, i, run):
        problems = []
        for tag, path in self.reports.items():
            problems += checks.check_label_report(path.read_text(), run, tag)
        problems += self._label_checks(run) + self._metric_checks(run)
        problems += checks.check_gexf(run.root / f"{TARGET}.gexf", run, TARGET)
        problems += checks.check_report_equal(run, self.reference[self._which(i)])
        return problems


WORKLOADS = {
    "cold-pipeline": ColdPipeline,
    "relabel-loop": RelabelLoop,
}


def run_operation(workload: Workload, i: int, traced: bool) -> dict:
    runner = workload.runner
    runner.calls = []
    t0 = time.perf_counter()
    try:
        run_dir = workload.operation(i, traced)
    except CallFailed as exc:
        return {"wall": time.perf_counter() - t0, "problems": [str(exc)],
                "calls": runner.calls, "traced": traced}
    wall = time.perf_counter() - t0
    result = {"wall": wall, "calls": runner.calls, "traced": traced,
              "rss_mb": max(call["rss_mb"] for call in runner.calls),
              "dir_mb": dir_mb(run_dir)}
    t0 = time.perf_counter()
    try:
        result["problems"] = workload.verify(i, checks.Run(run_dir))
    except Exception as exc:  # a missing or malformed artifact fails the operation
        result["problems"] = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
    result["check_s"] = time.perf_counter() - t0
    workload.finish(run_dir)
    return result


def layer_totals(op: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    for call in op["calls"]:
        for name, value in call["trace"].items():
            if name != "cli.import_s":
                totals[name] = totals.get(name, 0.0) + value
    return totals


def _seconds(values) -> str:
    return " ".join(f"{v:.2f}" for v in values)


def run_benchmark(name: str, seed: int, seconds: int, trace: bool, scale: str) -> dict:
    runner = Runner(WORK)
    workload = WORKLOADS[name](runner, seed, scale)
    problems: list[str] = []
    setup_times, setup_traces = [], []
    for repeat in range(SETUP_REPEATS):
        runner.calls = []
        t0 = time.perf_counter()
        workload.setup(WORK / f"setup-{repeat}", repeat, traced=trace)
        setup_times.append(time.perf_counter() - t0)
        setup_traces += [call["trace"] for call in runner.calls if "trace" in call]
        if repeat < SETUP_REPEATS - 1:
            shutil.rmtree(WORK / f"setup-{repeat}")
    try:
        problems += workload.verify_setup()
    except Exception as exc:  # a missing or malformed set-up artifact
        problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")

    warmup = run_operation(workload, 0, traced=False)
    problems += [f"warm-up: {p}" for p in warmup["problems"]]

    ops = []
    start = time.perf_counter()
    i = 1
    while (time.perf_counter() - start < seconds
           or (trace and len({op["traced"] for op in ops}) < 2)):
        op = run_operation(workload, i, traced=trace and i % 2 == 1)
        for problem in op["problems"]:
            print(f"operation {i}: {problem}", file=sys.stderr)
        ops.append(op)
        i += 1

    failed = sum(1 for op in ops if op["problems"])
    print(f"{name}: set-up {_seconds(setup_times)} s, warm-up {warmup['wall']:.2f} s, "
          f"operations {_seconds(op['wall'] for op in ops)} s, "
          f"cpu {_seconds(sum(c['cpu'] for c in op['calls']) for op in ops)} s, "
          f"checks {_seconds(op.get('check_s', 0.0) for op in [warmup, *ops])} s",
          file=sys.stderr)
    for problem in problems:
        print(f"set-up: {problem}", file=sys.stderr)
    result = {"correct": not problems and failed == 0, "attempted": len(ops),
              "failed": failed}
    done = [op for op in ops if "rss_mb" in op] or [warmup]
    if not trace:
        values = {
            "wall_s": statistics.median(op["wall"] for op in ops),
            "peak_rss_mb": statistics.median(op.get("rss_mb", 0.0) for op in done),
            "run_dir_mb": statistics.median(op.get("dir_mb", 0.0) for op in done),
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    else:
        traced = [op for op in ops if op["traced"]]
        untraced = [op for op in ops if not op["traced"]]
        per_op = [layer_totals(op) for op in traced]
        values = {
            name: statistics.median(totals.get(name, 0.0) for totals in per_op)
            for name in PER_LAYER
        }
        values["cli.import_s"] = statistics.median(
            call["trace"]["cli.import_s"] for op in traced for call in op["calls"])
        values["synth.generate_s"] = statistics.median(
            t.get("synth.generate_s", 0.0) for t in setup_traces)
        values["trace.wall_s"] = statistics.median(op["wall"] for op in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            op["wall"] for op in untraced)
        units = PER_LAYER
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the synthetic corpus is generated from it")
    parser.add_argument("--seconds", type=int, default=18,
                        help="operations are started until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced calls")
    parser.add_argument("--scale", choices=sorted(SCALES), default="quarter",
                        help="corpus size: a quarter of criterion 8, or all of it")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hashjack" / "cli.py").is_file():
        print(f"error: no hashjack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "logs").mkdir(parents=True)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.scale)
    except CallFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
