"""End-to-end pipeline tests driven through the CLI entrypoint in-process."""

import contextlib
import csv
import fcntl
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hashjack.pipeline
from hashjack.cli import entrypoint
from hashjack.errors import StageError
from hashjack.graph import build_networks
from hashjack.ingest import CSV_COLUMNS, CorpusStats, parse_records, split_streams, write_csv
from hashjack.store import file_digest, json_text, load_json, network_to_obj, pairs_to_npy, \
    registry_to_obj
from _oracles import record_stats, record_store


GEXF_NS = "{http://www.gexf.net/1.2draft}"


def run_cli(*argv):
    return entrypoint([str(a) for a in argv])


SYNTH_CFG = {
    "seed": 11,
    "parties": [
        {"name": "party1", "partisans": 120, "contras": 40},
        {"name": "party2", "partisans": 100, "contras": 30},
    ],
    "public_hashtags": [{"name": "agenda", "pro": 200, "contra": 30}],
    "activity": {"zipf_s": 1.05, "events_per_member": 8, "attention_s": 2.0},
    "mixing": {"p_in": 0.95, "p_out": 0.001},
    "participation": 0.8,
    "hijack": {"party1": {"agenda": 0.25}},
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One small hijacked corpus shared by the module's tests."""
    root = tmp_path_factory.mktemp("corpus")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG))
    out = root / "corpus.jsonl"
    truth = root / "truth.json"
    assert run_cli("synth", "--config", cfg_path, "--out", out, "--truth", truth) == 0
    truth_obj = load_json(truth)
    labels = [
        {
            "network": tag,
            "seeds": {
                "pro": list(truth_obj["sides"][tag]["pro"][:5]),
                "contra": list(truth_obj["sides"][tag]["contra"][:5]),
            },
        }
        for tag in ("party1", "party2", "agenda")
    ]
    labels_path = root / "labels.json"
    labels_path.write_text(json.dumps(labels))
    return {"cfg": cfg_path, "corpus": out, "truth": truth_obj, "labels": labels_path}


TRACKED = "party1,party2,agenda"


def bootstrap(run, corpus, upto="report"):
    """Drive the stage chain into `run` up to the named stage."""
    steps = [
        ("ingest", ["ingest", corpus["corpus"], "--tracked", TRACKED]),
        ("build", ["build"]),
        ("communities", ["communities", "--resolution", "0.5"]),
        ("label", ["label", "apply", "--labels", corpus["labels"]]),
        ("polarisation", ["polarisation"]),
        ("odds", ["odds", "--targets", "agenda"]),
        ("activity", ["activity"]),
        ("report", ["report"]),
    ]
    for name, argv in steps:
        assert run_cli(*argv, "--run-dir", run) == 0, name
        if name == upto:
            break


class TestSynthCommand:
    def test_deterministic_output(self, corpus, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert run_cli("synth", "--config", corpus["cfg"], "--out", a) == 0
        assert run_cli("synth", "--config", corpus["cfg"], "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == corpus["corpus"].read_bytes()

    def test_seed_override_changes_output(self, corpus, tmp_path):
        a = tmp_path / "a.jsonl"
        assert run_cli("synth", "--config", corpus["cfg"], "--out", a, "--seed", "99") == 0
        assert a.read_bytes() != corpus["corpus"].read_bytes()

    @pytest.mark.parametrize("truth", ["{tmp}", "{tmp}/afile/truth.json",
                                       "{tmp}/dangling/truth.json"])
    def test_failed_synth_leaves_no_file(self, corpus, tmp_path, truth, capsys):
        (tmp_path / "afile").write_text("")
        # the pre-check passes a dangling link; the truth write then fails
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        out = tmp_path / "o.jsonl"
        truth = truth.format(tmp=tmp_path)
        assert run_cli("synth", "--config", corpus["cfg"], "--out", out, "--truth", truth) == 2
        assert "internal error" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "dangling"]
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize("truth", ["{tmp}", "{tmp}/afile/truth.json",
                                       "{tmp}/afile/sub/truth.json"])
    def test_directory_destination_is_refused_before_writing(self, corpus, tmp_path, truth):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "o.jsonl"
        out.write_text("old\n")
        truth = truth.format(tmp=tmp_path)
        assert run_cli("synth", "--config", corpus["cfg"], "--out", out, "--truth", truth) == 2
        assert out.read_text() == "old\n"

    @pytest.mark.parametrize("truth", ["same.json", "./same.json", "link.json"])
    def test_same_file_for_out_and_truth_is_refused(self, corpus, tmp_path, truth, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.json").symlink_to("same.json")
        code = run_cli("synth", "--config", corpus["cfg"], "--out", "same.json",
                       "--truth", truth)
        assert code == 2
        assert "--out and --truth both name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json"]

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1, "virality": 9}')
        assert run_cli("synth", "--config", bad, "--out", tmp_path / "o.jsonl") == 2
        assert "error:" in capsys.readouterr().err


def _child_env():
    src = str(Path(hashjack.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestStageChain:
    def test_full_chain_produces_report(self, corpus, tmp_path):
        run = tmp_path / "run"
        bootstrap(run, corpus)
        report = load_json(run / "report.json")
        assert set(report) >= {"polarisation", "odds", "activity", "stages"}
        row = next(
            r
            for r in report["odds"]["rows"]
            if r["party"] == "#party1" and r["target"] == "#agenda"
        )
        assert row["or"] > 1.5
        assert row["ci_low"] < row["or"] < row["ci_high"]
        for name in ("fig1.csv", "fig3a.csv", "fig3b.csv"):
            assert (run / name).exists()

    def test_manifest_lists_all_stages(self, corpus, tmp_path):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="activity")
        manifest = load_json(run / "manifest.json")
        assert set(manifest["stages"]) == {
            "ingest",
            "build",
            "communities",
            "label",
            "polarisation",
            "odds",
            "activity",
        }
        assert manifest["tracked"] == ["agenda", "party1", "party2"]

    def test_rerun_is_noop(self, corpus, tmp_path, capsys):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="build")
        before = (run / "manifest.json").read_bytes()
        assert run_cli("build", "--run-dir", run) == 0
        assert "up to date" in capsys.readouterr().out
        assert (run / "manifest.json").read_bytes() == before

    def test_param_change_invalidates_downstream(self, corpus, tmp_path):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="label")
        assert run_cli("communities", "--resolution", "0.7", "--run-dir", run) == 0
        manifest = load_json(run / "manifest.json")
        assert "label" not in manifest["stages"]
        assert "communities" in manifest["stages"]
        # downstream stage now refuses to run
        assert run_cli("polarisation", "--run-dir", run) == 2

    def test_prerequisite_missing_exits_2(self, corpus, tmp_path, capsys):
        run = tmp_path / "fresh"
        assert run_cli("build", "--run-dir", run) == 2
        err = capsys.readouterr().err
        assert "ingest" in err and "error:" in err

    def test_lock_blocks_writers_not_report(self, corpus, tmp_path, capsys):
        run = tmp_path / "run"
        bootstrap(run, corpus)
        with open(run / ".lock", "w") as holder:
            holder.write("424242")
            holder.flush()
            fcntl.flock(holder, fcntl.LOCK_EX)
            assert run_cli("build", "--run-dir", run) == 2
            assert "locked by process 424242" in capsys.readouterr().err
            assert run_cli("report", "--run-dir", run) == 0

    def test_killed_writer_releases_lock(self, corpus, tmp_path, capsys):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="ingest")
        hold = (
            "import sys, time\n"
            "from hashjack.pipeline import RunLock\n"
            "RunLock(sys.argv[1]).__enter__()\n"
            "print('held', flush=True)\n"
            "time.sleep(60)\n"
        )
        holder = subprocess.Popen(
            [sys.executable, "-c", hold, str(run)], stdout=subprocess.PIPE, text=True,
            env=_child_env(),
        )
        try:
            assert holder.stdout.readline() == "held\n"
            assert run_cli("build", "--run-dir", run) == 2
            assert f"locked by process {holder.pid}" in capsys.readouterr().err
            os.kill(holder.pid, signal.SIGKILL)
            assert holder.wait(timeout=30) == -signal.SIGKILL
        finally:
            holder.kill()
            holder.wait(timeout=30)
            holder.stdout.close()
        assert (run / ".lock").exists()
        assert run_cli("build", "--run-dir", run) == 0

    def test_writer_between_call_and_lock_keeps_its_update(
        self, corpus, tmp_path, monkeypatch
    ):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="communities")
        real = hashjack.pipeline.RunLock.__enter__
        interleaved = []

        def other_writer_first(lock):
            # Another writer runs to completion just before this call locks.
            if not interleaved:
                interleaved.append(True)
                assert run_cli(
                    "communities", "--network", "party1", "--seed", "9", "--run-dir", run
                ) == 0
            return real(lock)

        monkeypatch.setattr(hashjack.pipeline.RunLock, "__enter__", other_writer_first)
        assert run_cli(
            "communities", "--network", "agenda", "--seed", "7", "--run-dir", run
        ) == 0
        assert interleaved
        networks = load_json(run / "manifest.json")["stages"]["communities"]["params"][
            "networks"
        ]
        assert networks["party1"]["seed"] == 9
        assert networks["agenda"]["seed"] == 7

    def test_missing_input_file_exits_2(self, tmp_path):
        code = run_cli(
            "ingest", tmp_path / "nope.jsonl", "--tracked", "a", "--run-dir", tmp_path / "r"
        )
        assert code == 2

    def test_label_report_prints_evidence(self, corpus, tmp_path, capsys):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="communities")
        assert run_cli("label", "report", "--network", "party1", "--run-dir", run) == 0
        out = capsys.readouterr().out
        assert "#party1" in out
        assert "community" in out

    def test_export_writes_gexf(self, corpus, tmp_path):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="label")
        dest = tmp_path / "net.gexf"
        code = run_cli(
            "export", "--network", "agenda", "--gexf", dest, "--run-dir", run
        )
        assert code == 0
        assert dest.read_text().startswith("<?xml")
        assert "partisan_#party1" in dest.read_text()

    def test_export_refuses_a_directory_before_writing(self, finished, tmp_path, capsys):
        dest = tmp_path / "net.gexf"
        dest.mkdir()
        code = run_cli("export", "--network", "agenda", "--gexf", dest, "--run-dir", finished)
        assert code == 2
        assert capsys.readouterr().err == f"error: {dest} is a directory\n"
        assert list(tmp_path.iterdir()) == [dest] and not any(dest.iterdir())

    def test_export_refuses_edited_partition(self, corpus, tmp_path, capsys):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="label")
        path = run / "partitions" / "agenda.json"
        path.write_bytes(path.read_bytes().replace(b'"seed": 42', b'"seed": 43'))
        capsys.readouterr()
        code = run_cli(
            "export", "--network", "agenda", "--gexf", tmp_path / "net.gexf",
            "--run-dir", run,
        )
        assert code == 2
        assert "artifacts of stage 'communities' are missing or modified" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "net.gexf").exists()

    def test_global_flags_work_before_subcommand(self, corpus, tmp_path):
        run = tmp_path / "flagorder"
        code = run_cli(
            "--run-dir", run, "ingest", corpus["corpus"], "--tracked", TRACKED
        )
        assert code == 0
        assert (run / "manifest.json").exists()


class TestIngestDetails:
    def test_reject_file_only_when_rejects_exist(self, corpus, tmp_path):
        clean = tmp_path / "clean"
        bootstrap(clean, corpus, upto="ingest")
        assert not list(clean.glob("**/*.rejects.jsonl"))
        assert not list(corpus["corpus"].parent.glob("*.rejects.jsonl"))

        dirty_corpus = tmp_path / "dirty.jsonl"
        lines = corpus["corpus"].read_text().splitlines()[:50]
        lines.insert(3, '{"tweet_id": "bad"}')
        dirty_corpus.write_text("\n".join(lines) + "\n")
        dirty = tmp_path / "dirty-run"
        assert run_cli("ingest", dirty_corpus, "--tracked", TRACKED, "--run-dir", dirty) == 0
        assert not list(tmp_path.glob("*.rejects.jsonl"))
        rejects = dirty / "store" / "rejects.jsonl"
        assert "store/rejects.jsonl" in manifest_stages(dirty)["ingest"]["outputs"]
        row = json.loads(rejects.read_text().splitlines()[0])
        assert row["line"] == 4
        assert "bad" in row["raw"]
        stats = load_json(dirty / "store" / "stats.json")
        assert stats["reject_count"] == 1

        del lines[3]
        dirty_corpus.write_text("\n".join(lines) + "\n")
        assert run_cli("ingest", dirty_corpus, "--tracked", TRACKED, "--run-dir", dirty) == 0
        assert not rejects.exists()
        assert "store/rejects.jsonl" not in manifest_stages(dirty)["ingest"]["outputs"]
        assert load_json(dirty / "store" / "stats.json")["reject_count"] == 0

    def test_failed_ingest_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"tweet_id": "x"}\n["no"]\n')
        run = tmp_path / "run"
        assert run_cli("ingest", bad, "--tracked", "a", "--run-dir", run) == 2
        assert "no valid records in input (line 1:" in capsys.readouterr().err
        assert not (run / "store").exists()

    def test_rerun_removes_files_it_stops_listing(self, corpus, tmp_path):
        run = tmp_path / "run"
        assert run_cli("ingest", corpus["corpus"], "--tracked", "party1,party2",
                       "--run-dir", run) == 0
        assert (run / "store" / "party1.npy").exists()
        assert run_cli("ingest", corpus["corpus"], "--tracked", "party2",
                       "--run-dir", run) == 0
        listed = manifest_stages(run)["ingest"]["outputs"]
        assert sorted(f"store/{p.name}" for p in (run / "store").iterdir()) == sorted(listed)
        assert "store/party1.npy" not in listed

    def test_rerun_keeps_compare_source(self, finished, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(finished, run)
        assert run_cli("polarisation", "--out", "a.json", "--run-dir", run) == 0
        assert run_cli("polarisation", "--threshold", "0.1", "--compare", run / "a.json",
                       "--out", "b.json", "--run-dir", run) == 0
        assert (run / "a.json").exists()
        assert run_cli("polarisation", "--threshold", "0.1", "--compare", run / "a.json",
                       "--out", "b.json", "--run-dir", run) == 0

    def test_rerun_leaves_files_outside_run(self, finished, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(finished, run)
        outside = tmp_path / "shared" / "p.json"
        outside.parent.mkdir()
        outside.write_text("kept\n")
        assert run_cli("polarisation", "--out", outside, "--run-dir", run) == 2
        assert run_cli("polarisation", "--threshold", "0.1", "--run-dir", run) == 0
        assert outside.read_text() == "kept\n"

    def test_stats_written(self, corpus, tmp_path):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="ingest")
        stats = load_json(run / "store" / "stats.json")
        assert stats["reject_count"] == 0
        assert set(stats["per_hashtag"]) == {"agenda", "party1", "party2"}
        assert stats["record_count"] > 0


class TestOutStaysInsideRun:
    @pytest.mark.parametrize("argv", [
        ("report", "--out", "../outside.json"),
        ("polarisation", "--out", "../../x.json"),
        ("report", "--out", "."),
    ])
    def test_out_outside_or_at_run_dir_is_refused(self, finished, tmp_path, argv, capsys):
        run = tmp_path / "a" / "run"
        shutil.copytree(finished, run)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run_cli(*argv, "--run-dir", run) == 2
        err = capsys.readouterr().err
        assert "is not a file inside the run directory" in err
        assert ".tmp" not in err
        after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert after == before


class TestPipelineCommand:
    def test_one_shot_pipeline_matches_stagewise(self, corpus, tmp_path):
        stagewise = tmp_path / "a"
        bootstrap(stagewise, corpus)
        oneshot = tmp_path / "b"
        code = run_cli(
            "pipeline",
            "ingest",
            "build",
            "communities",
            "label",
            "polarisation",
            "odds",
            "activity",
            "report",
            "--input",
            corpus["corpus"],
            "--tracked",
            TRACKED,
            "--resolution",
            "0.5",
            "--labels",
            corpus["labels"],
            "--targets",
            "agenda",
            "--run-dir",
            oneshot,
        )
        assert code == 0
        assert (oneshot / "report.json").read_bytes() == (
            stagewise / "report.json"
        ).read_bytes()

    def test_unknown_stage_rejected(self, corpus, tmp_path):
        assert run_cli("pipeline", "fetch", "--run-dir", tmp_path / "x") == 2


def manifest_stages(run):
    return load_json(run / "manifest.json")["stages"]


@pytest.fixture(scope="module")
def finished(corpus, tmp_path_factory):
    """A run directory driven through every stage; tests only read it."""
    run = tmp_path_factory.mktemp("finished") / "run"
    bootstrap(run, corpus)
    return run


BAD_LABELS = [
    {"network": "party1", "labels": {"x": "pro"}},
    {"network": "party1", "seeds": ["pro"]},
    {"network": "party1", "seeds": {"pro": "abc"}},
    {"network": "party1", "labels": ["pro"]},
    {"network": 5, "labels": {"0": "pro"}},
    {"network": "party1", "labels": {"0": "pro"}, "min_community_size": "x"},
    {"network": "bad tag!", "labels": {"0": "pro"}},
]
BAD_TAGS = [
    ("ingest", "{corpus}", "--tracked", "a,bad tag"),
    ("odds", "--targets", "x y"),
    ("export", "--network", "no such!", "--gexf", "{tmp}/x.gexf"),
    ("label", "report", "--network", "bad!"),
    ("ingest", "{corpus}", "--tracked", "a,registry"),
]
BAD_VALUES = [
    ("communities", "--resolution", "nan"),
    ("communities", "--resolution", "inf"),
    ("polarisation", "--threshold", "nan"),
    ("report", "--top-k", "0"),
    ("report", "--top-k", "-3"),
    ("label", "report", "--network", "party1", "--top", "-2"),
    ("activity", "--fractions", "nan,0.5"),
    ("ingest", "{tmp}", "--tracked", TRACKED),
]


BAD_INPUTS = [(("label", "apply", "--labels", "{labels}"), obj) for obj in BAD_LABELS]
BAD_INPUTS += [(argv, None) for argv in BAD_TAGS + BAD_VALUES]


def synth_cfg_with(path, value):
    """A copy of SYNTH_CFG with the field at `path` (keys, list indices) set."""
    cfg = json.loads(json.dumps(SYNTH_CFG))
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    return cfg


BAD_SYNTH_CONFIGS = [
    {**SYNTH_CFG, "parties": [{"name": 5, "partisans": 10, "contras": 5}]},
    {**SYNTH_CFG, "hijack": {"p": 0.5}},
    5,
    {**SYNTH_CFG, "public_hashtags": [{"name": [1], "pro": 10, "contra": 5}]},
]
# Non-finite numbers, which Python's json reads from NaN and Infinity.
BAD_SYNTH_CONFIGS += [
    synth_cfg_with(path, value)
    for path, value in [
        (("activity", "events_per_member"), math.nan),
        (("activity", "events_per_member"), math.inf),
        (("activity", "zipf_s"), math.nan),
        (("activity", "zipf_s"), math.inf),
        (("activity", "attention_s"), math.nan),
        (("seed",), math.inf),
        (("parties", 0, "partisans"), math.inf),
        (("parties", 0, "contras"), math.inf),
        (("public_hashtags", 0, "contra"), math.inf),
    ]
]
BAD_INPUTS += [
    (("synth", "--config", "{labels}", "--out", "{tmp}/o.jsonl"), cfg)
    for cfg in BAD_SYNTH_CONFIGS
]
# Output paths that cannot be written: a file where a directory must be,
# or a directory where a file must be.
BAD_INPUTS += [
    (("build", "--run-dir", "{labels}"), None),
    (("export", "--network", "agenda", "--gexf", "{tmp}"), None),
    (("synth", "--config", "{labels}", "--out", "{tmp}"), SYNTH_CFG),
    (("synth", "--config", "{labels}", "--out", "{tmp}/o.jsonl", "--truth", "{tmp}"),
     SYNTH_CFG),
    (("report", "--out", "."), None),
    (("odds", "--targets", "agenda", "--out", "labels"), None),
]
# Comparison files whose #agenda row lacks a share, or holds a string or null.
BAD_COMPARE_ROWS = [
    {"share_contra": 0.5, "share_other": 0.2, "total": 10},
    {"share_pro": "0.3", "share_contra": 0.5, "share_other": 0.2, "total": 10},
    {"share_pro": None, "share_contra": 0.5, "share_other": 0.2, "total": 10},
]
BAD_INPUTS += [
    (("polarisation", "--compare", "{labels}"),
     {"profiles": [{"network": "#agenda", "basis": "retweet-volume", **row}]})
    for row in BAD_COMPARE_ROWS
]


class TestBadInputExits2:
    @pytest.mark.parametrize("argv, labels_obj", BAD_INPUTS)
    def test_exit_2_without_internal_error(
        self, argv, labels_obj, corpus, finished, tmp_path, capsys
    ):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps(labels_obj))
        before = (finished / "manifest.json").read_bytes()
        fields = {"corpus": corpus["corpus"], "tmp": tmp_path, "labels": labels}
        argv = [a.format(**fields) for a in argv]
        if "--run-dir" not in argv:
            argv += ["--run-dir", finished]
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert "internal error" not in err
        assert (finished / "manifest.json").read_bytes() == before

    @pytest.mark.parametrize("argv", [
        ("report",), ("build",), ("label", "report", "--network", "agenda"),
    ], ids=["report", "build", "label report"])
    @pytest.mark.parametrize("data", [
        b'{"stages": []}',
        b"[1]",
        b'{"stages": {"ingest": 5}}',
        b"\xff\xfe",
        b'{"stages": {}, ',
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["stages list", "list", "entry int", "not utf-8", "truncated", "deep"])
    def test_file_that_is_not_a_manifest(self, argv, data, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(data)
        assert run_cli(*argv, "--run-dir", tmp_path) == 2
        assert (f"error: {manifest} is not a hashjack manifest; run into a new run directory"
                in capsys.readouterr().err)
        assert manifest.read_bytes() == data

    def test_hand_edited_entry_counts_as_not_run(self, tmp_path, capsys):
        """An entry whose fingerprint is not that of its own params, inputs
        and upstream is refused before any of its params are used."""
        entry = {"params": {"out": "store"}, "upstream": {}, "outputs": {},
                 "fingerprint": "a", "inputs": {}}
        (tmp_path / "manifest.json").write_text(json.dumps({"stages": {"ingest": entry}}))
        assert run_cli("build", "--run-dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert "stage 'ingest' has not been run" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("resolution", ["2", "1"])
    def test_hand_edited_previous_entry_is_not_used(self, resolution, corpus, tmp_path, capsys):
        """A stage whose own previous entry was edited by hand recomputes
        every output, with the same params too, instead of reading the
        edited params or skipping as up to date."""
        source = tmp_path / "c40.jsonl"
        source.write_text("".join(corpus["corpus"].read_text().splitlines(True)[:40]))
        run = tmp_path / "run"
        assert run_cli("pipeline", "ingest", "build", "communities", "--input", source,
                       "--tracked", TRACKED, "--run-dir", run) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        built = sorted(manifest["stages"]["communities"]["params"]["networks"])
        manifest["stages"]["communities"]["params"]["networks"] = ["x"]
        (run / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("communities", "--resolution", resolution, "--run-dir", run) == 0
        captured = capsys.readouterr()
        assert "internal error" not in captured.err
        assert captured.out == f"communities: {len(built)} partitions -> partitions/\n"
        networks = manifest_stages(run)["communities"]["params"]["networks"]
        assert sorted(networks) == built
        for tag in built:
            assert networks[tag]["resolution"] == float(resolution)
            assert load_json(run / "partitions" / f"{tag}.json")["resolution"] == float(resolution)
        assert run_cli("label", "report", "--network", built[0], "--run-dir", run) == 0

    @pytest.mark.parametrize("argv", [
        ("label", "apply", "--labels", "{deep}"),
        ("synth", "--config", "{deep}", "--out", "{tmp}/o.jsonl"),
        ("polarisation", "--compare", "{deep}"),
    ])
    def test_deeply_nested_json(self, argv, finished, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        run = tmp_path / "run"
        shutil.copytree(finished, run)
        argv = [a.format(deep=deep, tmp=tmp_path) for a in argv]
        assert run_cli(*argv, "--run-dir", run) == 2
        assert "internal error" not in capsys.readouterr().err


# One number of a synth config, or one flag value, replaced by each of
# these. Large finite values stay out: they legitimately generate huge
# corpora.
POOL = [math.nan, math.inf, -math.inf, -1, 0, 0.5, 3, 1e-300, "x", None, [], {}]
FLAG_POOL = ["nan", "inf", "-inf", "-1", "0", "0.5", "3", "1e-300", "x", "null", "[]", "{}"]
SYNTH_NUMBERS = [
    ("seed",),
    ("parties", 0, "partisans"),
    ("parties", 0, "contras"),
    ("parties", 1, "partisans"),
    ("parties", 1, "contras"),
    ("public_hashtags", 0, "pro"),
    ("public_hashtags", 0, "contra"),
    ("activity", "zipf_s"),
    ("activity", "events_per_member"),
    ("activity", "attention_s"),
    ("mixing", "p_in"),
    ("mixing", "p_out"),
    ("participation",),
    ("hijack", "party1", "agenda"),
]
NUMBER_FLAGS = [
    ("communities", "--resolution"),
    ("communities", "--seed"),
    ("polarisation", "--threshold"),
    ("activity", "--fractions"),
    ("report", "--top-k"),
    ("label", "report", "--network", "agenda", "--top"),
]


def exit_code_and_stderr(*argv):
    """entrypoint's exit code and stderr; argparse exits by SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def flag_run(corpus, tmp_path_factory):
    """A finished run directory that TestAnyNumberExits0Or2 copies per case."""
    run = tmp_path_factory.mktemp("flag_run") / "run"
    bootstrap(run, corpus)
    return run


class TestAnyNumberExits0Or2:
    """No number in a synth config or a flag makes the CLI fail internally,
    and a non-finite one is always refused."""

    @settings(max_examples=100, deadline=None)
    @given(path=st.sampled_from(SYNTH_NUMBERS), value=st.sampled_from(POOL))
    @example(path=("activity", "events_per_member"), value=math.nan)
    @example(path=("activity", "events_per_member"), value=math.inf)
    @example(path=("activity", "zipf_s"), value=math.nan)
    @example(path=("activity", "zipf_s"), value=math.inf)
    @example(path=("activity", "attention_s"), value=math.nan)
    @example(path=("seed",), value=math.inf)
    @example(path=("parties", 0, "partisans"), value=math.inf)
    @example(path=("public_hashtags", 0, "contra"), value=math.inf)
    def test_synth_config_number(self, path, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(synth_cfg_with(path, value)))
            code, err = exit_code_and_stderr(
                "synth", "--config", cfg, "--out", Path(tmp) / "o.jsonl"
            )
        assert code in (0, 2), err
        assert "internal error" not in err
        if isinstance(value, float) and not math.isfinite(value):
            assert code == 2

    @settings(max_examples=72, deadline=None)
    @given(flag=st.sampled_from(NUMBER_FLAGS), value=st.sampled_from(FLAG_POOL))
    def test_flag_number(self, flag_run, flag, value):
        *command, name = flag
        with tempfile.TemporaryDirectory() as tmp:
            run = Path(tmp) / "run"
            shutil.copytree(flag_run, run)
            code, err = exit_code_and_stderr(*command, f"{name}={value}", "--run-dir", run)
        assert code in (0, 2), err
        assert "internal error" not in err
        if value in ("nan", "inf", "-inf"):
            assert code == 2


class TestPerNetworkReuse:
    def test_one_network_reclustered(self, corpus, tmp_path):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="communities")
        parts = run / "partitions"
        before = {p.name: p.read_bytes() for p in parts.iterdir()}
        digests = manifest_stages(run)["communities"]["outputs"]
        assert run_cli("communities", "--network", "party1", "--seed", "7",
                       "--run-dir", run) == 0
        after = manifest_stages(run)["communities"]
        assert after["params"]["networks"]["party1"]["seed"] == 7
        assert after["params"]["networks"]["agenda"]["seed"] == 42
        assert (parts / "party1.json").read_bytes() != before["party1.json"]
        for name in ("agenda.json", "party2.json"):
            assert (parts / name).read_bytes() == before[name]
            assert after["outputs"][f"partitions/{name}"] == digests[f"partitions/{name}"]

    def test_one_labeling_reapplied(self, corpus, tmp_path):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="label")
        labels = run / "labels"
        before = {p.name: p.read_bytes() for p in labels.iterdir()}
        digests = manifest_stages(run)["label"]["outputs"]
        one = [json.loads(corpus["labels"].read_text())[0]]
        one[0]["seeds"]["pro"] = one[0]["seeds"]["pro"][:3]
        assert one[0]["network"] == "party1"
        (tmp_path / "one.json").write_text(json.dumps(one))
        assert run_cli("label", "apply", "--labels", tmp_path / "one.json",
                       "--run-dir", run) == 0
        after = manifest_stages(run)["label"]["outputs"]
        assert sorted(after) == sorted(digests)
        assert (labels / "party1.json").read_bytes() != before["party1.json"]
        for name in ("agenda.json", "party2.json"):
            assert (labels / name).read_bytes() == before[name]
            assert after[f"labels/{name}"] == digests[f"labels/{name}"]

    def test_hand_edited_partition_is_rewritten(self, corpus, tmp_path, capsys):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="communities")
        path = run / "partitions" / "party2.json"
        original = path.read_bytes()
        path.write_bytes(original.replace(b'"seed": 42', b'"seed": 43'))
        capsys.readouterr()
        assert run_cli("communities", "--resolution", "0.5", "--run-dir", run) == 0
        assert capsys.readouterr().out == "communities: 3 partitions -> partitions/\n"
        assert path.read_bytes() == original


PIPELINE_FLAGS = (
    "--input", "{corpus}", "--tracked", TRACKED, "--resolution", "0.5",
    "--labels", "{labels}", "--targets", "agenda",
)
SUBCOMMANDS = [
    ("ingest", ("ingest", "{corpus}", "--tracked", TRACKED)),
    ("build", ("build",)),
    ("communities", ("communities", "--resolution", "0.5")),
    ("label", ("label", "apply", "--labels", "{labels}")),
    ("polarisation", ("polarisation",)),
    ("odds", ("odds", "--targets", "agenda")),
    ("activity", ("activity",)),
    ("report", ("report",)),
]


class TestPipelineDispatch:
    def test_each_stage_matches_its_subcommand(self, corpus, tmp_path, capsys):
        fields = {"corpus": corpus["corpus"], "labels": corpus["labels"]}
        sub, pipe = tmp_path / "sub", tmp_path / "pipe"
        for stage, argv in SUBCOMMANDS:
            capsys.readouterr()
            assert run_cli(*(a.format(**fields) for a in argv), "--run-dir", sub) == 0
            sub_line = capsys.readouterr().out.replace(str(sub), "RUN")
            assert run_cli("pipeline", stage, *(a.format(**fields) for a in PIPELINE_FLAGS),
                           "--run-dir", pipe) == 0
            pipe_line = capsys.readouterr().out.replace(str(pipe), "RUN")
            assert pipe_line == sub_line and pipe_line.startswith(f"{stage}: ")
            if stage != "report":
                a, b = manifest_stages(sub)[stage], manifest_stages(pipe)[stage]
                a.pop("completed")
                b.pop("completed")
                assert a == b

    @pytest.mark.parametrize(
        "stage, given, flag",
        [
            ("ingest", ("--tracked", TRACKED), "--input"),
            ("ingest", ("--input", "{corpus}"), "--tracked"),
            ("label", (), "--labels"),
            ("odds", (), "--targets"),
        ],
    )
    def test_missing_flag_exits_2(self, stage, given, flag, corpus, tmp_path, capsys):
        given = [a.format(corpus=corpus["corpus"]) for a in given]
        assert run_cli("pipeline", stage, *given, "--run-dir", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert f"needs {flag}" in err and "internal error" not in err


EVENTS = [
    # tweet_id, author, retweeted_author, hashtags
    ("t1", "alice", "bob", ["#a", "#b"]),
    ("t2", "carol", None, ["#a"]),
    ("t3", "dave", "alice", ["#b"]),
    ("t4", "erin", "frank", ["#elsewhere"]),
    ("t5", "bob", "alice", ["#a", "#elsewhere"]),
    ("t6", "carol", None, ["#b"]),
    ("t7", "alice", "bob", ["#a"]),
]


@pytest.fixture
def small_corpus(tmp_path):
    """Two tracked tags sharing an event, an original-only author, accounts
    seen only under an untracked tag, and a tracked tag with no events."""
    path = tmp_path / "small.jsonl"
    lines = []
    for tweet_id, author, target, tags in EVENTS:
        obj = {"tweet_id": tweet_id, "author": author, "hashtags": tags,
               "timestamp": "2020-05-01T12:00:00Z"}
        if target is not None:
            obj["retweeted_author"] = target
        lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestStoredEvents:
    def test_pipeline_parses_corpus_once(self, corpus, tmp_path, monkeypatch):
        calls = []
        real = hashjack.pipeline.read_columns

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hashjack.pipeline, "read_columns", counting)
        assert run_cli("pipeline", "ingest", "build", "--input", corpus["corpus"],
                       "--tracked", TRACKED, "--run-dir", tmp_path / "run") == 0
        assert len(calls) == 1

    def test_networks_equal_library_chain(self, small_corpus, tmp_path):
        run = tmp_path / "run"
        assert run_cli("pipeline", "ingest", "build", "--input", small_corpus,
                       "--tracked", "a,b,empty", "--run-dir", run) == 0
        records, _ = parse_records(small_corpus.read_text())
        streams, _ = split_streams(records, ["a", "b", "empty"])
        nets, registry = build_networks(streams)
        assert sorted(p.name for p in (run / "networks").iterdir()) == [
            "a.json", "b.json", "registry.json"
        ]
        for tag in ("a", "b"):
            assert load_json(run / "networks" / f"{tag}.json") == network_to_obj(nets[tag])
        expected = registry_to_obj(registry)
        assert expected["accounts"] == ["alice", "bob", "carol", "dave"]
        assert load_json(run / "networks" / "registry.json") == expected
        assert load_json(run / "store" / "registry.json") == expected

    def test_store_is_byte_stable(self, corpus, tmp_path):
        stores = []
        for name in ("one", "two"):
            bootstrap(tmp_path / name, corpus, upto="ingest")
            store = tmp_path / name / "store"
            stores.append({p.name: p.read_bytes() for p in store.iterdir()})
        assert sorted(stores[0]) == [
            "agenda.npy", "party1.npy", "party2.npy", "registry.json", "stats.json"
        ]
        assert stores[0] == stores[1]

    def test_edited_pairs_block_build(self, corpus, tmp_path, capsys):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="ingest")
        path = run / "store" / "party1.npy"
        data = bytearray(path.read_bytes())
        data[-1] ^= 1
        path.write_bytes(bytes(data))
        assert run_cli("build", "--run-dir", run) == 2
        assert "artifacts of stage 'ingest' are missing or modified" in capsys.readouterr().err

    def test_store_without_pairs_exits_2(self, corpus, tmp_path, capsys):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="ingest")
        manifest = load_json(run / "manifest.json")
        del manifest["stages"]["ingest"]["outputs"]["store/registry.json"]
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("build", "--run-dir", run) == 2
        assert "older hashjack" in capsys.readouterr().err

    def test_indented_network_files_still_read(self, finished, tmp_path, capsys):
        """A run directory whose network files are in the older indented form."""
        run = tmp_path / "run"
        shutil.copytree(finished, run)
        manifest = load_json(run / "manifest.json")
        outputs = manifest["stages"]["build"]["outputs"]
        for tag in TRACKED.split(","):
            path = run / "networks" / f"{tag}.json"
            path.write_text(json_text(load_json(path)))
            assert path.read_text().count("\n") > 1
            outputs[f"networks/{tag}.json"] = file_digest(path)
        (run / "manifest.json").write_text(json_text(manifest))
        original = tmp_path / "original.gexf"
        assert run_cli("export", "--network", "agenda", "--gexf", original,
                       "--run-dir", finished) == 0
        capsys.readouterr()
        assert run_cli("pipeline", "build", "report", "--run-dir", run) == 0
        assert capsys.readouterr().out.splitlines()[0] == "build: up to date"
        assert (run / "report.json").read_bytes() == (finished / "report.json").read_bytes()
        again = tmp_path / "again.gexf"
        assert run_cli("export", "--network", "agenda", "--gexf", again, "--run-dir", run) == 0
        assert again.read_bytes() == original.read_bytes()


MIXED_OFFSETS = [
    {"tweet_id": "t1", "author": "alice", "retweeted_author": "bob", "hashtags": ["#a"],
     "timestamp": "2020-03-01T14:00:00+02:00"},
    {"tweet_id": "t2", "author": "carol", "hashtags": ["#a", "#B"],
     "timestamp": "2020-03-01T03:00:00-05:00"},
    {"tweet_id": "t3", "author": "dave", "retweeted_author": "alice", "hashtags": ["#zzz"],
     "timestamp": "2020-03-02t01:00:00z"},
    {"tweet_id": "t4", "author": "bob", "retweeted_author": "carol", "hashtags": ["#b"],
     "timestamp": "2020-02-29T23:00:00-05:00"},
]
# Timestamps whose UTC moment lies outside the years 1-9999.
OUT_OF_RANGE = ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"]


def store_bytes(run: Path) -> dict:
    return {p.name: p.read_bytes() for p in (run / "store").iterdir()}


class TestColumnarIngest:
    def test_stats_with_mixed_offsets(self, tmp_path):
        """One record with an untracked tag and one with two tracked tags;
        the window is in UTC."""
        source = tmp_path / "mixed.jsonl"
        source.write_text("".join(json.dumps(obj) + "\n" for obj in MIXED_OFFSETS))
        run = tmp_path / "run"
        assert run_cli("ingest", source, "--tracked", "a,b", "--run-dir", run) == 0
        assert load_json(run / "store" / "stats.json") == {
            "record_count": 4,
            "account_count": 4,
            "per_hashtag": {
                "a": {"tweets": 2, "retweets": 1, "unique_accounts": 3},
                "b": {"tweets": 2, "retweets": 1, "unique_accounts": 2},
                "zzz": {"tweets": 1, "retweets": 1, "unique_accounts": 2},
            },
            "window": ["2020-03-01T04:00:00Z", "2020-03-02T01:00:00Z"],
            "reject_count": 0,
        }
        assert load_json(run / "store" / "registry.json") == {
            "accounts": ["alice", "bob", "carol"]
        }

    def test_jsonl_and_csv_give_equal_stores(self, corpus, tmp_path):
        with open(corpus["corpus"], encoding="utf-8") as fh:
            records, _ = parse_records(fh)
        csv_corpus = tmp_path / "corpus.csv"
        with open(csv_corpus, "w", encoding="utf-8") as fh:
            write_csv(records, fh)
        runs = tmp_path / "jsonl", tmp_path / "csv"
        assert run_cli("ingest", corpus["corpus"], "--tracked", TRACKED,
                       "--run-dir", runs[0]) == 0
        assert run_cli("ingest", csv_corpus, "--tracked", TRACKED, "--format", "csv",
                       "--run-dir", runs[1]) == 0
        assert store_bytes(runs[0]) == store_bytes(runs[1])

    def test_hashtag_lists_that_never_repeat(self, corpus, tmp_path):
        """Every line gets a tag of its own; the store is what a walk over
        the records gives."""
        source = tmp_path / "unique.jsonl"
        with open(source, "w", encoding="utf-8") as fh:
            for i, line in enumerate(corpus["corpus"].read_text().splitlines()[::7]):
                obj = json.loads(line)
                obj["hashtags"].append(f"#u{i}")
                fh.write(json.dumps(obj) + "\n")
        run = tmp_path / "run"
        assert run_cli("ingest", source, "--tracked", TRACKED, "--run-dir", run) == 0
        records, _ = parse_records(source.read_text())
        ids, pairs = record_store(records, TRACKED.split(","))
        stats = CorpusStats(**record_stats(records)).to_dict()
        stats["reject_count"] = 0
        expected = {f"{tag}.npy": pairs_to_npy(pairs[tag]) for tag in pairs}
        expected["registry.json"] = json_text({"accounts": ids}).encode()
        expected["stats.json"] = json_text(stats).encode()
        assert len(stats["per_hashtag"]) == len(records) + 3
        assert store_bytes(run) == expected

    @pytest.mark.parametrize("stamp", OUT_OF_RANGE)
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_out_of_range_timestamp_is_a_reject(self, small_corpus, tmp_path, stamp, fmt,
                                                 capsys):
        records, _ = parse_records(small_corpus.read_text())
        bad = dict(MIXED_OFFSETS[0], tweet_id="bad", timestamp=stamp)
        source = tmp_path / f"corpus.{fmt}"
        with open(source, "w", encoding="utf-8") as fh:
            if fmt == "jsonl":
                fh.write(json.dumps(bad) + "\n" + small_corpus.read_text())
            else:
                write_csv(records, fh)
                fh.write(f"bad,alice,bob,#a,{stamp}\n")
        line = 1 if fmt == "jsonl" else len(records) + 2
        run = tmp_path / "run"
        code = run_cli("ingest", source, "--tracked", "a,b", "--format", fmt, "--run-dir", run)
        assert code == 0, capsys.readouterr().err
        rejects = [json.loads(row) for row in
                   (run / "store" / "rejects.jsonl").read_text().splitlines()]
        assert [(r["line"], r["reason"]) for r in rejects] == [
            (line, f"timestamp out of range: {stamp!r}")
        ]
        assert load_json(run / "store" / "stats.json")["record_count"] == len(records)

        only = tmp_path / f"only.{fmt}"
        only.write_text(json.dumps(bad) + "\n" if fmt == "jsonl" else
                        ",".join(CSV_COLUMNS) + f"\nbad,alice,bob,#a,{stamp}\n")
        capsys.readouterr()
        code = run_cli("ingest", only, "--tracked", "a", "--format", fmt,
                       "--run-dir", tmp_path / "only-run")
        err = capsys.readouterr().err
        assert code == 2
        assert "internal error" not in err
        assert f"timestamp out of range: {stamp!r}" in err


class TestOutputsTaken:
    """A stage or `report` may not write over the manifest, the lock or a
    stage's outputs; it is refused before it writes anything."""

    @pytest.mark.parametrize("argv", [
        ("communities", "--out", "networks"),
        ("label", "apply", "--labels", "{labels}", "--out", "partitions"),
        ("ingest", "{corpus}", "--tracked", TRACKED, "--out", "networks"),
        ("polarisation", "--out", "store/stats.json"),
        ("odds", "--targets", "agenda", "--out", ".lock"),
        ("activity", "--out", "./manifest.json"),
        ("report", "--out", "manifest.json"),
        ("report", "--out", "partitions/agenda.json"),
    ])
    def test_other_stages_outputs_are_refused(self, finished, corpus, tmp_path, argv, capsys):
        run = tmp_path / "run"
        shutil.copytree(finished, run)
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        argv = [a.format(labels=corpus["labels"], corpus=corpus["corpus"]) for a in argv]
        assert run_cli(*argv, "--run-dir", run) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert "; choose another --out" in err
        after = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert after == before
        assert run_cli("communities", "--resolution", "0.5", "--run-dir", run) == 0
        assert capsys.readouterr().out == "communities: up to date\n"

    def test_network_named_manifest_cannot_overwrite_the_manifest(self, tmp_path, capsys):
        source = tmp_path / "corpus.jsonl"
        source.write_text(json.dumps(dict(MIXED_OFFSETS[0], hashtags=["#manifest"])) + "\n")
        run = tmp_path / "run"
        assert run_cli("ingest", source, "--tracked", "manifest", "--run-dir", run) == 0
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert run_cli("build", "--out", ".", "--run-dir", run) == 2
        assert "./manifest.json is the run's manifest" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before
        assert run_cli("build", "--run-dir", run) == 0
        assert run_cli("communities", "--run-dir", run) == 0

    def test_rerun_onto_its_own_outputs_is_allowed(self, finished, corpus, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(finished, run)
        assert run_cli("communities", "--resolution", "0.7", "--run-dir", run) == 0
        assert run_cli("communities", "--resolution", "0.5", "--run-dir", run) == 0
        assert run_cli("label", "apply", "--labels", corpus["labels"], "--run-dir", run) == 0
        for tag in TRACKED.split(","):
            for stage in ("partitions", "labels"):
                path = Path(stage) / f"{tag}.json"
                assert (run / path).read_bytes() == (finished / path).read_bytes()


class TestArtifactIO:
    def test_relabel_decodes_once_and_never_reads_back(
        self, corpus, tmp_path, monkeypatch
    ):
        run = tmp_path / "run"
        bootstrap(run, corpus)
        relabel = json.loads(corpus["labels"].read_text())
        for entry in relabel:
            entry["seeds"]["pro"] = entry["seeds"]["pro"][:3]
        (tmp_path / "relabel.json").write_text(json.dumps(relabel))

        decodes = {}
        for name, key in (
            ("registry_from_obj", lambda obj: "registry"),
            ("network_from_obj", lambda obj: "network " + obj["hashtag"]),
            ("partition_from_obj", lambda obj: "partition " + obj["network"]),
            ("labeling_from_obj", lambda obj: "labeling " + obj["network"]),
        ):
            def counting(obj, *args, _real=getattr(hashjack.pipeline, name), _key=key):
                decodes[_key(obj)] = decodes.get(_key(obj), 0) + 1
                return _real(obj, *args)

            monkeypatch.setattr(hashjack.pipeline, name, counting)

        # Events per stage: a ("read", path) after a ("write", path) in the
        # same stage means the stage read back what it wrote.
        spans, events = [], []

        def log(kind, real):
            def logged(path, *args, **kwargs):
                events.append((kind, Path(path).resolve()))
                return real(path, *args, **kwargs)
            return logged

        def span(real):
            def spanned(*args, **kwargs):
                events.clear()
                try:
                    return real(*args, **kwargs)
                finally:
                    spans.append(list(events))
            return spanned

        for module in (hashjack.pipeline, hashjack.store):
            monkeypatch.setattr(module, "write_text_atomic",
                                log("write", module.write_text_atomic))
        monkeypatch.setattr(hashjack.pipeline, "file_digest",
                            log("read", hashjack.pipeline.file_digest))
        monkeypatch.setattr(Path, "read_bytes", log("read", Path.read_bytes))
        monkeypatch.setattr(hashjack.pipeline, "run_stage",
                            span(hashjack.pipeline.run_stage))
        monkeypatch.setattr(hashjack.pipeline, "write_report",
                            span(hashjack.pipeline.write_report))
        manifest_loads = []

        def counting_load(path, *args, _real=hashjack.pipeline.load_json):
            if Path(path).name == "manifest.json":
                manifest_loads.append(path)
            return _real(path, *args)

        monkeypatch.setattr(hashjack.pipeline, "load_json", counting_load)

        assert run_cli(
            "pipeline", "ingest", "build", "communities", "label", "polarisation",
            "odds", "activity", "report", "--input", corpus["corpus"],
            "--tracked", TRACKED, "--resolution", "0.5", "--labels",
            tmp_path / "relabel.json", "--targets", "agenda", "--run-dir", run,
        ) == 0
        assert len(spans) == 8
        assert len(manifest_loads) == 8  # once per writer stage and once for report
        assert decodes and max(decodes.values()) == 1, decodes
        for stage_events in spans:
            written = set()
            for kind, path in stage_events:
                if kind == "write":
                    written.add(path)
                else:
                    assert path not in written, f"{path} read back after its write"
        assert any(kind == "write" for stage_events in spans for kind, _ in stage_events)

    def test_report_refuses_bytes_swapped_after_check(
        self, corpus, tmp_path, monkeypatch, capsys
    ):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="activity")
        real = hashjack.pipeline.require_stage

        def check_then_swap(run_dir, manifest, name):
            entry = real(run_dir, manifest, name)
            if name == "label":  # the last check before report loads anything
                (run / "polarisation.json").write_text('{"profiles": []}\n')
            return entry

        monkeypatch.setattr(hashjack.pipeline, "require_stage", check_then_swap)
        capsys.readouterr()
        assert run_cli("report", "--run-dir", run) == 2
        assert "artifacts of stage 'polarisation' are missing or modified" in (
            capsys.readouterr().err
        )
        assert not (run / "report.json").exists()

    def test_cache_still_refuses_an_edit(self, corpus, tmp_path):
        root = tmp_path / "run"
        bootstrap(root, corpus, upto="label")
        run = hashjack.pipeline.RunDir(root)
        assert hashjack.pipeline.stage_polarisation(run)[0]
        path = root / "partitions" / "agenda.json"
        original = path.read_bytes()
        path.write_bytes(original.replace(b'"seed": 42', b'"seed": 43'))
        with pytest.raises(StageError, match="stage 'communities' are missing or modified"):
            hashjack.pipeline.stage_odds(run, ["agenda"])
        assert run_cli("odds", "--targets", "agenda", "--run-dir", root) == 2
        path.write_bytes(original)
        assert hashjack.pipeline.stage_odds(run, ["agenda"])[0]
        # A rewritten partition is decoded again, as a new process would.
        assert run_cli("communities", "--network", "agenda", "--seed", "7",
                       "--run-dir", root) == 0
        assert path.read_bytes() != original
        shutil.copytree(root, tmp_path / "fresh")
        labels = json.loads(corpus["labels"].read_text())
        assert hashjack.pipeline.stage_label(run, labels)[0]
        assert run_cli("label", "apply", "--labels", corpus["labels"],
                       "--run-dir", tmp_path / "fresh") == 0
        assert (root / "labels" / "agenda.json").read_bytes() == (
            tmp_path / "fresh" / "labels" / "agenda.json").read_bytes()

    def test_killed_writer_leaves_no_temporary_file(self, corpus, tmp_path):
        run = tmp_path / "run"
        die_in_replace = (
            "import os, signal, sys\n"
            "from hashjack.cli import entrypoint\n"
            "real = os.replace\n"
            "def replace(src, dst):\n"
            "    if str(dst).endswith('stats.json'):\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    real(src, dst)\n"
            "os.replace = replace\n"
            "entrypoint(sys.argv[1:])\n"
        )
        child = subprocess.Popen(
            [sys.executable, "-c", die_in_replace, "ingest", str(corpus["corpus"]),
             "--tracked", TRACKED, "--run-dir", str(run)],
            env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        assert child.wait(timeout=120) == -signal.SIGKILL
        assert list(run.rglob("*.tmp")) == [run / "store" / f"stats.json.{child.pid}.tmp"]
        live = run / f"report.json.{os.getpid()}.tmp"
        live.write_text("a writer that is still running\n")
        assert run_cli("ingest", corpus["corpus"], "--tracked", TRACKED,
                       "--run-dir", run) == 0
        assert list(run.rglob("*.tmp")) == [live]


# -- mutated corpus lines and labels entries ---------------------------------

# Strings that are hard on a parser or an XML writer: lone surrogates,
# control characters, XML markup and non-ASCII.
HOSTILE_STRINGS = [
    "a\ud800", "\udfff", "x\x01y", "\x00", "a\x1fb", "\x0b", "\x0c", "a\tb", "a\nb",
    "a\rb", "&", "<a>", '"q"', "x'y", "]]>", 'c&<"\t', "\xe9", "\U0001f600", "\ufffe",
    "\uffff", "\x7f", "\x85", "\u2028", " ",
]
MISSING = object()  # a field removed from the line or entry
LINE_FIELDS = ["tweet_id", "author", "retweeted_author", "hashtags", "timestamp", "extra"]
LINE_VALUES = [
    MISSING, None, 5, 1.5, True, [], {}, "", ["#agenda"], ["#agenda", "#a\ud800"],
    ["#party1", 7], "2020-03-01T00:00:00Z", "2020-03-01", *HOSTILE_STRINGS,
    *OUT_OF_RANGE,
]
LABEL_FIELDS = ["network", "seeds", "seeds.pro", "labels", "min_community_size", "extra"]
LABEL_VALUES = [
    MISSING, None, 5, -1, True, [], {}, "", "agenda", "#party2", {"0": "pro"},
    {"999": "pro"}, {"x": "pro"}, {"0": "pro", "1": "pro"}, {"pro": ["a"]},
    {"pro": [5, None]}, {"pro": "a"}, {"neutral": []}, *HOSTILE_STRINGS,
    *({"pro": [s]} for s in HOSTILE_STRINGS), *({"0": s} for s in HOSTILE_STRINGS),
]
CSV_FIELDS = [*CSV_COLUMNS, "extra"]
CSV_VALUES = [
    MISSING, "", '"', 'a"b', '"a', "a,b", ",", "\\", "#agenda|", "|#agenda",
    "#agenda||#party1", "#agenda|#a b", "#AGENDA", "2020-03-01T00:00:00Z", "2020-03-01",
    "x'y>", *OUT_OF_RANGE, *HOSTILE_STRINGS,
]
# How a row is written: quoted where needed, every field quoted, or joined
# with commas and never quoted.
CSV_STYLES = ["minimal", "all", "raw"]
SMALL_STEP = 10  # the small corpus keeps every tenth line of the shared one


def with_field(obj: dict, field: str, value) -> dict:
    obj = dict(obj)
    if value is MISSING:
        obj.pop(field, None)
    else:
        obj[field] = value
    return obj


def json_line(obj, ascii_only: bool) -> str:
    """The object as one JSON line; a lone surrogate is always escaped."""
    text = json.dumps(obj, ensure_ascii=ascii_only)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        text = json.dumps(obj)
    return text


def csv_line(row: list[str], style: str) -> str:
    if style == "raw":
        return ",".join(row) + "\n"
    buffer = io.StringIO()
    quoting = csv.QUOTE_ALL if style == "all" else csv.QUOTE_MINIMAL
    csv.writer(buffer, lineterminator="\n", quoting=quoting).writerow(row)
    return buffer.getvalue()


def assert_exports_accounts(source: Path, fmt: str, run: Path) -> None:
    """Each network's export lists exactly the accounts of its parsed stream."""
    with open(source, encoding="utf-8") as fh:
        records, _ = parse_records(fh, fmt)
    streams, _ = split_streams(records, TRACKED.split(","))
    for tag, stream in streams.items():
        gexf = run.parent / f"{tag}.gexf"
        code, err = exit_code_and_stderr(
            "export", "--network", tag, "--gexf", gexf, "--run-dir", run
        )
        assert code == 0, err
        root = ET.parse(gexf).getroot()
        exported = [n.get("id") for n in root.iter(f"{GEXF_NS}node")]
        accounts = {r.author for r in stream}
        accounts |= {r.retweeted_author for r in stream if r.is_retweet}
        assert exported == sorted(accounts)


@pytest.fixture(scope="module")
def small_lines(corpus):
    return corpus["corpus"].read_text(encoding="utf-8").splitlines()[::SMALL_STEP]


@pytest.fixture(scope="module")
def small_rows(small_lines):
    """The small corpus as CSV rows, without the header."""
    records, _ = parse_records(small_lines)
    sink = io.StringIO()
    write_csv(records, sink)
    return list(csv.reader(sink.getvalue().splitlines()))[1:]


@pytest.fixture(scope="module")
def clustered(corpus, tmp_path_factory):
    """A run directory through communities that TestMutatedInputExits0Or2 copies."""
    run = tmp_path_factory.mktemp("clustered") / "run"
    bootstrap(run, corpus, upto="communities")
    return run


class TestMutatedInputExits0Or2:
    """No mutated corpus line (JSONL or CSV) or labels entry makes the CLI
    fail internally, and an accepted line's accounts come back unchanged from
    the export."""

    @settings(max_examples=70, deadline=None)
    @given(
        index=st.integers(min_value=0),
        field=st.sampled_from(LINE_FIELDS),
        value=st.sampled_from(LINE_VALUES),
        ascii_only=st.booleans(),
    )
    @example(index=0, field="author", value="a\ud800", ascii_only=True)
    @example(index=1, field="retweeted_author", value='c&<"\t', ascii_only=False)
    @example(index=2, field="author", value="x\x01y", ascii_only=True)
    @example(index=3, field="author", value="\ufffe", ascii_only=False)
    @example(index=4, field="timestamp", value=OUT_OF_RANGE[0], ascii_only=True)
    def test_corpus_line(self, small_lines, index, field, value, ascii_only):
        lines = list(small_lines)
        index %= len(lines)
        lines[index] = json_line(with_field(json.loads(lines[index]), field, value), ascii_only)
        with tempfile.TemporaryDirectory() as tmp:
            source = Path(tmp) / "corpus.jsonl"
            source.write_text("\n".join(lines) + "\n", encoding="utf-8")
            run = Path(tmp) / "run"
            code, err = exit_code_and_stderr(
                "pipeline", "ingest", "build", "--input", source, "--tracked", TRACKED,
                "--run-dir", run,
            )
            assert code in (0, 2), err
            assert "internal error" not in err
            if code == 0:
                assert_exports_accounts(source, "jsonl", run)

    @settings(max_examples=100, deadline=None)
    @given(
        index=st.integers(min_value=0),
        field=st.sampled_from(CSV_FIELDS),
        value=st.sampled_from(CSV_VALUES),
        style=st.sampled_from(CSV_STYLES),
    )
    @example(index=0, field="author", value='c&<"\t', style="minimal")
    @example(index=1, field="retweeted_author", value="a\ud800", style="all")
    @example(index=2, field="hashtags", value='"a', style="raw")
    @example(index=3, field="tweet_id", value="x'y>", style="all")
    @example(index=4, field="timestamp", value=OUT_OF_RANGE[1], style="minimal")
    def test_csv_row(self, small_rows, index, field, value, style):
        rows = [list(row) for row in small_rows]
        row = rows[index % len(rows)]
        if field == "extra":
            row += [] if value is MISSING else [value]
        elif value is MISSING:
            del row[CSV_COLUMNS.index(field)]
        else:
            row[CSV_COLUMNS.index(field)] = value
        with tempfile.TemporaryDirectory() as tmp:
            source = Path(tmp) / "corpus.csv"
            # a lone surrogate goes to the file as the bytes UTF-8 forbids
            source.write_text(
                "".join(csv_line(r, style) for r in [list(CSV_COLUMNS), *rows]),
                encoding="utf-8", errors="surrogatepass",
            )
            run = Path(tmp) / "run"
            code, err = exit_code_and_stderr(
                "pipeline", "ingest", "build", "--input", source, "--tracked", TRACKED,
                "--format", "csv", "--run-dir", run,
            )
            assert code in (0, 2), err
            assert "internal error" not in err
            if code == 0:
                assert_exports_accounts(source, "csv", run)

    @settings(max_examples=100, deadline=None)
    @given(
        which=st.integers(min_value=0, max_value=2),
        field=st.sampled_from(LABEL_FIELDS),
        value=st.sampled_from(LABEL_VALUES),
    )
    @example(which=0, field="seeds", value={"pro": ["\ud800"]})
    @example(which=0, field="seeds.pro", value="\ud800")
    @example(which=1, field="seeds.pro", value='c&<"\t')
    def test_labels_entry(self, corpus, clustered, which, field, value):
        entries = json.loads(corpus["labels"].read_text())
        if field == "seeds.pro":  # one more pro seed beside the real ones
            seeds = entries[which]["seeds"]
            seeds["pro"] += [] if value is MISSING else [value]
        else:
            entries[which] = with_field(entries[which], field, value)
        with tempfile.TemporaryDirectory() as tmp:
            labels = Path(tmp) / "labels.json"
            labels.write_text(json.dumps(entries), encoding="utf-8")
            run = Path(tmp) / "run"
            shutil.copytree(clustered, run)
            code, err = exit_code_and_stderr(
                "label", "apply", "--labels", labels, "--run-dir", run
            )
        assert code in (0, 2), err
        assert "internal error" not in err
