"""End-to-end pipeline tests driven through the CLI entrypoint in-process."""

import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import hashjack.pipeline
from hashjack.cli import entrypoint
from hashjack.errors import StageError
from hashjack.graph import build_networks
from hashjack.ingest import parse_records, split_streams
from hashjack.store import load_json, network_to_obj, registry_to_obj


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
        assert run_cli("polarisation", "--out", outside, "--run-dir", run) == 0
        assert run_cli("polarisation", "--threshold", "0.1", "--run-dir", run) == 0
        assert outside.exists()

    def test_stats_written(self, corpus, tmp_path):
        run = tmp_path / "run"
        bootstrap(run, corpus, upto="ingest")
        stats = load_json(run / "store" / "stats.json")
        assert stats["reject_count"] == 0
        assert set(stats["per_hashtag"]) == {"agenda", "party1", "party2"}
        assert stats["record_count"] > 0


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
BAD_SYNTH_CONFIGS = [
    {**SYNTH_CFG, "parties": [{"name": 5, "partisans": 10, "contras": 5}]},
    {**SYNTH_CFG, "hijack": {"p": 0.5}},
    5,
    {**SYNTH_CFG, "public_hashtags": [{"name": [1], "pro": 10, "contra": 5}]},
]
BAD_INPUTS += [
    (("synth", "--config", "{labels}", "--out", "{tmp}/o.jsonl"), cfg)
    for cfg in BAD_SYNTH_CONFIGS
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
        code = run_cli(*(a.format(**fields) for a in argv), "--run-dir", finished)
        err = capsys.readouterr().err
        assert code == 2, err
        assert "internal error" not in err
        assert (finished / "manifest.json").read_bytes() == before


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
        real = hashjack.pipeline.parse_records

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hashjack.pipeline, "parse_records", counting)
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

        assert run_cli(
            "pipeline", "ingest", "build", "communities", "label", "polarisation",
            "odds", "activity", "report", "--input", corpus["corpus"],
            "--tracked", TRACKED, "--resolution", "0.5", "--labels",
            tmp_path / "relabel.json", "--targets", "agenda", "--run-dir", run,
        ) == 0
        assert len(spans) == 8
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
