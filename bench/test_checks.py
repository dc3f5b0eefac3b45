"""Each benchmark check passes on a real run and rejects a corrupted copy.

Run from the repository root:

    python3 -m pytest bench/test_checks.py

A small corpus goes through the real CLI once; every test then corrupts
one artifact of a copy of that run in one way and expects the check that
guards it to report a problem, so no check passes vacuously.
"""

from __future__ import annotations

import json
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import checks
import run as bench

TINY = {
    "seed": 5,
    "parties": [
        {"name": "party1", "partisans": 300, "contras": 80},
        {"name": "party2", "partisans": 300, "contras": 80},
    ],
    "public_hashtags": [{"name": "agenda", "pro": 400, "contra": 80}],
    "activity": {"zipf_s": 1.05, "events_per_member": 6, "attention_s": 2.2},
    "mixing": {"p_in": 0.95, "p_out": 0.001},
    "participation": 0.8,
    "hijack": {"party1": {"agenda": 0.1}},
}
TAG = bench.TARGET


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """Inputs, a finished run directory, its label report and its report bytes."""
    work = tmp_path_factory.mktemp("bench")
    (work / "logs").mkdir()
    runner = bench.Runner(work)
    inputs = bench.Inputs(runner, work / "inputs", TINY, inject=True)
    run_dir = work / "run"
    runner.hashjack(*bench.pipeline_args(inputs, inputs.labels[0], run_dir))
    runner.hashjack("export", "--network", TAG, "--gexf", run_dir / f"{TAG}.gexf",
                    "--run-dir", run_dir)
    report = work / "label-report.txt"
    runner.hashjack("label", "report", "--network", TAG, "--run-dir", run_dir, stdout=report)
    return {
        "inputs": inputs,
        "run_dir": run_dir,
        "recount": checks.recount_corpus(inputs.clean),
        "label_report": report.read_text(),
        "report": (run_dir / "report.json").read_bytes(),
    }


def all_checks(made, root: Path) -> dict[str, list[str]]:
    run = checks.Run(root)
    inputs = made["inputs"]
    return {
        "stats": checks.check_stats(run, inputs.event_count, len(bench.INJECTED)),
        "networks": checks.check_networks(run, made["recount"]),
        "modularity": checks.check_modularity(run),
        "labels": checks.check_labels(run, inputs.sides),
        "odds": checks.check_odds(run),
        "polarisation": checks.check_polarisation(run),
        "activity": checks.check_activity(run),
        "gexf": checks.check_gexf(root / f"{TAG}.gexf", run, TAG),
        "label_report": checks.check_label_report(made["label_report"], run, TAG),
        "report": checks.check_report_equal(run, made["report"]),
    }


def test_every_check_passes_on_the_real_run(made):
    found = all_checks(made, made["run_dir"])
    assert not any(found.values()), found


def edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def bump_edge(net):
    net["edges"][0][2] += 1


def flip_labels(lab):
    swap = {"pro": "contra", "contra": "pro", "other": "other"}
    lab["labels"] = {cid: swap[label] for cid, label in lab["labels"].items()}


def shift_cell(odds):
    odds["rows"][0]["a"] += 1
    odds["rows"][0]["b"] -= 1


def drop_gexf_node(path: Path) -> None:
    ET.register_namespace("", checks.GEXF_NS.strip("{}"))
    tree = ET.parse(path)
    nodes = tree.getroot().find(f"{checks.GEXF_NS}graph/{checks.GEXF_NS}nodes")
    nodes.remove(nodes[0])
    tree.write(path, encoding="UTF-8", xml_declaration=True)


CORRUPTIONS = {
    # name: (check expected to object, change to the copied run directory)
    "edge weight off by one": (
        "networks", lambda d: edit_json(d / f"networks/{TAG}.json", bump_edge)),
    "stored modularity off by 1e-6": (
        "modularity", lambda d: edit_json(
            d / f"partitions/{TAG}.json",
            lambda p: p.update(modularity=p["modularity"] + 1e-6))),
    "flipped label": (
        "labels", lambda d: edit_json(d / f"labels/{TAG}.json", flip_labels)),
    "shifted odds cell": (
        "odds", lambda d: edit_json(d / "odds.json", shift_cell)),
    "odds ratio off its closed form": (
        "odds", lambda d: edit_json(
            d / "odds.json", lambda o: o["rows"][0].update(**{"or": o["rows"][0]["or"] * 1.001}))),
    "polarisation share moved": (
        "polarisation", lambda d: edit_json(
            d / "polarisation.json",
            lambda p: p["profiles"][0].update(share_pro=p["profiles"][0]["share_pro"] + 1e-6))),
    "concentration point moved": (
        "activity", lambda d: edit_json(
            d / "activity.json",
            lambda a: a["curves"][0]["points"][1].__setitem__(1, a["curves"][0]["points"][1][1] + 1e-6))),
    "reject count off by one": (
        "stats", lambda d: edit_json(
            d / "store/stats.json", lambda s: s.update(reject_count=s["reject_count"] + 1))),
    "dropped GEXF node": (
        "gexf", lambda d: drop_gexf_node(d / f"{TAG}.gexf")),
    "report byte changed": (
        "report", lambda d: (d / "report.json").write_bytes(
            (d / "report.json").read_bytes().replace(b"\n", b" \n", 1))),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_check_rejects_corrupted_copy(made, tmp_path, corruption):
    check, corrupt = CORRUPTIONS[corruption]
    copy = tmp_path / "run"
    shutil.copytree(made["run_dir"], copy)
    corrupt(copy)
    found = all_checks(made, copy)
    assert found[check], f"{check} check accepted a copy with {corruption}"


def test_label_report_check_rejects_wrong_size(made):
    text = made["label_report"].replace(" accounts)", "1 accounts)", 1)
    assert checks.check_label_report(text, checks.Run(made["run_dir"]), TAG)


def test_benchmark_json_matches_run_py():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
