"""Stage orchestration over an on-disk run directory.

A run directory holds one manifest plus the artifacts of seven stages:

    ingest -> build -> communities -> label -> polarisation | odds | activity

The corpus is parsed once, by ingest, which stores each tracked hashtag's
stream as registry-index pairs; build aggregates those pairs into networks
without reading the corpus again.

Each manifest entry records the stage's parameters, input digests, the
fingerprints of its prerequisite stages, and a digest per output file.
A stage fingerprint is the hash of (name, params, input digests, upstream
fingerprints), so rerunning with identical parameters is a no-op and any
parameter or input change invalidates everything downstream. `report` and
`export` are derived read-only views: they write no manifest entry and
take no lock, so they may run next to a writer. Writers take a kernel lock
on `.lock`, which a killed writer cannot leave behind.

Timestamps appear only in the manifest, never in fingerprints or in
report.json; equal inputs and parameters give byte-equal artifacts.
"""

from __future__ import annotations

import csv
import fcntl
import io
import math
import os
import uuid
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .community import louvain
from .errors import EdgelessGraphError, LabelingError, StageError, RunLockError
from .gexf import gexf_document
from .graph import event_pairs, network_from_events, stream_registry, undirected_projection
from .ingest import normalize_hashtag, parse_records, split_streams, corpus_stats, \
    write_rejects
from .labeling import DEFAULT_MIN_COMMUNITY_SIZE, PRO, CONTRA, OTHER, \
    apply_overrides, label_by_seeds, manual_labeling, partisans, top_retweeted
from .metrics import BASIS_ACCOUNTS, BASIS_VOLUME, PolarisationProfile, \
    cluster_composition, concentration, polarisation, polarisation_shift
from .odds import hashjack_matrix
from .store import dump_json, dump_pairs, file_digest, load_json, load_pairs, \
    obj_digest, write_text_atomic, labeling_from_obj, labeling_to_obj, network_from_obj, \
    network_to_obj, partition_from_obj, partition_to_obj, registry_from_obj, registry_to_obj

STAGE_ORDER = (
    "ingest", "build", "communities", "label", "polarisation", "odds", "activity"
)
PREREQS: dict[str, tuple[str, ...]] = {
    "ingest": (),
    "build": ("ingest",),
    "communities": ("build",),
    "label": ("communities",),
    "polarisation": ("label",),
    "odds": ("label",),
    "activity": ("label",),
}
# The stages whose artifacts each stage loads. run_stage verifies them once
# and hands their entries to the stage; only PREREQS enter the fingerprint.
READS: dict[str, tuple[str, ...]] = {
    "ingest": (),
    "build": ("ingest",),
    "communities": ("build",),
    "label": ("build", "communities"),
    "polarisation": ("build", "communities", "label"),
    "odds": ("build", "communities", "label"),
    "activity": ("build", "communities", "label"),
}
DEFAULT_FRACTIONS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)
EVIDENCE_K = 10


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds").replace(
        "+00:00", "Z"
    )


class RunLock:
    """Exclusive writer lock on a run directory.

    The lock is a kernel lock (flock) on `.lock`, so it is released when its
    holder exits or is killed. The file holds the last holder's pid for the
    error message and is never removed.
    """

    def __init__(self, root: Path):
        self.path = Path(root) / ".lock"
        self.fd: int | None = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            owner = os.read(fd, 32).decode("ascii", "replace").strip() or "unknown"
            os.close(fd)
            raise RunLockError(f"run directory is locked by process {owner}") from None
        except BaseException:
            os.close(fd)
            raise
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode("ascii"))
        self.fd = fd
        return self

    def __exit__(self, *exc):
        os.close(self.fd)  # releases the flock
        return False


class RunDir:
    """Paths and manifest access for one run directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def load_manifest(self) -> dict:
        if self.manifest_path.exists():
            return load_json(self.manifest_path)
        return {
            "run_id": uuid.uuid4().hex[:12],
            "created": _now(),
            "tracked": [],
            "stages": {},
        }

    def save_manifest(self, manifest: dict) -> None:
        dump_json(manifest, self.manifest_path)


# -- manifest bookkeeping -----------------------------------------------

def _fingerprint(name: str, params, inputs, upstream) -> str:
    return obj_digest(
        {"stage": name, "params": params, "inputs": inputs, "upstream": upstream}
    )


def _outputs_ok(run: RunDir, entry: Mapping) -> bool:
    for rel, digest in entry["outputs"].items():
        path = run.root / rel
        if not path.exists() or file_digest(path) != digest:
            return False
    return True


def _chain_valid(manifest: Mapping, name: str) -> bool:
    """Entry exists and its recorded upstream fingerprints still hold."""
    entry = manifest["stages"].get(name)
    if entry is None:
        return False
    for dep in PREREQS[name]:
        if not _chain_valid(manifest, dep):
            return False
        recorded = entry["upstream"].get(dep)
        if recorded != manifest["stages"][dep]["fingerprint"]:
            return False
    return True


def _drop_stale(manifest: dict) -> None:
    for name in STAGE_ORDER:
        if name in manifest["stages"] and not _chain_valid(manifest, name):
            del manifest["stages"][name]


def _valid_entry(manifest: Mapping, name: str) -> dict:
    """The entry of a stage whose upstream chain holds, or an actionable error."""
    if not _chain_valid(manifest, name):
        raise StageError(f"stage '{name}' has not been run; run `hashjack {name}` first")
    return manifest["stages"][name]


def require_stage(run: RunDir, manifest: Mapping, name: str) -> dict:
    """The valid manifest entry for a prerequisite, or an actionable error."""
    entry = _valid_entry(manifest, name)
    if not _outputs_ok(run, entry):
        raise StageError(
            f"artifacts of stage '{name}' are missing or modified; "
            f"rerun `hashjack {name}`"
        )
    return entry


def run_stage(run, name, params, execute, inputs=None, source=None):
    """Execute one writer stage under the run lock.

    Returns (ran, entry). A stage whose fingerprint matches the recorded
    entry and whose outputs are intact is skipped. Otherwise each stage in
    READS[name] is verified once and `execute(run, manifest, params, deps)`
    gets their entries by name. After a real run every stage whose upstream
    chain no longer matches is dropped from the manifest. When the stage
    wrote to the same `out` as before, the files inside the run directory
    that its previous entry listed and no remaining entry lists are removed;
    a file-output stage given a new `--out` removes nothing, so an earlier
    output stays usable as `polarisation --compare`. Outputs of dropped
    entries stay on disk.
    """
    inputs = inputs or {}
    with RunLock(run.root):
        manifest = run.load_manifest()
        deps = {dep: require_stage(run, manifest, dep) for dep in PREREQS[name]}
        upstream = {dep: entry["fingerprint"] for dep, entry in deps.items()}
        fp = _fingerprint(name, params, inputs, upstream)
        prev = manifest["stages"].get(name)
        if prev is not None and prev["fingerprint"] == fp and _outputs_ok(run, prev):
            return False, prev
        for dep in READS[name]:
            if dep not in deps:
                deps[dep] = require_stage(run, manifest, dep)
        outputs = execute(run, manifest, params, deps)
        entry = {
            "params": params,
            "inputs": inputs,
            "upstream": upstream,
            "fingerprint": fp,
            "outputs": outputs,
            "completed": _now(),
        }
        if source is not None:
            entry["source"] = source
        manifest["stages"][name] = entry
        _drop_stale(manifest)
        run.save_manifest(manifest)
        if prev is not None and prev["params"]["out"] == params["out"]:
            root = run.root.resolve()
            listed = {rel for kept in manifest["stages"].values() for rel in kept["outputs"]}
            for rel in prev["outputs"].keys() - listed:
                path = (run.root / rel).resolve()
                if path.is_relative_to(root):
                    path.unlink(missing_ok=True)
        return True, entry


# -- artifact loading ---------------------------------------------------

def _built_tags(entry: Mapping) -> list[str]:
    out = entry["params"]["out"]
    tags = []
    for rel in entry["outputs"]:
        name = rel[len(out) + 1:]
        if name != "registry.json":
            tags.append(name[: -len(".json")])
    return sorted(tags)


def _load_registry(run: RunDir, build_entry: Mapping):
    path = run.root / build_entry["params"]["out"] / "registry.json"
    return registry_from_obj(load_json(path))


def _load_network(run: RunDir, build_entry: Mapping, tag: str):
    path = run.root / build_entry["params"]["out"] / f"{tag}.json"
    if not path.exists():
        raise StageError(f"no network built for #{tag}; check `--tracked` at ingest")
    return network_from_obj(load_json(path))


def _load_partition(run, communities_entry, tag, registry):
    path = run.root / communities_entry["params"]["out"] / f"{tag}.json"
    if not path.exists():
        raise StageError(
            f'no partition for #{tag}; run `hashjack communities --network "#{tag}"`'
        )
    return partition_from_obj(load_json(path), registry)


def _load_labeling(run, label_entry, tag):
    path = run.root / label_entry["params"]["out"] / f"{tag}.json"
    if not path.exists():
        raise StageError(f"no labeling for #{tag}; run `hashjack label apply` on it")
    labeling, _ = labeling_from_obj(load_json(path))
    return labeling


def _labeled_tags(entry: Mapping) -> list[str]:
    out = entry["params"]["out"]
    return sorted(rel[len(out) + 1: -len(".json")] for rel in entry["outputs"])


def _merged_networks(manifest: Mapping, name: str, out: str, requested: Mapping) -> dict:
    """Params of a per-network stage: `requested` over the previous entry's
    networks, kept when that entry is valid and wrote to the same `out`."""
    merged: dict[str, dict] = {}
    if _chain_valid(manifest, name):
        prev = manifest["stages"][name]["params"]
        if prev["out"] == out:
            merged = dict(prev["networks"])
    merged.update(requested)
    return {"networks": dict(sorted(merged.items())), "out": out}


def _per_network(run: RunDir, manifest: Mapping, name: str, params: Mapping, make):
    """Write one JSON artifact per network as `make(tag, opts)`.

    A network whose opts equal the previous entry's and whose file is
    intact keeps that file.
    """
    prev = manifest["stages"].get(name, {})
    prev_networks = prev.get("params", {}).get("networks", {})
    prev_outputs = prev.get("outputs", {})
    outputs = {}
    for tag, opts in params["networks"].items():
        rel = f"{params['out']}/{tag}.json"
        path = run.root / rel
        if (
            prev_networks.get(tag) == opts
            and rel in prev_outputs
            and path.exists()
            and file_digest(path) == prev_outputs[rel]
        ):
            outputs[rel] = prev_outputs[rel]
            continue
        dump_json(make(tag, opts), path)
        outputs[rel] = file_digest(path)
    return outputs


# -- writer stages ------------------------------------------------------

def stage_ingest(run, input_path, tracked, fmt="jsonl", strict=False, out="store"):
    """Parse and validate a corpus once; store each tracked stream as index pairs.

    The store holds `registry.json` (the sorted ids of every account in a
    tracked stream), one `<tag>.npy` of (author, retweeted) registry indices
    per tracked hashtag, `stats.json`, and `rejects.jsonl` when lines were
    rejected.
    """
    input_path = Path(input_path)
    if not input_path.is_file():
        raise StageError(f"no such input file: {input_path}")
    tags = sorted({normalize_hashtag(t) for t in tracked})
    if not tags:
        raise StageError("at least one tracked hashtag is required")
    if "registry" in tags:
        raise StageError(
            "#registry is a reserved name (build writes registry.json); "
            "it cannot be tracked"
        )
    params = {"format": fmt, "tracked": tags, "strict": bool(strict), "out": out}
    inputs = {"corpus": file_digest(input_path)}

    def execute(run, manifest, params, deps):
        with open(input_path, encoding="utf-8") as fh:
            records, rejects = parse_records(fh, fmt, strict=strict)
        if not records:
            detail = f" (line {rejects[0].line}: {rejects[0].reason})" if rejects else ""
            raise StageError(f"no valid records in input{detail}")
        store = run.root / out
        if rejects:
            buffer = io.StringIO()
            write_rejects(rejects, buffer)
            write_text_atomic(store / "rejects.jsonl", buffer.getvalue())
        streams, _ = split_streams(records, tags)
        registry = stream_registry(streams.values())
        dump_json(registry_to_obj(registry), store / "registry.json")
        for tag, stream in streams.items():
            dump_pairs(event_pairs(stream, registry), store / f"{tag}.npy")
        stats = corpus_stats(records).to_dict()
        stats["reject_count"] = len(rejects)
        dump_json(stats, store / "stats.json")
        manifest["tracked"] = tags
        names = ["registry.json", "stats.json", *(f"{tag}.npy" for tag in tags)]
        if rejects:
            names.append("rejects.jsonl")
        return {f"{out}/{name}": file_digest(store / name) for name in names}

    return run_stage(
        run, "ingest", params, execute, inputs=inputs, source=str(input_path)
    )


def stage_build(run, out="networks"):
    """Build each tracked hashtag's network from the stored index pairs."""
    params = {"out": out}

    def execute(run, manifest, params, deps):
        ingest_entry = deps["ingest"]
        store = ingest_entry["params"]["out"]
        if f"{store}/registry.json" not in ingest_entry["outputs"]:
            raise StageError(
                "the ingest store was written by an older hashjack; "
                "ingest into a new run directory"
            )
        registry = registry_from_obj(load_json(run.root / store / "registry.json"))
        nets = {}
        for tag in ingest_entry["params"]["tracked"]:
            pairs = load_pairs(run.root / store / f"{tag}.npy")
            if pairs:
                nets[tag] = network_from_events(tag, pairs)
        if not nets:
            raise StageError("no tracked hashtag appears in the corpus")
        outputs = {}
        rel = f"{out}/registry.json"
        dump_json(registry_to_obj(registry), run.root / rel)
        outputs[rel] = file_digest(run.root / rel)
        for tag in sorted(nets):
            rel = f"{out}/{tag}.json"
            dump_json(network_to_obj(nets[tag]), run.root / rel)
            outputs[rel] = file_digest(run.root / rel)
        return outputs

    return run_stage(run, "build", params, execute)


def stage_communities(run, networks=None, resolution=1.0, seed=42, out="partitions"):
    """Cluster the requested networks; untouched ones keep their artifacts."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise StageError(f"resolution must be a positive number, got {resolution}")
    manifest = run.load_manifest()
    built = _built_tags(_valid_entry(manifest, "build"))
    targets = built if networks is None else sorted(
        {normalize_hashtag(t) for t in networks}
    )
    for tag in targets:
        if tag not in built:
            raise StageError(
                f"#{tag} is not a built network; available: "
                + ", ".join("#" + t for t in built)
            )
    opts = {"resolution": float(resolution), "seed": int(seed)}
    params = _merged_networks(manifest, "communities", out, dict.fromkeys(targets, opts))

    def execute(run, manifest, params, deps):
        build_entry = deps["build"]
        registry = _load_registry(run, build_entry)

        def make(tag, opts):
            net = _load_network(run, build_entry, tag)
            try:
                partition = louvain(
                    undirected_projection(net), resolution=opts["resolution"],
                    seed=opts["seed"],
                )
            except EdgelessGraphError:
                raise StageError(f"#{tag} has no retweet edges to cluster") from None
            return partition_to_obj(partition, registry, tag)

        return _per_network(run, manifest, "communities", params, make)

    return run_stage(run, "communities", params, execute)


def normalize_label_request(obj: Mapping) -> tuple[str, dict]:
    """Validate one labels.json entry into (tag, canonical request)."""
    allowed = {"network", "seeds", "labels", "min_community_size"}
    unknown = set(obj) - allowed
    if unknown:
        raise LabelingError(f"unknown labels.json keys: {sorted(unknown)}")
    if "network" not in obj:
        raise LabelingError("labels.json entry is missing 'network'")
    if not isinstance(obj["network"], str):
        raise LabelingError(f"labels.json 'network' must be a string, got {obj['network']!r}")
    tag = normalize_hashtag(obj["network"])
    request: dict = {"seeds": {"pro": [], "contra": []}, "labels": {}}
    seeds = obj.get("seeds") or {}
    if not isinstance(seeds, dict):
        raise LabelingError(f"#{tag}: 'seeds' must map pro/contra to account lists")
    for side, accounts in seeds.items():
        if side not in (PRO, CONTRA):
            raise LabelingError(f"seed side must be pro or contra, got {side!r}")
        if not isinstance(accounts, list):
            raise LabelingError(f"#{tag}: seeds.{side} must be a list of account ids")
        request["seeds"][side] = sorted(map(str, accounts))
    labels = obj.get("labels") or {}
    if not isinstance(labels, dict):
        raise LabelingError(f"#{tag}: 'labels' must map community ids to labels")
    for cid, label in labels.items():
        if label not in (PRO, CONTRA, OTHER):
            raise LabelingError(f"community label must be pro/contra/other, got {label!r}")
        try:
            request["labels"][str(int(cid))] = label
        except ValueError:
            raise LabelingError(f"#{tag}: community id must be an integer, got {cid!r}") from None
    if not (request["labels"] or request["seeds"]["pro"] or request["seeds"]["contra"]):
        raise LabelingError(f"labels.json entry for #{tag} has neither seeds nor labels")
    if "min_community_size" in obj:
        size = obj["min_community_size"]
        if not isinstance(size, int) or isinstance(size, bool):
            raise LabelingError(f"#{tag}: min_community_size must be an integer, got {size!r}")
        request["min_community_size"] = size
    return tag, request


def stage_label(run, requests: Sequence[Mapping], out="labels"):
    """Apply seed lists and manual overrides, writing one labeling per network."""
    normalized = dict(normalize_label_request(obj) for obj in requests)
    if not normalized:
        raise StageError("labels.json contains no entries")
    params = _merged_networks(run.load_manifest(), "label", out, normalized)

    def execute(run, manifest, params, deps):
        build_entry, communities_entry = deps["build"], deps["communities"]
        registry = _load_registry(run, build_entry)

        def make(tag, request):
            partition = _load_partition(run, communities_entry, tag, registry)
            net = _load_network(run, build_entry, tag)
            ranked = top_retweeted(net, partition, EVIDENCE_K, registry)
            evidence = {cid: tuple(rows) for cid, rows in ranked.items()}
            seeds = request["seeds"]
            overrides = {int(cid): label for cid, label in request["labels"].items()}
            if seeds["pro"] or seeds["contra"]:
                labeling = label_by_seeds(
                    partition,
                    seeds["pro"],
                    seeds["contra"],
                    registry,
                    network=tag,
                    min_community_size=request.get(
                        "min_community_size", DEFAULT_MIN_COMMUNITY_SIZE
                    ),
                    evidence=evidence,
                )
                if overrides:
                    labeling = apply_overrides(labeling, overrides)
            else:
                labeling = manual_labeling(
                    partition, overrides, network=tag, evidence=evidence
                )
            return labeling_to_obj(labeling, seeds=seeds)

        return _per_network(run, manifest, "label", params, make)

    return run_stage(run, "label", params, execute)


def _profile_from_row(row: Mapping) -> PolarisationProfile:
    return PolarisationProfile(
        network=normalize_hashtag(row["network"]),
        basis=row["basis"],
        share_pro=row["share_pro"],
        share_contra=row["share_contra"],
        share_other=row["share_other"],
        total=row["total"],
    )


def stage_polarisation(run, threshold=0.05, compare=None, out="polarisation.json"):
    """Pro/contra/other shares for every labeled network, on both bases."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise StageError(f"threshold must be a number >= 0, got {threshold}")
    params: dict = {"threshold": float(threshold), "out": out}
    inputs = {}
    if compare is not None:
        compare = Path(compare)
        if not compare.is_file():
            raise StageError(f"no such comparison file: {compare}")
        inputs["compare"] = file_digest(compare)

    def execute(run, manifest, params, deps):
        build_entry = deps["build"]
        communities_entry = deps["communities"]
        label_entry = deps["label"]
        registry = _load_registry(run, build_entry)
        rows = []
        for tag in _labeled_tags(label_entry):
            net = _load_network(run, build_entry, tag)
            partition = _load_partition(run, communities_entry, tag, registry)
            labeling = _load_labeling(run, label_entry, tag)
            for basis in (BASIS_VOLUME, BASIS_ACCOUNTS):
                rows.append(polarisation(net, partition, labeling, basis).to_dict())
        obj: dict = {"profiles": rows}
        if compare is not None:
            try:
                earlier = {
                    (r["network"], r["basis"]): r
                    for r in load_json(compare)["profiles"]
                }
            except (OSError, ValueError, KeyError, TypeError):
                raise StageError(
                    f"{compare} is not a polarisation artifact"
                ) from None
            shifts = []
            for row in rows:
                old = earlier.get((row["network"], row["basis"]))
                if old is None:
                    continue
                shifts.append(
                    polarisation_shift(
                        _profile_from_row(old),
                        _profile_from_row(row),
                        threshold=params["threshold"],
                    )
                )
            obj["shift"] = shifts
        dump_json(obj, run.root / out)
        return {out: file_digest(run.root / out)}

    return run_stage(
        run, "polarisation", params, execute, inputs=inputs,
        source=None if compare is None else str(compare),
    )


def _split_parties(run, deps, targets):
    """(registry, partisan sets of the non-target labeled networks, loaded targets).

    `deps` maps build, communities and label to their verified entries.
    """
    build_entry = deps["build"]
    communities_entry = deps["communities"]
    label_entry = deps["label"]
    registry = _load_registry(run, build_entry)
    labeled = _labeled_tags(label_entry)
    for tag in targets:
        if tag not in labeled:
            raise StageError(
                f"target #{tag} has no labeling; run `hashjack label apply` on it"
            )
    parties = [tag for tag in labeled if tag not in targets]
    if not parties:
        raise StageError(
            "every labeled network is a target; label at least one party network"
        )
    psets = []
    for tag in parties:
        partition = _load_partition(run, communities_entry, tag, registry)
        labeling = _load_labeling(run, label_entry, tag)
        psets.append(partisans(labeling, partition))
    loaded = {}
    for tag in targets:
        net = _load_network(run, build_entry, tag)
        partition = _load_partition(run, communities_entry, tag, registry)
        labeling = _load_labeling(run, label_entry, tag)
        loaded[tag] = (net, partition, labeling)
    return registry, psets, loaded


def stage_odds(run, targets, out="odds.json"):
    """Estimate the partisan-vs-contra odds matrix over the target networks."""
    tags = sorted({normalize_hashtag(t) for t in targets})
    if not tags:
        raise StageError("at least one target hashtag is required")
    params = {"targets": tags, "out": out}

    def execute(run, manifest, params, deps):
        _, psets, loaded = _split_parties(run, deps, tags)
        estimates = hashjack_matrix(psets, loaded)
        obj = {
            "targets": ["#" + t for t in tags],
            "rows": [estimate.to_dict() for estimate in estimates],
        }
        dump_json(obj, run.root / out)
        return {out: file_digest(run.root / out)}

    return run_stage(run, "odds", params, execute)


def stage_activity(run, targets=None, fractions=DEFAULT_FRACTIONS, out="activity.json"):
    """Concentration curves for each party's partisans over all networks."""
    manifest = run.load_manifest()
    if targets is None:
        if _chain_valid(manifest, "odds"):
            tags = manifest["stages"]["odds"]["params"]["targets"]
        else:
            raise StageError("pass --targets, or run `hashjack odds` first")
    else:
        tags = sorted({normalize_hashtag(t) for t in targets})
    fracs = sorted({float(q) for q in fractions})
    if not fracs or not all(0 < q <= 1 for q in fracs):
        raise StageError("fractions must lie in (0, 1]")
    params = {"targets": tags, "fractions": fracs, "out": out}

    def execute(run, manifest, params, deps):
        registry, psets, _ = _split_parties(run, deps, tags)
        nets = [
            _load_network(run, deps["build"], tag) for tag in _built_tags(deps["build"])
        ]
        curves = [
            concentration(pset, nets, fracs, registry).to_dict()
            for pset in sorted(psets, key=lambda p: p.party)
        ]
        obj = {"fractions": fracs, "curves": curves}
        dump_json(obj, run.root / out)
        return {out: file_digest(run.root / out)}

    return run_stage(run, "activity", params, execute)


# -- derived views (no lock, no manifest entry) -------------------------

def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buffer.getvalue()


def write_report(run: RunDir, out="report.json", top_k=100):
    """Bundle every metric artifact plus one plot-ready CSV per figure."""
    if top_k < 1:
        raise StageError(f"top-k must be at least 1, got {top_k}")
    manifest = run.load_manifest()
    deps = {
        name: require_stage(run, manifest, name)
        for name in ("polarisation", "odds", "activity", "build", "communities", "label")
    }
    polar = load_json(run.root / deps["polarisation"]["params"]["out"])
    odds_obj = load_json(run.root / deps["odds"]["params"]["out"])
    act = load_json(run.root / deps["activity"]["params"]["out"])

    targets = deps["odds"]["params"]["targets"]
    registry, psets, loaded = _split_parties(run, deps, targets)
    pset_map = {p.party: p for p in psets}
    compositions = {}
    for tag in targets:
        net, partition, labeling = loaded[tag]
        contra_cid = labeling.contra_community
        if contra_cid is None:
            continue
        members = partition.members(contra_cid)
        report = cluster_composition(members, pset_map, net, top_k, registry)
        compositions["#" + tag] = report.to_dict()

    bundle = {
        "polarisation": polar,
        "odds": odds_obj,
        "activity": act,
        "compositions": compositions,
        "stages": {
            name: manifest["stages"][name]["fingerprint"]
            for name in STAGE_ORDER
            if name in manifest["stages"]
        },
    }
    report_path = run.root / out
    dump_json(bundle, report_path)

    fig1 = _csv_text(
        (
            "network", "basis", "share_pro", "share_contra", "share_other",
            "share_pro_excl_other", "share_contra_excl_other", "total",
        ),
        [
            (
                r["network"], r["basis"], r["share_pro"], r["share_contra"],
                r["share_other"], r["share_pro_excl_other"],
                r["share_contra_excl_other"], r["total"],
            )
            for r in polar["profiles"]
        ],
    )
    fig3a = _csv_text(
        (
            "party", "target", "a", "b", "c", "d",
            "odds_ratio", "ci_low", "ci_high", "flags",
        ),
        [
            (
                r["party"], r["target"], r.get("a"), r.get("b"), r.get("c"),
                r.get("d"), r["or"], r["ci_low"], r["ci_high"],
                "|".join(r["flags"]),
            )
            for r in odds_obj["rows"]
        ],
    )
    fig3b = _csv_text(
        ("group", "fraction", "share"),
        [
            (curve["group"], point[0], point[1])
            for curve in act["curves"]
            for point in curve["points"]
        ],
    )
    base = report_path.parent
    write_text_atomic(base / "fig1.csv", fig1)
    write_text_atomic(base / "fig3a.csv", fig3a)
    write_text_atomic(base / "fig3b.csv", fig3b)
    return report_path


def write_gexf(run: RunDir, network: str, out_path: Path | str):
    """Export one network with cluster, side and partisan annotations."""
    tag = normalize_hashtag(network)
    manifest = run.load_manifest()
    build_entry = require_stage(run, manifest, "build")
    registry = _load_registry(run, build_entry)
    net = _load_network(run, build_entry, tag)

    partition = labeling = None
    psets = []
    if _chain_valid(manifest, "communities"):
        communities_entry = require_stage(run, manifest, "communities")
        if tag in communities_entry["params"]["networks"]:
            partition = _load_partition(run, communities_entry, tag, registry)
    if partition is not None and _chain_valid(manifest, "label"):
        label_entry = require_stage(run, manifest, "label")
        for other in _labeled_tags(label_entry):
            other_labeling = _load_labeling(run, label_entry, other)
            if other == tag:
                labeling = other_labeling
            elif other_labeling.pro_community is not None:
                other_partition = _load_partition(run, communities_entry, other, registry)
                psets.append(partisans(other_labeling, other_partition))

    doc = gexf_document(
        net, registry, partition=partition, labeling=labeling, partisan_sets=psets
    )
    return write_text_atomic(out_path, doc)


def label_report(run: RunDir, network: str, top=50) -> str:
    """Human-readable evidence listing used to pick seeds; writes nothing."""
    if top < 1:
        raise StageError(f"top must be at least 1, got {top}")
    tag = normalize_hashtag(network)
    manifest = run.load_manifest()
    build_entry = require_stage(run, manifest, "build")
    communities_entry = require_stage(run, manifest, "communities")
    registry = _load_registry(run, build_entry)
    net = _load_network(run, build_entry, tag)
    partition = _load_partition(run, communities_entry, tag, registry)
    ranked = top_retweeted(net, partition, top, registry)
    sizes = {cid: len(members) for cid, members in partition.communities().items()}
    lines = [
        f"#{tag}: {len(net.nodes)} accounts, {partition.n_communities} communities, "
        f"modularity {partition.modularity:.4f}"
    ]
    for cid in sorted(ranked):
        lines.append(f"community {cid} ({sizes[cid]} accounts)")
        for account, count in ranked[cid]:
            lines.append(f"  {count:8d}  {account}")
    return "\n".join(lines) + "\n"
