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
on `.lock`, which a killed writer cannot leave behind, and read the
manifest, which their params may depend on, only while they hold it.

`RunDir.write` and `RunDir.read` are the only way artifacts enter and leave
a run directory. A write records the SHA-256 of the bytes it wrote. A read
decodes only bytes whose digest matches the manifest entry the caller
verified, at most once per RunDir, so a view running next to a writer
either refuses (exit 2) or sees one consistent version of every artifact.

Timestamps appear only in the manifest, never in fingerprints or in
report.json; equal inputs and parameters give byte-equal artifacts.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import io
import json
import math
import os
import re
import uuid
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .community import louvain
from .errors import EdgelessGraphError, LabelingError, StageError, RunLockError
from .gexf import gexf_document
from .graph import AccountRegistry, network_from_events, undirected_projection
from .ingest import normalize_hashtag, read_columns, write_rejects
from .labeling import DEFAULT_MIN_COMMUNITY_SIZE, PRO, CONTRA, OTHER, \
    apply_overrides, label_by_seeds, manual_labeling, partisans, top_retweeted
from .metrics import BASIS_ACCOUNTS, BASIS_VOLUME, PolarisationProfile, \
    cluster_composition, concentration, polarisation, polarisation_shift
from .odds import hashjack_matrix
from .store import file_digest, json_text, load_json, obj_digest, pairs_from_npy, \
    pairs_to_npy, write_text_atomic, labeling_from_obj, labeling_to_obj, network_from_obj, \
    network_text, partition_from_obj, partition_to_obj, registry_from_obj, registry_to_obj

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
TEMPORARY = re.compile(r".+\.([1-9]\d{0,8})\.tmp")  # write_text_atomic's temporaries


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


def _modified(stage: str) -> StageError:
    return StageError(
        f"artifacts of stage '{stage}' are missing or modified; rerun `hashjack {stage}`"
    )


class RunDir:
    """The manifest of one run directory and its artifact reader and writer."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._decoded: dict[str, tuple] = {}  # rel -> (digest and key, object)

    def load_manifest(self) -> dict:
        path = self.root / "manifest.json"
        if not path.exists():
            return {
                "run_id": uuid.uuid4().hex[:12],
                "created": _now(),
                "tracked": [],
                "stages": {},
            }
        try:
            manifest = load_json(path)
        except (ValueError, RecursionError):  # not UTF-8, not JSON or nested too deep
            manifest = None
        if not _is_manifest(manifest):
            raise StageError(f"{path} is not a hashjack manifest; run into a new run directory")
        return manifest

    def save_manifest(self, manifest: dict) -> None:
        self.write("manifest.json", json_text(manifest))

    def write(self, rel: Path | str, data: str | bytes) -> str:
        """Write `rel` atomically; the SHA-256 of the bytes written.

        A path that resolves outside the run directory, or to the directory
        itself, is refused before anything is written.
        """
        root = self.root.resolve()
        path = (self.root / rel).resolve()
        if path == root or not path.is_relative_to(root):
            raise StageError(f"{rel} is not a file inside the run directory {self.root}")
        if isinstance(data, str):
            data = data.encode("utf-8")
        write_text_atomic(self.root / rel, data)
        return hashlib.sha256(data).hexdigest()

    def intact(self, rel: str, digest: str) -> bool:
        path = self.root / rel
        return path.is_file() and file_digest(path) == digest

    def read(self, stage: str, entry: Mapping, rel: str, decode, *key):
        """`decode(bytes)` of output `rel` of `stage`'s entry, decoded only from
        bytes with the recorded digest. The result is kept, one per path, for
        the life of this RunDir and shared by every caller, which must not
        change it; `key` is what else `decode` depends on."""
        key = (entry["outputs"][rel], *key)
        cached = self._decoded.get(rel)
        if cached is None or cached[0] != key:
            try:
                data = (self.root / rel).read_bytes()
            except OSError:
                raise _modified(stage) from None
            if hashlib.sha256(data).hexdigest() != key[0]:
                raise _modified(stage)
            self._decoded[rel] = cached = (key, decode(data))
        return cached[1]


# -- manifest bookkeeping -----------------------------------------------

def _fingerprint(name: str, params, inputs, upstream) -> str:
    return obj_digest(
        {"stage": name, "params": params, "inputs": inputs, "upstream": upstream}
    )


def _is_manifest(obj) -> bool:
    """Whether `obj` has the shape that every reader of a manifest relies on."""
    stages = obj.get("stages") if isinstance(obj, dict) else None
    return isinstance(stages, dict) and all(
        isinstance(entry, dict) and isinstance(entry.get("fingerprint"), str)
        and all(isinstance(entry.get(key), dict) for key in ("params", "upstream", "outputs"))
        and "out" in entry["params"] for entry in stages.values())


def _outputs_ok(run: RunDir, entry: Mapping) -> bool:
    return all(run.intact(rel, digest) for rel, digest in entry["outputs"].items())


def _chain_valid(manifest: Mapping, name: str) -> bool:
    """Entry exists, its fingerprint is that of its own params, inputs and
    upstream (so a hand-edited entry counts as not run), and its recorded
    upstream fingerprints still hold."""
    entry = manifest["stages"].get(name)
    if entry is None or entry["fingerprint"] != _fingerprint(
            name, entry["params"], entry.get("inputs"), entry["upstream"]):
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


def require_stage(run: RunDir, manifest: Mapping, name: str) -> dict:
    """The valid manifest entry for a prerequisite, or an actionable error."""
    if not _chain_valid(manifest, name):
        raise StageError(f"stage '{name}' has not been run; run `hashjack {name}` first")
    entry = manifest["stages"][name]
    if not _outputs_ok(run, entry):
        raise _modified(name)
    return entry


def _remove_orphans(root: Path) -> None:
    """Remove the temporary files of writers that were killed mid-write."""
    for path in root.rglob("*.tmp"):
        match = TEMPORARY.fullmatch(path.name)
        try:
            if match:
                os.kill(int(match[1]), 0)  # signal 0 only asks whether the pid lives
        except ProcessLookupError:
            path.unlink(missing_ok=True)
        except PermissionError:
            pass  # alive, but another user's


def _refuse_taken(run: RunDir, manifest: Mapping, name: str | None, planned) -> None:
    """Refuse an output of stage `name` (None for a view such as `report`)
    that is the manifest, the lock or an output another stage's entry lists."""
    root = run.root.resolve()
    owners = {root / "manifest.json": "the run's manifest", root / ".lock": "the run's lock"}
    for other, entry in manifest["stages"].items():
        if other != name:
            for rel in entry["outputs"]:
                owners[(run.root / rel).resolve()] = f"an output of stage '{other}'"
    for rel in planned:
        owner = owners.get((run.root / rel).resolve())
        if owner is not None:
            raise StageError(f"{rel} is {owner}; choose another --out")


def run_stage(run, name, make_params, execute, inputs=None, source=None, plan=None):
    """Execute one writer stage under the run lock.

    The manifest is read once, under the lock, and the stage's params are
    `make_params(manifest, deps)` with `deps` the verified PREREQS entries
    by name. Returns (ran, entry). A stage whose fingerprint matches the
    recorded entry and whose outputs are intact is skipped. Otherwise,
    before anything is written, the stage is refused when a file it may
    write, `plan(params, deps)` (by default the one file `params["out"]`),
    is the manifest, the lock or an output of another stage's entry; its
    own earlier outputs may be rewritten. Then each
    stage in READS[name] is verified once and
    `execute(run, manifest, params, deps)` gets their entries by name.
    After a real run every stage whose upstream chain no longer matches is
    dropped from the manifest. When the stage wrote to the same `out` as
    its previous entry, and that entry still counts as run, the files inside
    the run directory that it listed and no remaining entry lists are
    removed; a file-output stage given a new `--out` removes nothing, so an
    earlier output stays usable as `polarisation --compare`. Outputs of
    dropped entries stay on disk.
    Before anything else it removes every `<name>.<pid>.tmp` in the run
    directory whose pid is not alive.
    """
    inputs = inputs or {}
    with RunLock(run.root):
        _remove_orphans(run.root)
        manifest = run.load_manifest()
        deps = {dep: require_stage(run, manifest, dep) for dep in PREREQS[name]}
        params = make_params(manifest, deps)
        upstream = {dep: entry["fingerprint"] for dep, entry in deps.items()}
        fp = _fingerprint(name, params, inputs, upstream)
        # an entry that counts as not run is neither up to date nor cleaned up
        prev = manifest["stages"][name] if _chain_valid(manifest, name) else None
        if prev is not None and prev["fingerprint"] == fp and _outputs_ok(run, prev):
            return False, prev
        _refuse_taken(run, manifest, name,
                      [params["out"]] if plan is None else plan(params, deps))
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

def _tags(entry: Mapping) -> list[str]:
    """The sorted tags of an entry's `<out>/<tag>.json` outputs."""
    out = entry["params"]["out"]
    return sorted(rel[len(out) + 1: -len(".json")] for rel in entry["outputs"])


def _built_tags(entry: Mapping) -> list[str]:
    return [tag for tag in _tags(entry) if tag != "registry"]


_MISSING = {
    "build": "no network built for #{tag}; check `--tracked` at ingest",
    "communities": 'no partition for #{tag}; run `hashjack communities --network "#{tag}"`',
    "label": "no labeling for #{tag}; run `hashjack label apply` on it",
}


def _load(run: RunDir, deps: Mapping, stage: str, tag: str = "registry"):
    """`<tag>.json` of a verified entry in `deps`, decoded: build's registry
    (the default) or network, a communities partition or a label labeling."""
    entry = deps[stage]
    rel = f"{entry['params']['out']}/{tag}.json"
    if rel not in entry["outputs"]:
        raise StageError(_MISSING[stage].format(tag=tag))
    registry = _load(run, deps, "build") if stage == "communities" else None
    decode = {
        "build": registry_from_obj if tag == "registry" else network_from_obj,
        "communities": lambda obj: partition_from_obj(obj, registry),
        "label": lambda obj: labeling_from_obj(obj)[0],
    }[stage]
    return run.read(stage, entry, rel, lambda data: decode(json.loads(data)), registry)


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


def _per_network_plan(params: Mapping, deps) -> list[str]:
    return [f"{params['out']}/{tag}.json" for tag in params["networks"]]


def _per_network(run: RunDir, manifest: Mapping, name: str, params: Mapping, make):
    """Write one JSON artifact per network as `make(tag, opts)`.

    A network whose opts equal those of the previous entry, when that entry
    still counts as run, and whose file is intact keeps that file.
    """
    prev_networks, prev_outputs = {}, {}
    if _chain_valid(manifest, name):
        prev = manifest["stages"][name]
        prev_networks, prev_outputs = prev["params"]["networks"], prev["outputs"]
    outputs = {}
    for tag, opts in params["networks"].items():
        rel = f"{params['out']}/{tag}.json"
        if (
            prev_networks.get(tag) == opts
            and rel in prev_outputs
            and run.intact(rel, prev_outputs[rel])
        ):
            outputs[rel] = prev_outputs[rel]
        else:
            outputs[rel] = run.write(rel, json_text(make(tag, opts)))
    return outputs


# -- writer stages ------------------------------------------------------

def stage_ingest(run, input_path, tracked, fmt="jsonl", strict=False, out="store"):
    """Check a corpus in one pass; store each tracked stream as index pairs.

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
            columns, rejects = read_columns(fh, fmt, strict=strict)
        if not columns:
            detail = f" (line {rejects[0].line}: {rejects[0].reason})" if rejects else ""
            raise StageError(f"no valid records in input{detail}")
        outputs = {}

        def write(name, data):
            outputs[f"{out}/{name}"] = run.write(f"{out}/{name}", data)

        if rejects:
            buffer = io.StringIO()
            write_rejects(rejects, buffer)
            write("rejects.jsonl", buffer.getvalue())
        accounts, pairs = columns.index_pairs(tags)
        write("registry.json", json_text(registry_to_obj(AccountRegistry(accounts))))
        for tag, tag_pairs in pairs.items():
            write(f"{tag}.npy", pairs_to_npy(tag_pairs))
        stats = columns.stats().to_dict()
        stats["reject_count"] = len(rejects)
        write("stats.json", json_text(stats))
        manifest["tracked"] = tags
        return outputs

    def plan(params, deps):
        names = ["rejects.jsonl", "registry.json", "stats.json", *(f"{t}.npy" for t in tags)]
        return [f"{out}/{name}" for name in names]

    return run_stage(
        run, "ingest", lambda manifest, deps: params, execute, inputs=inputs,
        source=str(input_path), plan=plan,
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
        nets = {}
        for tag in ingest_entry["params"]["tracked"]:
            pairs = run.read("ingest", ingest_entry, f"{store}/{tag}.npy", pairs_from_npy)
            if len(pairs):
                nets[tag] = network_from_events(tag, pairs)
        if not nets:
            raise StageError("no tracked hashtag appears in the corpus")
        # The registry is copied byte for byte: build never needs it decoded.
        registry = run.read("ingest", ingest_entry, f"{store}/registry.json", bytes)
        outputs = {f"{out}/registry.json": run.write(f"{out}/registry.json", registry)}
        for tag in sorted(nets):
            rel = f"{out}/{tag}.json"
            outputs[rel] = run.write(rel, network_text(nets[tag]))
        return outputs

    def plan(params, deps):
        return [f"{out}/{tag}.json" for tag in ["registry", *deps["ingest"]["params"]["tracked"]]]

    return run_stage(run, "build", lambda manifest, deps: params, execute, plan=plan)


def stage_communities(run, networks=None, resolution=1.0, seed=42, out="partitions"):
    """Cluster the requested networks; untouched ones keep their artifacts."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise StageError(f"resolution must be a positive number, got {resolution}")
    requested = None if networks is None else sorted(
        {normalize_hashtag(t) for t in networks}
    )
    opts = {"resolution": float(resolution), "seed": int(seed)}

    def make_params(manifest, deps):
        built = _built_tags(deps["build"])
        targets = built if requested is None else requested
        for tag in targets:
            if tag not in built:
                raise StageError(
                    f"#{tag} is not a built network; available: "
                    + ", ".join("#" + t for t in built)
                )
        return _merged_networks(manifest, "communities", out, dict.fromkeys(targets, opts))

    def execute(run, manifest, params, deps):
        registry = _load(run, deps, "build")

        def make(tag, opts):
            net = _load(run, deps, "build", tag)
            try:
                partition = louvain(
                    undirected_projection(net), resolution=opts["resolution"],
                    seed=opts["seed"],
                )
            except EdgelessGraphError:
                raise StageError(f"#{tag} has no retweet edges to cluster") from None
            return partition_to_obj(partition, registry, tag)

        return _per_network(run, manifest, "communities", params, make)

    return run_stage(run, "communities", make_params, execute, plan=_per_network_plan)


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

    def execute(run, manifest, params, deps):
        registry = _load(run, deps, "build")

        def make(tag, request):
            partition = _load(run, deps, "communities", tag)
            net = _load(run, deps, "build", tag)
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

    return run_stage(
        run, "label",
        lambda manifest, deps: _merged_networks(manifest, "label", out, normalized),
        execute, plan=_per_network_plan,
    )


def _profile_from_row(row: Mapping, source) -> PolarisationProfile:
    """A profile row of the comparison file `source`, or an exit-2 error."""
    values = [row.get(k) for k in ("share_pro", "share_contra", "share_other", "total")]
    if not all(type(v) is int or (type(v) is float and math.isfinite(v)) for v in values):
        raise StageError(f"{source} is not a polarisation artifact")
    return PolarisationProfile(normalize_hashtag(row["network"]), row["basis"], *values)


def stage_polarisation(run, threshold=0.05, compare=None, out="polarisation.json"):
    """Pro/contra/other shares for every labeled network, on both bases."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise StageError(f"threshold must be a number >= 0, got {threshold}")
    params: dict = {"threshold": float(threshold), "out": out}
    inputs = {}
    if compare is not None:
        compare = Path(compare)
        earlier_bytes = compare.read_bytes()
        inputs["compare"] = hashlib.sha256(earlier_bytes).hexdigest()

    def execute(run, manifest, params, deps):
        profiles = [
            polarisation(
                _load(run, deps, "build", tag), _load(run, deps, "communities", tag),
                _load(run, deps, "label", tag), basis,
            )
            for tag in _tags(deps["label"])
            for basis in (BASIS_VOLUME, BASIS_ACCOUNTS)
        ]
        obj: dict = {"profiles": [profile.to_dict() for profile in profiles]}
        if compare is not None:
            try:
                earlier = {
                    (r["network"], r["basis"]): r
                    for r in json.loads(earlier_bytes)["profiles"]
                }
            except (ValueError, KeyError, TypeError, RecursionError):
                raise StageError(
                    f"{compare} is not a polarisation artifact"
                ) from None
            shifts = []
            for profile in profiles:
                old = earlier.get(("#" + profile.network, profile.basis))
                if old is not None:
                    shifts.append(polarisation_shift(
                        _profile_from_row(old, compare), profile,
                        threshold=params["threshold"],
                    ))
            obj["shift"] = shifts
        return {out: run.write(out, json_text(obj))}

    return run_stage(
        run, "polarisation", lambda manifest, deps: params, execute, inputs=inputs,
        source=None if compare is None else str(compare),
    )


def _split_parties(run, deps, targets):
    """(registry, partisan sets of the non-target labeled networks, loaded targets).

    `deps` maps build, communities and label to their verified entries.
    """
    labeled = _tags(deps["label"])
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
    psets = [
        partisans(_load(run, deps, "label", tag), _load(run, deps, "communities", tag))
        for tag in parties
    ]
    loaded = {
        tag: tuple(_load(run, deps, stage, tag) for stage in ("build", "communities", "label"))
        for tag in targets
    }
    return _load(run, deps, "build"), psets, loaded


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
        return {out: run.write(out, json_text(obj))}

    return run_stage(run, "odds", lambda manifest, deps: params, execute)


def stage_activity(run, targets=None, fractions=DEFAULT_FRACTIONS, out="activity.json"):
    """Concentration curves for each party's partisans over all networks."""
    tags = None if targets is None else sorted({normalize_hashtag(t) for t in targets})
    fracs = sorted({float(q) for q in fractions})
    if not fracs or not all(0 < q <= 1 for q in fracs):
        raise StageError("fractions must lie in (0, 1]")

    def make_params(manifest, deps):
        chosen = tags
        if chosen is None:
            if not _chain_valid(manifest, "odds"):
                raise StageError("pass --targets, or run `hashjack odds` first")
            chosen = manifest["stages"]["odds"]["params"]["targets"]
        return {"targets": chosen, "fractions": fracs, "out": out}

    def execute(run, manifest, params, deps):
        registry, psets, _ = _split_parties(run, deps, params["targets"])
        nets = [_load(run, deps, "build", tag) for tag in _built_tags(deps["build"])]
        curves = [
            concentration(pset, nets, fracs, registry).to_dict()
            for pset in sorted(psets, key=lambda p: p.party)
        ]
        obj = {"fractions": fracs, "curves": curves}
        return {out: run.write(out, json_text(obj))}

    return run_stage(run, "activity", make_params, execute)


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
    base = Path(out).parent
    figures = [base / name for name in ("fig1.csv", "fig3a.csv", "fig3b.csv")]
    _refuse_taken(run, manifest, None, [out, *figures])
    deps = {
        name: require_stage(run, manifest, name)
        for name in ("polarisation", "odds", "activity", "build", "communities", "label")
    }
    polar, odds_obj, act = (
        run.read(name, deps[name], deps[name]["params"]["out"], json.loads)
        for name in ("polarisation", "odds", "activity")
    )

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
    run.write(out, json_text(bundle))

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
    for path, text in zip(figures, (fig1, fig3a, fig3b)):
        run.write(path, text)
    return run.root / out


def write_gexf(run: RunDir, network: str, out_path: Path | str):
    """Export one network with cluster, side and partisan annotations."""
    if Path(out_path).is_dir():
        raise StageError(f"{out_path} is a directory")
    tag = normalize_hashtag(network)
    manifest = run.load_manifest()
    deps = {"build": require_stage(run, manifest, "build")}
    net = _load(run, deps, "build", tag)

    partition = labeling = None
    psets = []
    if _chain_valid(manifest, "communities"):
        deps["communities"] = require_stage(run, manifest, "communities")
        if tag in deps["communities"]["params"]["networks"]:
            partition = _load(run, deps, "communities", tag)
    if partition is not None and _chain_valid(manifest, "label"):
        deps["label"] = require_stage(run, manifest, "label")
        for other in _tags(deps["label"]):
            other_labeling = _load(run, deps, "label", other)
            if other == tag:
                labeling = other_labeling
            elif other_labeling.pro_community is not None:
                other_partition = _load(run, deps, "communities", other)
                psets.append(partisans(other_labeling, other_partition))

    doc = gexf_document(
        net, _load(run, deps, "build"), partition=partition, labeling=labeling,
        partisan_sets=psets,
    )
    return write_text_atomic(out_path, doc)


def label_report(run: RunDir, network: str, top=50) -> str:
    """Human-readable evidence listing used to pick seeds; writes nothing."""
    if top < 1:
        raise StageError(f"top must be at least 1, got {top}")
    tag = normalize_hashtag(network)
    manifest = run.load_manifest()
    deps = {name: require_stage(run, manifest, name) for name in ("build", "communities")}
    net = _load(run, deps, "build", tag)
    partition = _load(run, deps, "communities", tag)
    ranked = top_retweeted(net, partition, top, _load(run, deps, "build"))
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
