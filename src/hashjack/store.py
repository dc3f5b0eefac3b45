"""Serialization of run artifacts to deterministic files.

Every writer here produces byte-identical output for equal inputs. JSON
keys are sorted, floats go through repr, and files end with a newline.
JSON artifacts are indented by two spaces (`json_text`), except network
files: they are the largest artifacts, hold only ints and the hashtag, and
are written as one compact line by json's C encoder (`network_text`),
which `indent` would rule out. The ingest store keeps each tracked
hashtag's events as an (n, 2) little-endian int32 .npy array of (author,
retweeted) registry indices, -1 for an original tweet. Artifacts reference
accounts by string id where the file is meant to be read by people
(partitions, labels) and by registry index where compactness matters
(event pairs, network edge lists); the registry file pins the index order
either way. Every file is written atomically. The encoders return text or bytes and the decoders take the
parsed file, so a run directory (`pipeline.RunDir`) can hash exactly the
bytes it writes and decode only bytes whose digest it has checked."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from pathlib import Path
from typing import Mapping, Sequence

from .community import CommunityPartition
from .graph import AccountRegistry, RetweetNetwork, add_edges
from .ingest import normalize_hashtag
from .labeling import ClusterLabeling

JSON_KWARGS = {"sort_keys": True, "indent": 2, "ensure_ascii": False}


def _finite(value):
    """Replace non-finite floats with null so files stay strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def write_text_atomic(path: Path | str, data: str | bytes) -> Path:
    """Write UTF-8 text or raw bytes so readers see the old file or the new
    one, never a part.

    The temporary name carries the pid, so two processes writing the same
    file do not write into one temporary file, and a writer stage can tell
    the temporaries of killed writers from those of live ones.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def json_text(obj) -> str:
    """The canonical JSON text of an artifact. The `_finite` walk runs only
    when strict encoding meets a NaN or an infinity."""
    try:
        return json.dumps(obj, allow_nan=False, **JSON_KWARGS) + "\n"
    except ValueError:
        return json.dumps(_finite(obj), **JSON_KWARGS) + "\n"


def dump_json(obj, path: Path | str) -> Path:
    """Write canonical JSON atomically, creating parent directories as needed."""
    return write_text_atomic(path, json_text(obj))


def load_json(path: Path | str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def file_digest(path: Path | str) -> str:
    """Hex SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def obj_digest(obj) -> str:
    """Hex SHA-256 of an object's canonical JSON form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- event index pairs --------------------------------------------------

def pairs_to_npy(pairs: Sequence[Sequence[int]]) -> bytes:
    """(author, retweeted) index pairs as the bytes of an (n, 2) int32 .npy file."""
    import numpy as np

    buffer = io.BytesIO()
    np.save(buffer, np.asarray(pairs, dtype="<i4").reshape(-1, 2), allow_pickle=False)
    return buffer.getvalue()


def pairs_from_npy(data: bytes) -> np.ndarray:
    """The (n, 2) array of a pairs_to_npy file."""
    import numpy as np

    return np.load(io.BytesIO(data), allow_pickle=False)


# -- account registry ---------------------------------------------------

def registry_to_obj(registry: AccountRegistry) -> dict:
    return {"accounts": list(registry.ids)}


def registry_from_obj(obj: Mapping) -> AccountRegistry:
    return AccountRegistry(obj["accounts"])


# -- retweet networks ---------------------------------------------------

def network_to_obj(net: RetweetNetwork) -> dict:
    """Nodes and weighted edges by registry index, plus event counters.

    Per-node tallies are derivable from the edge list and are rebuilt on
    load instead of being stored.
    """
    return {
        "hashtag": net.hashtag,
        "nodes": sorted(net.nodes),
        "edges": [[i, j, w] for (i, j), w in sorted(net.edges.items())],
        "original_count": net.original_count,
    }


def network_text(net: RetweetNetwork) -> str:
    """The file text of a network: compact JSON from json's C encoder.

    The object holds only ints and the hashtag, so there is no float for
    `_finite` to replace, and `indent` would force the pure-Python encoder.
    """
    return json.dumps(network_to_obj(net), sort_keys=True, separators=(",", ":")) + "\n"


def network_from_obj(obj: Mapping) -> RetweetNetwork:
    net = RetweetNetwork(hashtag=obj["hashtag"])
    net.nodes.update(obj["nodes"])
    net.original_count = obj["original_count"]
    add_edges(net, obj["edges"])
    return net


# -- community partitions -----------------------------------------------

def partition_to_obj(
    partition: CommunityPartition, registry: AccountRegistry, network: str
) -> dict:
    """The documented partition file shape, keyed by account id."""
    assignment = {
        registry.id_of(node): cid for node, cid in partition.assignment.items()
    }
    return {
        "network": "#" + normalize_hashtag(network),
        "seed": partition.seed,
        "resolution": partition.resolution,
        "modularity": partition.modularity,
        "assignment": assignment,
    }


def partition_from_obj(obj: Mapping, registry: AccountRegistry) -> CommunityPartition:
    # Level history is a diagnostic of the clustering run; it is not part
    # of the stored artifact, so a reloaded partition reports zero levels.
    assignment = {
        registry.index_of(account): cid for account, cid in obj["assignment"].items()
    }
    return CommunityPartition(
        assignment=assignment,
        modularity=obj["modularity"],
        resolution=obj["resolution"],
        seed=obj["seed"],
        levels=0,
    )


# -- cluster labelings --------------------------------------------------

def labeling_to_obj(
    labeling: ClusterLabeling, seeds: Mapping[str, list[str]] | None = None
) -> dict:
    obj: dict = {
        "network": "#" + labeling.network,
        "labels": {str(cid): label for cid, label in labeling.labels.items()},
        "seeds": {side: sorted(accounts) for side, accounts in (seeds or {}).items()},
        "method": labeling.method,
    }
    if labeling.evidence is not None:
        obj["evidence"] = {
            str(cid): [[account, count] for account, count in rows]
            for cid, rows in labeling.evidence.items()
        }
    return obj


def labeling_from_obj(obj: Mapping) -> tuple[ClusterLabeling, dict[str, list[str]]]:
    """Rebuild a labeling artifact; returns (labeling, seed lists)."""
    evidence = None
    if "evidence" in obj:
        evidence = {
            int(cid): tuple((account, count) for account, count in rows)
            for cid, rows in obj["evidence"].items()
        }
    labeling = ClusterLabeling(
        network=normalize_hashtag(obj["network"]),
        labels={int(cid): label for cid, label in obj["labels"].items()},
        method=obj.get("method", "manual"),
        evidence=evidence,
    )
    seeds = {side: list(accounts) for side, accounts in obj.get("seeds", {}).items()}
    return labeling, seeds
