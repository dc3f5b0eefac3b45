"""Serialization of run artifacts to deterministic files.

Every writer here produces byte-identical output for equal inputs. JSON
keys are sorted, floats go through repr, and files end with a newline.
JSON artifacts that grow with the corpus (registry, networks, partitions,
`stats.json`) are one compact line from json's C encoder (`compact_text`),
which `indent` would rule out; fixed-size ones people read are indented by
two spaces (`json_text`). Either form reads. The ingest store keeps each tracked
hashtag's events as a (k, 3) little-endian int32 .npy array of ascending
[author, retweeted, count] registry-index rows, one per distinct pair,
with retweeted -1 for original tweets; `pipeline.RunDir` keeps those
arrays and the store's registry gzip-compressed. Artifacts reference
accounts by string id where the file is meant to be read by people
(partitions, labels) and by registry index where compactness matters
(event rows, network edge lists); the registry file pins the index order
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
from typing import IO, Callable, Mapping, Sequence

from .community import CommunityPartition
from .graph import AccountRegistry, RetweetNetwork, normalize_hashtag
from .labeling import ClusterLabeling

JSON_KWARGS = {"sort_keys": True, "indent": 2, "ensure_ascii": False}
COMPACT_KWARGS = {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False}


def _finite(value):
    """Replace non-finite floats with null so files stay strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def write_text_atomic(path: Path | str, data: str | bytes | Callable[[IO[str]], object]) -> Path:
    """Write UTF-8 text, raw bytes or what `data(sink)` writes into the
    open text file, so readers see the old file or the new one, never a
    part.

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
        elif isinstance(data, str):
            tmp.write_text(data, encoding="utf-8")
        else:
            with open(tmp, "w", encoding="utf-8") as sink:
                data(sink)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _strict_text(obj, kwargs) -> str:
    """Text with no NaN or Infinity token; `_finite` runs only if one is met."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs) + "\n"
    except ValueError:
        return json.dumps(_finite(obj), **kwargs) + "\n"


def json_text(obj) -> str:
    """The canonical text of a fixed-size artifact, indented by two spaces."""
    return _strict_text(obj, JSON_KWARGS)


def compact_text(obj) -> str:
    """The canonical text of an artifact that grows with the corpus, one line."""
    return _strict_text(obj, COMPACT_KWARGS)


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


# -- event rows ---------------------------------------------------------

def rows_to_npy(rows: Sequence[Sequence[int]]) -> bytes:
    """[author, retweeted, count] rows (`graph.event_rows`) as the bytes of
    a (k, 3) int32 .npy file."""
    import numpy as np

    buffer = io.BytesIO()
    np.save(buffer, np.asarray(rows, dtype="<i4").reshape(-1, 3), allow_pickle=False)
    return buffer.getvalue()


def rows_from_npy(data: bytes) -> np.ndarray:
    """The (k, 3) array of a rows_to_npy file."""
    import numpy as np

    return np.load(io.BytesIO(data), allow_pickle=False)


# -- account registry ---------------------------------------------------

def registry_from_obj(obj: Mapping) -> AccountRegistry:
    return AccountRegistry(obj["accounts"])


# -- retweet networks ---------------------------------------------------

def network_from_obj(obj: Mapping) -> RetweetNetwork:
    """The network of a decoded network file (`graph.network_obj` form); its
    per-node tallies are not stored but rebuilt from the edge rows."""
    return RetweetNetwork(obj["hashtag"], set(obj["nodes"]), obj["edges"], obj["original_count"])


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
    accounts = obj["assignment"]
    return CommunityPartition(
        assignment=dict(zip(registry.indices(accounts), accounts.values())),
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
