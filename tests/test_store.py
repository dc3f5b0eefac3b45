import gzip
import hashlib
import json
import math
import time
import xml.etree.ElementTree as ET
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from _oracles import dict_network_from_events, dict_rows, network_to_obj
from hashjack.community import CommunityPartition
from hashjack.gexf import gexf_document
from hashjack.graph import ORIGINAL, AccountRegistry, build_network, event_rows, \
    network_from_events, network_obj
from hashjack.ingest import TweetRecord
from hashjack.labeling import ClusterLabeling, PartisanAssignment
from hashjack.pipeline import RunDir
from hashjack.store import (
    COMPACT_KWARGS,
    JSON_KWARGS,
    _finite,
    compact_text,
    dump_json,
    file_digest,
    json_text,
    labeling_from_obj,
    labeling_to_obj,
    load_json,
    network_from_obj,
    obj_digest,
    partition_from_obj,
    partition_to_obj,
    registry_from_obj,
    rows_from_npy,
    rows_to_npy,
    write_text_atomic,
)

TS = datetime(2020, 3, 1, tzinfo=timezone.utc)

GEXF_NS = "{http://www.gexf.net/1.2draft}"


def sample_network():
    reg = AccountRegistry()
    records = [
        TweetRecord(
            tweet_id=f"t{i}",
            author=author,
            retweeted_author=target,
            hashtags=frozenset({"tide"}),
            timestamp=TS,
        )
        for i, (author, target) in enumerate(
            [("b", "a"), ("c", "a"), ("c", "a"), ("d", "c"), ("e", "d")]
        )
    ]
    net = build_network(records, reg, "tide")
    return reg, net


def json_values(floats=st.floats()):
    """Nested values json.dumps takes: lists, tuples and string-keyed dicts."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | floats | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=12,
    )


class TestDumpJson:
    def test_canonical_and_stable(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        dump_json({"b": 1, "a": [1, 2]}, p1)
        dump_json({"a": [1, 2], "b": 1}, p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_round_trip(self, tmp_path):
        obj = {"x": [1, 2.5, None, "ü"], "y": {"z": True}}
        path = dump_json(obj, tmp_path / "o.json")
        assert load_json(path) == obj

    def test_non_finite_floats_become_null(self, tmp_path):
        path = dump_json(
            {"a": math.nan, "b": [math.inf, -math.inf], "c": 1.5}, tmp_path / "n.json"
        )
        assert load_json(path) == {"a": None, "b": [None, None], "c": 1.5}
        assert "NaN" not in path.read_text()

    @pytest.mark.parametrize("obj", [
        {"a": [1, {"b": (math.nan, 2.5)}], "c": {"d": [[-math.inf]]}},
        (1, (2.0, math.inf), "x"),
        {math.nan: 1, 2.5: {"k": math.nan}},
        {"y": (True, None), "z": ["ü", -0.0, 1e300]},
        [],
    ], ids=["nested", "tuple", "nan key", "finite", "empty"])
    def test_text_is_that_of_the_finite_walk(self, obj):
        assert json_text(obj) == json.dumps(_finite(obj), **JSON_KWARGS) + "\n"

    @given(json_values())
    def test_text_of_any_value_is_that_of_the_finite_walk(self, obj):
        assert json_text(obj) == json.dumps(_finite(obj), **JSON_KWARGS) + "\n"

    def test_no_temp_file_left_behind(self, tmp_path):
        dump_json({"k": 1}, tmp_path / "x.json")
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = write_text_atomic(tmp_path / "f.csv", "old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(path, "\ud800")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    def test_digests_agree_on_equivalent_objects(self, tmp_path):
        path = dump_json({"b": 2, "a": 1}, tmp_path / "d.json")
        assert file_digest(path) == file_digest(path)
        assert obj_digest({"a": 1, "b": 2}) == obj_digest({"b": 2, "a": 1})
        assert obj_digest({"a": 1}) != obj_digest({"a": 2})


class TestCompactText:
    """The one writer of artifacts that grow with the corpus."""

    @given(json_values(st.floats(allow_nan=False, allow_infinity=False)))
    def test_text_is_one_compact_line(self, obj):
        text = compact_text(obj)
        assert text == json.dumps(
            obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
        assert text.count("\n") == 1 and text.endswith("\n")

    @given(json_values())
    def test_text_of_any_value_is_that_of_the_finite_walk(self, obj):
        assert compact_text(obj) == json.dumps(_finite(obj), **COMPACT_KWARGS) + "\n"

    def test_non_ascii_account_id_is_utf8(self):
        text = compact_text({"accounts": ["zoë", "ü\u2028x", "北京"]})
        assert text == '{"accounts":["zoë","ü\u2028x","北京"]}\n'
        assert "\\u" not in text

    def test_nan_becomes_null(self):
        assert compact_text({"m": math.nan, "w": [math.inf, 1.5]}) == '{"m":null,"w":[null,1.5]}\n'


class TestRegistryRoundTrip:
    def test_round_trip_preserves_order(self):
        obj = {"accounts": ["zoe", "adam", "mia"]}
        again = registry_from_obj(obj)
        assert [again.id_of(i) for i in range(3)] == ["zoe", "adam", "mia"]

    def test_repeats_keep_first_seen_order(self):
        ids = ["bo", "al", "bo", "cy", "al"]
        interned = AccountRegistry()
        for account in ids:
            interned.intern(account)
        reg = AccountRegistry(ids)
        assert reg.ids == interned.ids == ("bo", "al", "cy")
        assert list(reg.indices(ids)) == [reg.index_of(a) for a in ids] == [0, 1, 0, 2, 1]
        assert reg.intern("dee") == 3


class TestRunDirCodec:
    """A `.gz` path holds its data gzip-compressed at level 1 with mtime 0;
    the digest is that of the file, and `read` gives back the data."""

    def test_round_trip_and_stable_bytes(self, tmp_path, monkeypatch):
        rel = "store/agenda.npy.gz"
        data = rows_to_npy([[0, -1, 2], [0, 1, 3], [2, 0, 1]])
        first = RunDir(tmp_path / "one")
        digest = first.write(rel, data)
        monkeypatch.setattr(time, "time", lambda: 1.6e9)  # a write at another time
        second = RunDir(tmp_path / "two")
        assert second.write(rel, data) == digest
        packed = (first.root / rel).read_bytes()
        assert (second.root / rel).read_bytes() == packed
        assert hashlib.sha256(packed).hexdigest() == digest == file_digest(first.root / rel)
        assert packed[:4] == b"\x1f\x8b\x08\x00" and packed[4:8] == bytes(4)
        assert gzip.decompress(packed) == data and packed != data
        entry = {"outputs": {rel: digest}}
        assert first.read("ingest", entry, rel, bytes) == data
        fresh = RunDir(first.root)
        assert fresh.read("ingest", entry, rel, rows_from_npy).tolist() == [
            [0, -1, 2], [0, 1, 3], [2, 0, 1]]
        assert first.intact(rel, digest) and fresh.intact(rel, digest)

    def test_plain_paths_stay_plain(self, tmp_path):
        run = RunDir(tmp_path)
        digest = run.write("store/stats.json", compact_text({"a": 1}))
        assert (tmp_path / "store" / "stats.json").read_text() == '{"a":1}\n'
        assert digest == file_digest(tmp_path / "store" / "stats.json")


class TestNetworkRoundTrip:
    def test_round_trip_rebuilds_tallies(self):
        reg, net = sample_network()
        obj = network_to_obj(net)
        again = network_from_obj(obj)
        assert again.hashtag == net.hashtag
        assert again.nodes == net.nodes
        assert again.edges == net.edges
        assert again.retweets_made == net.retweets_made
        assert again.retweets_received == net.retweets_received
        assert sum(w for _, _, w in again.edges) == 5  # one per retweet record
        assert again.original_count == net.original_count

    def test_extra_key_still_decodes(self):
        reg, net = sample_network()
        assert network_from_obj({**network_to_obj(net), "dedup_count": 0}) == net

    def test_obj_shape_is_sorted_lists(self):
        reg, net = sample_network()
        obj = network_to_obj(net)
        assert obj["hashtag"] == "tide"
        assert obj["nodes"] == sorted(obj["nodes"])
        assert obj["edges"] == sorted(obj["edges"])
        assert all(len(edge) == 3 for edge in obj["edges"])

    def test_build_obj_is_the_encoded_network(self):
        """What build encodes, graph.network_obj of the events' rows, is the
        network's object from its dicts, and it decodes to that network."""
        pairs = [(0, 1), (2, 1), (0, 1), (3, ORIGINAL), (1, 0), (2, 1), (0, 1)]
        expected = dict_network_from_events("tide", pairs)
        obj = network_obj("tide", event_rows(pairs))
        assert compact_text(obj) == compact_text(network_to_obj(expected))
        assert obj["edges"] == [[0, 1, 3], [1, 0, 1], [2, 1, 2]]
        assert network_from_obj(obj) == expected

    def test_file_text_is_one_compact_line(self):
        reg, net = sample_network()
        text = compact_text(network_to_obj(net))
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == network_to_obj(net)
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


@st.composite
def event_streams(draw):
    """(author, retweeted) event pairs over a few accounts, so that pairs
    repeat, with originals among them."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=2**31 - 1),
                        min_size=1, max_size=5, unique=True))
    account = st.sampled_from(ids)
    return draw(st.lists(st.tuples(account, st.just(ORIGINAL) | account), max_size=30))


class TestEventRows:
    """The store's [author, retweeted, count] rows of a stream's events."""

    @given(event_streams())
    @example([])
    @example([(4, 2)])
    @example([(4, ORIGINAL)])
    @example([(1, 0), (1, ORIGINAL), (1, 0), (0, 1), (1, 0), (0, ORIGINAL), (1, ORIGINAL)])
    @example([(2**31 - 1, ORIGINAL), (2**31 - 1, 2**31 - 1), (0, 2**31 - 1)])
    def test_rows_aggregate_the_events(self, pairs):
        rows = event_rows(pairs)
        keys = [(i, j) for i, j, _ in rows.tolist()]
        assert keys == sorted(set(keys))  # strictly ascending
        assert int(rows[:, 2].sum()) == len(pairs)
        assert rows.tolist() == dict_rows(pairs)
        # build reads the rows from the stored bytes and writes their network
        stored = rows_from_npy(rows_to_npy(rows))
        assert stored.dtype == np.dtype("<i4") and stored.shape == (len(rows), 3)
        text = compact_text(network_obj("tide", stored))
        assert network_from_obj(json.loads(text)) == dict_network_from_events("tide", pairs)


class TestPartitionRoundTrip:
    def test_round_trip_by_account_id(self):
        reg, net = sample_network()
        part = CommunityPartition(
            assignment={n: n % 2 for n in net.nodes},
            modularity=0.25,
            resolution=1.5,
            seed=7,
            levels=3,
        )
        obj = partition_to_obj(part, reg, "tide")
        assert set(obj) == {"network", "seed", "resolution", "modularity", "assignment"}
        assert obj["network"] == "#tide"
        assert set(obj["assignment"]) == {reg.id_of(n) for n in net.nodes}
        again = partition_from_obj(obj, reg)
        assert again.assignment == part.assignment
        assert again.modularity == part.modularity
        assert again.resolution == part.resolution
        assert again.seed == part.seed


class TestLabelingRoundTrip:
    def test_round_trip_with_seeds_and_evidence(self):
        lab = ClusterLabeling(
            network="tide",
            labels={0: "pro", 1: "contra", 2: "other"},
            method="seed-list",
            evidence={0: (("a", 3),), 1: (("c", 2), ("d", 1))},
        )
        obj = labeling_to_obj(lab, seeds={"pro": ["b", "a"], "contra": ["c"]})
        assert obj["seeds"] == {"pro": ["a", "b"], "contra": ["c"]}
        assert obj["labels"] == {"0": "pro", "1": "contra", "2": "other"}
        again, seeds = labeling_from_obj(obj)
        assert again.labels == lab.labels
        assert again.method == "seed-list"
        assert again.evidence == lab.evidence
        assert seeds == {"pro": ["a", "b"], "contra": ["c"]}

    def test_evidence_is_optional(self):
        lab = ClusterLabeling(network="tide", labels={0: "pro"}, method="manual")
        obj = labeling_to_obj(lab)
        assert "evidence" not in obj
        again, seeds = labeling_from_obj(obj)
        assert again.evidence is None
        assert seeds == {}


class TestGexf:
    def make_all(self):
        reg, net = sample_network()
        part = CommunityPartition(
            assignment={reg.index_of(a): (0 if a in "abc" else 1) for a in "abcde"},
            modularity=0.1,
            resolution=1.0,
            seed=42,
            levels=1,
        )
        lab = ClusterLabeling(
            network="tide", labels={0: "pro", 1: "contra"}, method="manual"
        )
        pset = PartisanAssignment("afd", frozenset([reg.index_of("a")]))
        return reg, net, part, lab, pset

    def test_well_formed_and_complete(self):
        reg, net, part, lab, pset = self.make_all()
        doc = gexf_document(net, reg, part, lab, [pset])
        root = ET.fromstring(doc)
        assert root.tag == f"{GEXF_NS}gexf"
        nodes = root.findall(f".//{GEXF_NS}node")
        edges = root.findall(f".//{GEXF_NS}edge")
        assert len(nodes) == len(net.nodes)
        assert len(edges) == len(net.edges)
        assert [n.get("id") for n in nodes] == sorted(n.get("id") for n in nodes)

    def test_edge_weights_and_direction(self):
        reg, net, part, lab, pset = self.make_all()
        root = ET.fromstring(gexf_document(net, reg))
        weights = {
            (e.get("source"), e.get("target")): e.get("weight")
            for e in root.findall(f".//{GEXF_NS}edge")
        }
        assert weights[("c", "a")] == "2"
        assert weights[("b", "a")] == "1"

    def test_attributes_only_when_given(self):
        reg, net, part, lab, pset = self.make_all()
        bare = ET.fromstring(gexf_document(net, reg))
        assert not bare.findall(f".//{GEXF_NS}attribute")
        full = ET.fromstring(gexf_document(net, reg, part, lab, [pset]))
        titles = {a.get("title") for a in full.findall(f".//{GEXF_NS}attribute")}
        assert titles == {"cluster", "side", "partisan_#afd"}

    def test_node_attvalues(self):
        reg, net, part, lab, pset = self.make_all()
        root = ET.fromstring(gexf_document(net, reg, part, lab, [pset]))
        attrs = {
            a.get("title"): a.get("id") for a in root.findall(f".//{GEXF_NS}attribute")
        }
        by_node = {}
        for node in root.findall(f".//{GEXF_NS}node"):
            by_node[node.get("id")] = {
                v.get("for"): v.get("value")
                for v in node.findall(f"{GEXF_NS}attvalues/{GEXF_NS}attvalue")
            }
        assert by_node["a"][attrs["cluster"]] == "0"
        assert by_node["a"][attrs["side"]] == "pro"
        assert by_node["a"][attrs["partisan_#afd"]] == "true"
        assert attrs["partisan_#afd"] not in by_node["b"]  # default false elided
        assert by_node["d"][attrs["side"]] == "contra"

    def test_deterministic_output(self):
        reg, net, part, lab, pset = self.make_all()
        assert gexf_document(net, reg, part, lab, [pset]) == gexf_document(
            net, reg, part, lab, [pset]
        )

    def test_no_timestamps_anywhere(self):
        reg, net, part, lab, pset = self.make_all()
        doc = gexf_document(net, reg, part, lab, [pset])
        assert "lastmodifieddate" not in doc
        assert "2020" not in doc

    # -- byte identity with the ElementTree rendering ------------------------

    COMBOS = [
        (part, lab, psets)
        for part in (False, True) for lab in (False, True) for psets in (False, True)
    ]

    @pytest.mark.parametrize("with_part,with_lab,with_psets", COMBOS)
    def test_matches_reference_on_every_combination(self, with_part, with_lab, with_psets):
        reg, net, part, lab, pset = self.make_all()
        args = (
            net, reg, part if with_part else None, lab if with_lab else None,
            [pset] if with_psets else [],
        )
        assert gexf_document(*args) == reference_gexf(*args)

    @pytest.mark.parametrize("with_part,with_lab,with_psets", COMBOS)
    def test_hostile_ids_match_reference(self, with_part, with_lab, with_psets):
        ids = HOSTILE_IDS + ["plain", "\ud800"]
        reg = AccountRegistry(ids)
        pairs = [(i, (i + 1) % len(ids)) for i in range(len(ids))] + [(0, 3), (0, 3)]
        net = network_from_events("tide", pairs)
        part = CommunityPartition(
            assignment={n: n % 3 for n in net.nodes}, modularity=0.0, resolution=1.0,
            seed=1, levels=1,
        )
        lab = ClusterLabeling(network="tide", labels={0: "pro", 1: "contra"}, method="manual")
        psets = [
            PartisanAssignment('a&"<b>', frozenset({0, 4})),
            PartisanAssignment("afd", frozenset({1})),
        ]
        args = (
            net, reg, part if with_part else None, lab if with_lab else None,
            psets if with_psets else [],
        )
        assert gexf_document(*args) == reference_gexf(*args)

    def test_hostile_ids_come_back_unchanged(self):
        reg = AccountRegistry(HOSTILE_IDS)
        net = network_from_events("tide", [(i, i - 1) for i in range(1, len(HOSTILE_IDS))])
        root = ET.fromstring(gexf_document(net, reg))
        nodes = root.findall(f".//{GEXF_NS}node")
        assert [n.get("id") for n in nodes] == sorted(HOSTILE_IDS)
        assert [n.get("label") for n in nodes] == sorted(HOSTILE_IDS)
        edges = {(e.get("source"), e.get("target")) for e in root.findall(f".//{GEXF_NS}edge")}
        assert edges == {(HOSTILE_IDS[i], HOSTILE_IDS[i - 1]) for i in range(1, len(HOSTILE_IDS))}

    def test_edgeless_and_empty_networks(self):
        reg = AccountRegistry(["b", "a"])
        edgeless = network_from_events("tide", [(0, ORIGINAL), (1, ORIGINAL)])
        doc = gexf_document(edgeless, reg)
        assert "    <edges />\n" in doc
        assert doc == reference_gexf(edgeless, reg)
        empty = network_from_events("tide", [])
        doc = gexf_document(empty, reg)
        assert "    <nodes />\n    <edges />\n" in doc
        assert doc == reference_gexf(empty, reg)

    def test_registry_out_of_id_order(self):
        reg, net, part, lab, pset = self.make_all()
        backwards = AccountRegistry(sorted(reg.ids, reverse=True))
        remap = {i: backwards.index_of(reg.id_of(i)) for i in range(len(reg.ids))}
        net = network_from_events(
            "tide",
            [(remap[s], remap[t]) for s, t, w in net.edges for _ in range(w)],
        )
        part = CommunityPartition(
            assignment={remap[n]: c for n, c in part.assignment.items()},
            modularity=0.1, resolution=1.0, seed=42, levels=1,
        )
        pset = PartisanAssignment("afd", frozenset(remap[n] for n in pset.accounts))
        doc = gexf_document(net, backwards, part, lab, [pset])
        assert doc == reference_gexf(net, backwards, part, lab, [pset])
        reg, net, part, lab, pset = self.make_all()
        assert doc == gexf_document(net, reg, part, lab, [pset])

    def test_small_document_is_pinned(self):
        reg, net, part, lab, pset = self.make_all()
        doc = gexf_document(net, reg, part, lab, [pset])
        assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == PINNED_SHA256


HOSTILE_IDS = ['c&<"\t', "a\nb", "a\rb", "x'y", "]]>", ">", "é", "😀"]

# SHA-256 of TestGexf's full sample document, as the ElementTree renderer
# wrote it.
PINNED_SHA256 = "9fbb1cab803120f647d2a27ab5f5e5c79cb3ad8ba4b71fae3553608f96ca8bb0"


def reference_gexf(net, registry, partition=None, labeling=None, partisan_sets=()):
    """The ElementTree rendering that gexf_document must equal byte for byte."""
    psets = sorted(partisan_sets, key=lambda p: p.party)
    gexf = ET.Element("gexf", {"xmlns": "http://www.gexf.net/1.2draft", "version": "1.2"})
    meta = ET.SubElement(gexf, "meta")
    ET.SubElement(meta, "creator").text = "hashjack"
    ET.SubElement(meta, "description").text = f"retweet network #{net.hashtag}"
    graph = ET.SubElement(gexf, "graph", {"mode": "static", "defaultedgetype": "directed"})
    attrs = ET.SubElement(graph, "attributes", {"class": "node"})
    ids = {}

    def add_attr(title, kind, default=None):
        ids[title] = str(len(ids))
        el = ET.SubElement(attrs, "attribute", {"id": ids[title], "title": title, "type": kind})
        if default is not None:
            ET.SubElement(el, "default").text = default

    if partition is not None:
        add_attr("cluster", "integer")
    if labeling is not None:
        add_attr("side", "string")
    for pset in psets:
        add_attr(f"partisan_#{pset.party}", "boolean", default="false")
    if not ids:
        graph.remove(attrs)
    nodes_el = ET.SubElement(graph, "nodes")
    for node in sorted(net.nodes, key=registry.id_of):
        account = registry.id_of(node)
        node_el = ET.SubElement(nodes_el, "node", {"id": account, "label": account})
        values = []
        if partition is not None and node in partition.assignment:
            cid = partition.assignment[node]
            values.append((ids["cluster"], str(cid)))
            if labeling is not None:
                values.append((ids["side"], labeling.labels.get(cid, "other")))
        for pset in psets:
            if node in pset.accounts:
                values.append((ids[f"partisan_#{pset.party}"], "true"))
        if values:
            holder = ET.SubElement(node_el, "attvalues")
            for attr_id, value in values:
                ET.SubElement(holder, "attvalue", {"for": attr_id, "value": value})
    edges_el = ET.SubElement(graph, "edges")
    ranked = sorted(net.edges, key=lambda edge: (registry.id_of(edge[0]), registry.id_of(edge[1])))
    for eid, (src, dst, weight) in enumerate(ranked):
        ET.SubElement(edges_el, "edge", {
            "id": str(eid), "source": registry.id_of(src), "target": registry.id_of(dst),
            "weight": str(weight),
        })
    ET.indent(gexf)
    return ET.tostring(gexf, encoding="UTF-8", xml_declaration=True).decode("utf-8") + "\n"
