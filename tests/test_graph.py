from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from _oracles import UndirectedGraph, dict_network_from_events, dict_projection, network_to_obj
from hashjack.community import _total_weight
from hashjack.graph import (
    ORIGINAL,
    AccountRegistry,
    CompactGraph,
    RetweetNetwork,
    build_network,
    build_networks,
    event_rows,
    network_from_events,
    network_obj,
    undirected_projection,
)
from hashjack.ingest import TweetRecord
from hashjack.store import compact_text, network_from_obj

TS = datetime(2020, 3, 1, tzinfo=timezone.utc)


def rt(tid, author, target, tags=("afd",)):
    return TweetRecord(
        tweet_id=tid,
        author=author,
        retweeted_author=target,
        hashtags=frozenset(tags),
        timestamp=TS,
    )


class TestAccountRegistry:
    def test_intern_is_stable_and_dense(self):
        reg = AccountRegistry()
        assert reg.intern("bob") == 0
        assert reg.intern("alice") == 1
        assert reg.intern("bob") == 0
        assert reg.ids == ("bob", "alice")
        assert reg.id_of(1) == "alice"
        assert reg.index_of("bob") == 0
        assert "alice" in reg and "carol" not in reg


class TestBuildNetwork:
    def test_edge_weights_accumulate(self):
        reg = AccountRegistry()
        stream = [rt("t1", "a", "b"), rt("t2", "a", "b"), rt("t3", "b", "c")]
        net = build_network(stream, reg, "afd")
        a, b, c = reg.index_of("a"), reg.index_of("b"), reg.index_of("c")
        assert net.edges == [[a, b, 2], [b, c, 1]]
        assert net.made(a) == 2 and net.made(b) == 1 and net.made(c) == 0
        assert net.received(b) == 2 and net.received(c) == 1
        assert sum(w for _, _, w in net.edges) == 3
        assert net.nodes == {a, b, c}

    def test_originals_add_isolated_author(self):
        reg = AccountRegistry()
        stream = [
            TweetRecord("t1", "lurker", None, frozenset({"afd"}), TS),
            rt("t2", "a", "b"),
        ]
        net = build_network(stream, reg, "afd")
        assert reg.index_of("lurker") in net.nodes
        assert net.original_count == 1
        assert sum(w for _, _, w in net.edges) == 1

    def test_stream_must_carry_the_hashtag(self):
        reg = AccountRegistry()
        with pytest.raises(ValueError):
            build_network([rt("t1", "a", "b", tags=("other",))], reg, "afd")

    def test_empty_stream_gives_empty_network(self):
        net = build_network([], AccountRegistry(), "afd")
        assert not net.nodes and not net.edges


class TestBuildNetworks:
    def test_shared_registry_and_sorted_ids(self):
        streams = {
            "afd": [rt("t1", "walter", "anna")],
            "noafd": [rt("t2", "anna", "zoe", tags=("noafd",))],
        }
        nets, reg = build_networks(streams)
        assert list(reg.ids) == sorted(reg.ids)
        anna = reg.index_of("anna")
        assert anna in nets["afd"].nodes and anna in nets["noafd"].nodes


class TestUndirectedProjection:
    def test_reciprocal_edges_sum(self):
        reg = AccountRegistry()
        stream = [rt("t1", "a", "b"), rt("t2", "b", "a"), rt("t3", "a", "b")]
        net = build_network(stream, reg, "afd")
        graph = undirected_projection(net)
        assert (reg.index_of("a"), reg.index_of("b")) == (0, 1)
        assert graph == CompactGraph([0, 1], [[(1, 3.0)], [(0, 3.0)]], [0.0, 0.0])
        assert _total_weight(graph) == 3.0

    def test_isolated_nodes_survive(self):
        reg = AccountRegistry()
        stream = [
            TweetRecord("t1", "solo", None, frozenset({"afd"}), TS),
            rt("t2", "a", "b"),
        ]
        graph = undirected_projection(build_network(stream, reg, "afd"))
        solo = graph.nodes.index(reg.index_of("solo"))
        assert graph.adj[solo] == [] and graph.selfw[solo] == 0.0


class TestUndirectedGraph:
    def test_self_loop_counts_twice_in_strength(self):
        g = UndirectedGraph()
        g.add_edge(0, 0, 2.0)
        g.add_edge(0, 1, 1.0)
        assert g.self_loop(0) == 2.0
        assert g.strength(0) == 2.0 * 2 + 1.0
        assert g.total_weight() == 3.0
        assert g.compact() == CompactGraph([0, 1], [[(1, 1.0)], [(0, 1.0)]], [2.0, 0.0])

    def test_edge_weights_merge(self):
        g = UndirectedGraph()
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 1, 0.5)
        assert g.edge_weight(1, 2) == g.edge_weight(2, 1) == 1.5
        assert g.neighbors(1) == {2: 1.5}


events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8)
    ).filter(lambda p: p[0] != p[1]),
    max_size=60,
)


class TestTallyProperties:
    @given(events)
    def test_made_received_match_edge_sums(self, pairs):
        reg = AccountRegistry()
        stream = [rt(f"t{i}", f"u{a}", f"u{b}") for i, (a, b) in enumerate(pairs)]
        net = build_network(stream, reg, "afd")
        assert sum(w for _, _, w in net.edges) == len(pairs)
        for node in net.nodes:
            assert net.made(node) == sum(w for src, _, w in net.edges if src == node)
            assert net.received(node) == sum(w for _, dst, w in net.edges if dst == node)

    @given(events)
    def test_projection_preserves_total_weight(self, pairs):
        reg = AccountRegistry()
        stream = [rt(f"t{i}", f"u{a}", f"u{b}") for i, (a, b) in enumerate(pairs)]
        net = build_network(stream, reg, "afd")
        graph = undirected_projection(net)
        assert _total_weight(graph) == float(sum(w for _, _, w in net.edges))
        assert set(graph.nodes) == net.nodes


@st.composite
def event_pair_lists(draw):
    """(author, retweeted) pairs over a few registry indices up to 2**31 - 1,
    so that edges repeat, with ORIGINAL for an original tweet."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=2**31 - 1),
                        min_size=1, max_size=6, unique=True))
    account = st.sampled_from(ids)
    return draw(st.lists(st.tuples(account, st.just(ORIGINAL) | account), max_size=40))


class TestNetworkFromEvents:
    """The sorted numpy tally equals a loop over the events, for the (n, 2)
    int32 array index_pairs gives and for a list of pairs, as the file
    object and as the decoded network."""

    @given(event_pair_lists())
    @example([])
    @example([(3, ORIGINAL), (0, ORIGINAL), (3, ORIGINAL)])
    @example([(2**31 - 1, 0), (0, 2**31 - 1), (2**31 - 1, 0), (5, ORIGINAL)])
    def test_equals_the_event_loop(self, pairs):
        expected = dict_network_from_events("tide", pairs)
        for given_pairs in (pairs, np.array(pairs, dtype="<i4").reshape(-1, 2)):
            net = network_from_events("tide", given_pairs)
            assert net == expected
            obj = network_obj("tide", event_rows(given_pairs))
            assert compact_text(obj) == compact_text(network_to_obj(expected))
            # an in-memory network iterates its nodes as its file decodes
            assert list(net.nodes) == list(network_from_obj(network_to_obj(expected)).nodes)


class TestProjectionOracle:
    """The numpy projection gives the lists, and their int and float types,
    that the dict builder edge by edge compacts to: isolated nodes,
    reciprocal and repeated edges, self-loops and no edges at all."""

    @given(event_pair_lists())
    @example([])
    @example([(7, ORIGINAL), (3, ORIGINAL)])
    @example([(0, 5), (5, 0), (0, 5), (9, ORIGINAL)])
    @example([(2**31 - 1, 2**31 - 1), (2**31 - 1, 0)])
    def test_equals_the_dict_builder(self, pairs):
        net = network_from_events("tide", pairs)
        assert repr(undirected_projection(net)) == repr(dict_projection(net).compact())

    def test_edge_ends_become_nodes(self):
        net = RetweetNetwork("tide", {0, 1}, [[0, 1, 2], [1, 7, 1], [7, 0, 1]])
        assert net.nodes == {0, 1, 7}
        assert repr(undirected_projection(net)) == repr(dict_projection(net).compact())
