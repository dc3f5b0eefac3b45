"""Weighted retweet networks over a shared account registry.

One directed multigraph per tracked hashtag: an edge (i, j) with weight w
means account i retweeted account j w times inside that hashtag's stream.
All networks of a run share one AccountRegistry, so the same account keeps
the same integer index across networks and cross-network membership can be
compared index-for-index. Clustering consumes the symmetrized projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .ingest import TweetRecord, normalize_hashtag


class AccountRegistry:
    """Bijective account-id <-> dense index map, append-only within a run."""

    def __init__(self, ids: Iterable[str] = ()):
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        for account in ids:
            self.intern(account)

    def __contains__(self, account: str) -> bool:
        return account in self._index

    def intern(self, account: str) -> int:
        """Return the index for account, assigning the next free one if new."""
        idx = self._index.get(account)
        if idx is None:
            idx = len(self._ids)
            self._index[account] = idx
            self._ids.append(account)
        return idx

    def index_of(self, account: str) -> int:
        return self._index[account]

    def id_of(self, index: int) -> str:
        return self._ids[index]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self._ids)


@dataclass
class RetweetNetwork:
    """Directed weighted retweet graph for one hashtag.

    edges maps (retweeter, retweeted) index pairs to event counts; the sum
    of all weights equals the number of retweet records in the stream.
    Self-edges cannot occur (self-retweets are rejected upstream).
    """

    hashtag: str
    nodes: set[int] = field(default_factory=set)
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    retweets_made: dict[int, int] = field(default_factory=dict)
    retweets_received: dict[int, int] = field(default_factory=dict)
    retweet_count: int = 0
    original_count: int = 0

    def made(self, node: int) -> int:
        return self.retweets_made.get(node, 0)

    def received(self, node: int) -> int:
        return self.retweets_received.get(node, 0)


ORIGINAL = -1  # retweeted index of an original tweet in an event pair


def add_edges(net: RetweetNetwork, weighted: Iterable[Sequence[int]]) -> None:
    """Add (retweeter, retweeted, count) edges to net with their tallies.

    This is the one place where edge weights, retweets_made,
    retweets_received and retweet_count are accumulated.
    """
    edges = net.edges
    made = net.retweets_made
    received = net.retweets_received
    for i, j, w in weighted:
        key = (i, j)
        edges[key] = edges.get(key, 0) + w
        made[i] = made.get(i, 0) + w
        received[j] = received.get(j, 0) + w
        net.retweet_count += w


def network_from_events(hashtag: str, pairs) -> RetweetNetwork:
    """Aggregate one hashtag's (author, retweeted) registry-index pairs, an
    (n, 2) array or a sequence of pairs.

    retweeted is ORIGINAL for an original tweet, which adds its author as a
    node but no edge. Every pair counts as one event; nothing is deduplicated.
    Edges are counted by sorting the keys author << 32 | retweeted and go
    to add_edges in ascending (author, retweeted) order.
    """
    import numpy as np

    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    net = RetweetNetwork(hashtag=hashtag)
    # event order, author before retweeted: the set iterates as when built one add at a time
    flat = pairs.ravel()
    net.nodes.update(flat[flat != ORIGINAL].tolist())
    retweet = pairs[:, 1] != ORIGINAL
    net.original_count = len(pairs) - int(np.count_nonzero(retweet))
    keys = np.sort(pairs[retweet, 0] << 32 | pairs[retweet, 1])
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # where each run of equal keys starts
    counts = np.diff(np.append(first, len(keys)))
    keys = keys[first]
    add_edges(net, zip((keys >> 32).tolist(), (keys & 0xFFFFFFFF).tolist(), counts.tolist()))
    return net


def stream_registry(streams: Iterable[Iterable[TweetRecord]]) -> AccountRegistry:
    """Registry of every author and retweeted account in the streams, in
    account-id order, so indices do not depend on stream order."""
    return AccountRegistry(sorted({
        account
        for stream in streams
        for record in stream
        for account in (record.author, record.retweeted_author)
        if account is not None
    }))


def event_pairs(
    stream: Iterable[TweetRecord], registry: AccountRegistry
) -> list[tuple[int, int]]:
    """(author, retweeted) index per record, interning accounts in stream order."""
    intern = registry.intern
    return [
        (
            intern(record.author),
            ORIGINAL if record.retweeted_author is None
            else intern(record.retweeted_author),
        )
        for record in stream
    ]


def build_network(
    stream: Iterable[TweetRecord], registry: AccountRegistry, hashtag: str
) -> RetweetNetwork:
    """Build one hashtag's network from its stream.

    Every record must carry the hashtag and counts as one event; duplicate
    tweet ids are rejected by parse_records, not here. Original tweets add
    their author as a node but no edge; an empty stream yields an empty
    network.
    """
    tag = normalize_hashtag(hashtag)
    stream = list(stream)
    for record in stream:
        if tag not in record.hashtags:
            raise ValueError(
                f"record {record.tweet_id} does not carry #{tag}; stream is mixed"
            )
    return network_from_events(tag, event_pairs(stream, registry))


def build_networks(
    streams: Mapping[str, Iterable[TweetRecord]],
) -> tuple[dict[str, RetweetNetwork], AccountRegistry]:
    """Build all hashtag networks over one registry in account-id order."""
    streams = {tag: list(stream) for tag, stream in streams.items()}
    registry = stream_registry(streams.values())
    nets = {
        tag: build_network(stream, registry, tag) for tag, stream in sorted(streams.items())
    }
    return nets, registry


class UndirectedGraph:
    """Symmetric weighted graph with optional self-loops.

    Self-loop weight is stored once per node and counts twice toward the
    node's strength, following the usual modularity convention.
    """

    def __init__(self):
        self._adj: dict[int, dict[int, float]] = {}
        self._self: dict[int, float] = {}
        self._compact = None

    def add_node(self, node: int) -> None:
        self._compact = None
        self._adj.setdefault(node, {})

    def add_edge(self, i: int, j: int, weight: float = 1.0) -> None:
        self._compact = None
        if i == j:
            self._adj.setdefault(i, {})
            self._self[i] = self._self.get(i, 0.0) + weight
            return
        row_i = self._adj.setdefault(i, {})
        row_j = self._adj.setdefault(j, {})
        row_i[j] = row_i.get(j, 0.0) + weight
        row_j[i] = row_j.get(i, 0.0) + weight

    @property
    def nodes(self) -> list[int]:
        return list(self._adj)

    def compact(self) -> tuple[list[int], list[list[tuple[int, float]]], list[float]]:
        """(node ids ascending, (position, weight) rows sorted by position,
        self-loop weights), kept until the next add_node or add_edge.

        Every caller shares the lists and must not change them.
        """
        if self._compact is None:
            node_ids = sorted(self._adj)
            pos = {node: i for i, node in enumerate(node_ids)}
            self._compact = (
                node_ids,
                [sorted((pos[u], w) for u, w in self._adj[node].items()) for node in node_ids],
                [self._self.get(node, 0.0) for node in node_ids],
            )
        return self._compact

    def neighbors(self, node: int) -> dict[int, float]:
        return self._adj[node]

    def self_loop(self, node: int) -> float:
        return self._self.get(node, 0.0)

    def strength(self, node: int) -> float:
        return sum(self._adj[node].values()) + 2.0 * self._self.get(node, 0.0)

    def edge_weight(self, i: int, j: int) -> float:
        if i == j:
            return self._self.get(i, 0.0)
        return self._adj.get(i, {}).get(j, 0.0)

    def total_weight(self) -> float:
        half = sum(w for row in self._adj.values() for w in row.values())
        return half / 2.0 + sum(self._self.values())


def undirected_projection(net: RetweetNetwork) -> UndirectedGraph:
    """Symmetrize a directed network: weight'(i,j) = w(i,j) + w(j,i)."""
    graph = UndirectedGraph()
    for node in net.nodes:
        graph.add_node(node)
    for (i, j), w in net.edges.items():
        graph.add_edge(i, j, float(w))
    return graph
