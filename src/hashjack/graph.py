"""Weighted retweet networks over a shared account registry.

One directed multigraph per tracked hashtag: an edge (i, j) with weight w
means account i retweeted account j w times inside that hashtag's stream.
All networks of a run share one AccountRegistry, so the same account keeps
the same integer index across networks and cross-network membership can be
compared index-for-index. Clustering consumes the symmetrized projection,
`undirected_projection`, which gives the one form Louvain and modularity
run on: a CompactGraph of sorted node ids and position rows.

One numpy aggregation, `event_rows`, turns a stream's (author, retweeted)
event pairs into the weighted [author, retweeted, count] rows the ingest
store keeps; `network_obj` reads those rows, with no count or sort of
events, into the network file's object. A RetweetNetwork keeps the file's
[retweeter, retweeted, count] rows, which the projection and the GEXF
writer read as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple

from .ingest import TweetRecord, _distinct, normalize_hashtag


class AccountRegistry:
    """Bijective account-id <-> dense index map, append-only within a run."""

    def __init__(self, ids: Iterable[str] = ()):
        # first-seen order without repeats, as interning one by one gives
        self._ids: list[str] = list(dict.fromkeys(ids))
        self._index: dict[str, int] = dict(zip(self._ids, range(len(self._ids))))

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

    def indices(self, accounts: Iterable[str]) -> Iterator[int]:
        """`index_of` of each account, in order."""
        return map(self._index.__getitem__, accounts)

    def id_of(self, index: int) -> str:
        return self._ids[index]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self._ids)


@dataclass
class RetweetNetwork:
    """Directed weighted retweet graph for one hashtag, in its file's form.

    edges holds distinct [retweeter, retweeted, count] rows whose counts sum
    to the number of retweet records in the stream; self-edges cannot occur
    (self-retweets are rejected upstream). The constructor tallies retweets
    made and received per node and makes both ends of every edge nodes.
    """

    hashtag: str
    nodes: set[int]
    edges: list[list[int]]
    original_count: int = 0
    retweets_made: dict[int, int] = field(init=False, repr=False)
    retweets_received: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        made: dict[int, int] = {}
        received: dict[int, int] = {}
        for i, j, w in self.edges:
            made[i] = made.get(i, 0) + w
            received[j] = received.get(j, 0) + w
        self.retweets_made, self.retweets_received = made, received
        self.nodes.update(made, received)

    def made(self, node: int) -> int:
        return self.retweets_made.get(node, 0)

    def received(self, node: int) -> int:
        return self.retweets_received.get(node, 0)


ORIGINAL = -1  # retweeted index of an original tweet in an event pair or row


def event_rows(pairs):
    """The ascending [author, retweeted, count] rows of (author, retweeted)
    event pairs (an (n, 2) array or a sequence of pairs), one per distinct
    pair; an author's row with retweeted ORIGINAL counts their original
    tweets. Counts are run lengths of the sorted keys author << 32 |
    retweeted + 1."""
    import numpy as np

    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    keys = np.sort(pairs[:, 0] << 32 | pairs[:, 1] + 1)
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # where each run of equal keys starts
    counts = np.diff(np.append(first, len(keys)))
    keys = keys[first]
    return np.stack((keys >> 32, (keys & 0xFFFFFFFF) - 1, counts), axis=1)


def network_obj(hashtag: str, rows) -> dict:
    """The stored network of a hashtag's event_rows: nodes ascending, the
    retweet rows, already ascending, as its [i, j, count] edges, and
    original_count. An original's row makes its author a node, not an edge."""
    import numpy as np

    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    retweet = rows[:, 1] != ORIGINAL
    return {
        "hashtag": hashtag,
        "nodes": _distinct(np.concatenate((rows[:, 0], rows[retweet, 1]))).tolist(),
        "edges": rows[retweet].tolist(),
        "original_count": int(rows[~retweet, 2].sum()),
    }


def network_from_events(hashtag: str, pairs) -> RetweetNetwork:
    """The RetweetNetwork of a hashtag's event pairs, as ingest and build
    make it: event_rows, then network_obj, as the file decodes."""
    obj = network_obj(hashtag, event_rows(pairs))
    return RetweetNetwork(obj["hashtag"], set(obj["nodes"]), obj["edges"], obj["original_count"])


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


class CompactGraph(NamedTuple):
    """The one graph form Louvain and modularity take: node ids ascending,
    one row of (position, weight) pairs per node sorted by position, and
    each node's self-loop weight, which counts twice toward its strength.
    Every caller shares the lists and must not change them."""

    nodes: list[int]
    adj: list[list[tuple[int, float]]]
    selfw: list[float]


def undirected_projection(net: RetweetNetwork) -> CompactGraph:
    """Symmetrize a directed network: weight'(i,j) = w(i,j) + w(j,i).

    Each edge enters the keys pos_i << 32 | pos_j from both ends; each
    distinct key, in sorted order, is one row entry with its summed weight.
    Edge ends are looked up in net.nodes, which holds every end.
    """
    import numpy as np

    nodes = np.sort(np.fromiter(net.nodes, dtype=np.int64, count=len(net.nodes)))
    edges = np.fromiter(chain.from_iterable(net.edges), dtype=np.int64,
                        count=3 * len(net.edges)).reshape(-1, 3)
    pos = np.searchsorted(nodes, edges[:, :2])
    weights = edges[:, 2].astype(np.float64)
    loop = pos[:, 0] == pos[:, 1]
    selfw = np.zeros(len(nodes))
    selfw[pos[loop, 0]] = weights[loop]  # rows are distinct: one self-edge a node at most
    i, j, w = pos[~loop, 0], pos[~loop, 1], weights[~loop]
    keys, run = np.unique(np.concatenate((i << 32 | j, j << 32 | i)), return_inverse=True)
    sums = np.bincount(run, np.concatenate((w, w)), minlength=len(keys))
    bounds = np.searchsorted(keys >> 32, np.arange(len(nodes) + 1)).tolist()
    entries = list(zip((keys & 0xFFFFFFFF).tolist(), sums.tolist()))
    rows = [entries[a:b] for a, b in zip(bounds, bounds[1:])]
    return CompactGraph(nodes.tolist(), rows, selfw.tolist())
