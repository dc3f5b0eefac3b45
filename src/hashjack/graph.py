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
writer read as they are. `build_networks` takes TweetRecords through the
same two steps, one event per record.

`normalize_hashtag`, the one hashtag rule, lives here; `ingest` uses it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .errors import HashtagError

if TYPE_CHECKING:
    from .ingest import TweetRecord

_HASHTAG_RE = re.compile(r"[a-z0-9_]+\Z")


def normalize_hashtag(tag: str) -> str:
    """Lowercase, strip a leading '#'. Raises HashtagError if the rest is not [a-z0-9_]+."""
    tag = tag.strip().lower()
    if tag.startswith("#"):
        tag = tag[1:]
    if not _HASHTAG_RE.match(tag):
        raise HashtagError(f"invalid hashtag: {tag!r}")
    return tag


def _distinct(values):
    """The distinct values of an int array, ascending. np.unique gives the
    same, but this numpy hashes first and is many times slower."""
    import numpy as np

    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class AccountRegistry:
    """Bijective account-id <-> dense index map, fixed once built."""

    def __init__(self, ids: Iterable[str] = ()):
        # first-seen order without repeats
        self._ids: tuple[str, ...] = tuple(dict.fromkeys(ids))
        self._index: dict[str, int] = dict(zip(self._ids, range(len(self._ids))))

    def __contains__(self, account: str) -> bool:
        return account in self._index

    def index_of(self, account: str) -> int:
        return self._index[account]

    def indices(self, accounts: Iterable[str]) -> Iterator[int]:
        """`index_of` of each account, in order."""
        return map(self._index.__getitem__, accounts)

    def id_of(self, index: int) -> str:
        return self._ids[index]

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids


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


def build_networks(
    streams: Mapping[str, Iterable[TweetRecord]],
) -> tuple[dict[str, RetweetNetwork], AccountRegistry]:
    """Build each stream's hashtag network over one registry of every author
    and retweeted account in account-id order, so indices do not depend on
    stream order. Each record is one (author, retweeted) event; the events
    go through event_rows and network_obj, as ingest and build run them,
    and decode as a network file does. A record that lacks its stream's
    hashtag raises ValueError; duplicate tweet ids are rejected by
    parse_records, not here."""
    from .store import network_from_obj  # store imports this module

    streams = {tag: list(stream) for tag, stream in sorted(streams.items())}
    registry = AccountRegistry(sorted({
        account for stream in streams.values() for record in stream
        for account in (record.author, record.retweeted_author) if account is not None
    }))
    index = registry.index_of
    nets = {}
    for key, stream in streams.items():
        tag = normalize_hashtag(key)
        for record in stream:
            if tag not in record.hashtags:
                raise ValueError(
                    f"record {record.tweet_id} does not carry #{tag}; stream is mixed"
                )
        pairs = [(index(record.author), ORIGINAL if record.retweeted_author is None
                  else index(record.retweeted_author)) for record in stream]
        nets[key] = network_from_obj(network_obj(tag, event_rows(pairs)))
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
