"""Slow reference implementations the fast code is checked against."""

from __future__ import annotations

import csv
import io
import json
import random
from collections import deque
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Sequence

from hashjack.community import MIN_GAIN
from hashjack.errors import SynthConfigError
from hashjack.graph import ORIGINAL, AccountRegistry, CompactGraph, RetweetNetwork, \
    event_rows, network_obj
from hashjack.ingest import (
    CSV_COLUMNS,
    _FIELDS,
    _check_fields,
    format_rfc3339,
    parse_records,
    record_to_obj,
)
from hashjack.store import network_from_obj
from hashjack.synth import NetworkEvents, _sorted_multinomial, write_corpus


class UndirectedGraph:
    """Symmetric weighted graph in dicts, built one edge at a time: the
    reference for graph.undirected_projection and the builder of hand-made
    test graphs, which reach Louvain and modularity through compact().

    Self-loop weight is stored once per node and counts twice toward the
    node's strength, following the usual modularity convention.
    """

    def __init__(self):
        self._adj: dict[int, dict[int, float]] = {}
        self._self: dict[int, float] = {}

    def add_node(self, node: int) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, i: int, j: int, weight: float = 1.0) -> None:
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

    def compact(self) -> CompactGraph:
        """The graph in the form Louvain and modularity take."""
        node_ids = sorted(self._adj)
        pos = {node: i for i, node in enumerate(node_ids)}
        return CompactGraph(
            node_ids,
            [sorted((pos[u], w) for u, w in self._adj[node].items()) for node in node_ids],
            [self._self.get(node, 0.0) for node in node_ids],
        )

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


def dict_projection(net: RetweetNetwork) -> UndirectedGraph:
    """graph.undirected_projection one edge at a time in dicts: weight'(i,j)
    = w(i,j) + w(j,i)."""
    graph = UndirectedGraph()
    for node in net.nodes:
        graph.add_node(node)
    for i, j, w in net.edges:
        graph.add_edge(i, j, float(w))
    return graph


def naive_modularity(
    graph: UndirectedGraph, assignment: Mapping[int, int], resolution: float = 1.0
) -> float:
    """Direct double sum over all node pairs, loops entering twice."""
    nodes = sorted(graph.nodes)
    two_m = sum(graph.strength(v) for v in nodes)
    q = 0.0
    for i in nodes:
        for j in nodes:
            if assignment[i] != assignment[j]:
                continue
            if i == j:
                a_ij = 2.0 * graph.self_loop(i)
            else:
                a_ij = graph.edge_weight(i, j)
            q += a_ij - resolution * graph.strength(i) * graph.strength(j) / two_m
    return q / two_m


def set_partitions(items: Sequence[int]):
    """Every partition of items into non-empty blocks (Bell-number many)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [head]] + smaller[i + 1:]
        yield [[head]] + smaller


def blocks_to_assignment(blocks: Iterable[Iterable[int]]) -> dict[int, int]:
    return {node: cid for cid, block in enumerate(blocks) for node in block}


def adjusted_rand_index(a: Mapping[int, int], b: Mapping[int, int]) -> float:
    """Pair-counting agreement between two labelings of the same nodes."""
    assert set(a) == set(b)
    nodes = sorted(a)
    n = len(nodes)
    groups_a: dict[int, int] = {}
    groups_b: dict[int, int] = {}
    cells: dict[tuple[int, int], int] = {}
    for v in nodes:
        groups_a[a[v]] = groups_a.get(a[v], 0) + 1
        groups_b[b[v]] = groups_b.get(b[v], 0) + 1
        key = (a[v], b[v])
        cells[key] = cells.get(key, 0) + 1
    sum_cells = sum(comb(c, 2) for c in cells.values())
    sum_a = sum(comb(c, 2) for c in groups_a.values())
    sum_b = sum(comb(c, 2) for c in groups_b.values())
    pairs = comb(n, 2)
    expected = sum_a * sum_b / pairs if pairs else 0.0
    top = sum_cells - expected
    bottom = (sum_a + sum_b) / 2 - expected
    if bottom == 0:
        return 1.0
    return top / bottom


def pair_agreement_partitions(a: Mapping[int, int], b: Mapping[int, int]) -> bool:
    """True when both labelings induce the same grouping."""
    nodes = sorted(a)
    for u, v in combinations(nodes, 2):
        if (a[u] == a[v]) != (b[u] == b[v]):
            return False
    return True


def disconnected_communities(graph: UndirectedGraph, assignment: Mapping[int, int]) -> int:
    """Communities whose members do not induce one connected subgraph.

    Breadth-first search inside each community; Louvain can leave such
    communities behind (Traag, Waltman & van Eck 2019, Sci. Rep. 9:5233).
    """
    blocks: dict[int, set[int]] = {}
    for node in graph.nodes:
        blocks.setdefault(assignment[node], set()).add(node)
    count = 0
    for block in blocks.values():
        start = next(iter(block))
        seen = {start}
        queue = deque([start])
        while queue:
            for other in graph.neighbors(queue.popleft()):
                if other in block and other not in seen:
                    seen.add(other)
                    queue.append(other)
        count += len(seen) < len(block)
    return count


def record_stats(records: Sequence) -> dict:
    """`stats.json`'s counts by walking TweetRecords one at a time: records,
    accounts, per-tag tweets, retweets and unique accounts, and the window."""
    accounts: set[str] = set()
    per_tag: dict[str, list] = {}
    stamps = [record.timestamp for record in records]
    for record in records:
        involved = {record.author, record.retweeted_author} - {None}
        accounts |= involved
        for tag in record.hashtags:
            row = per_tag.setdefault(tag, [0, 0, set()])
            row[0] += 1
            row[1] += record.retweeted_author is not None
            row[2] |= involved
    return {
        "record_count": len(records),
        "account_count": len(accounts),
        "per_hashtag": {tag: (t, r, len(a)) for tag, (t, r, a) in per_tag.items()},
        "window": (min(stamps), max(stamps)) if stamps else None,
    }


def record_pairs(records: Sequence, tracked: Iterable[str]) -> tuple[list[str], dict]:
    """The registry and (author, retweeted) index pairs per tracked tag, in
    stream order, by walking TweetRecords: the registry holds the sorted ids
    of every account in a stream, and a stream keeps the records carrying
    its tag."""
    streams = {tag: [r for r in records if tag in r.hashtags] for tag in sorted(tracked)}
    ids = sorted({account for stream in streams.values() for r in stream
                  for account in (r.author, r.retweeted_author) if account is not None})
    index = {account: i for i, account in enumerate(ids)}
    pairs = {
        tag: [(index[r.author], -1 if r.retweeted_author is None else index[r.retweeted_author])
              for r in stream]
        for tag, stream in streams.items()
    }
    return ids, pairs


def dict_rows(pairs: Sequence[Sequence[int]]) -> list[list[int]]:
    """graph.event_rows as a dict count keyed by (author, retweeted) pair."""
    counts: dict[tuple[int, int], int] = {}
    for author, target in pairs:
        counts[author, target] = counts.get((author, target), 0) + 1
    return [[i, j, w] for (i, j), w in sorted(counts.items())]


def record_store(records: Sequence, tracked: Iterable[str]) -> tuple[list[str], dict]:
    """The store's registry and [author, retweeted, count] rows per tracked
    tag by walking TweetRecords: record_pairs, each tag's pairs counted."""
    ids, pairs = record_pairs(records, tracked)
    return ids, {tag: dict_rows(tag_pairs) for tag, tag_pairs in pairs.items()}


def network_to_obj(net: RetweetNetwork) -> dict:
    """The network file's object from a RetweetNetwork: nodes and weighted
    edge rows by registry index, sorted, plus original_count. What
    graph.network_obj gives from the rows of the network's events."""
    return {
        "hashtag": net.hashtag,
        "nodes": sorted(net.nodes),
        "edges": sorted([i, j, w] for i, j, w in net.edges),
        "original_count": net.original_count,
    }


def stage_network(hashtag: str, pairs) -> RetweetNetwork:
    """The network of (author, retweeted) event pairs as the stages make it:
    event_rows (ingest), network_obj (build), then decoded from the file."""
    return network_from_obj(network_obj(hashtag, event_rows(pairs)))


class Interner(dict):
    """Account id -> index, assigned one account at a time in first-seen
    order: the registry the record walk grows."""

    def __call__(self, account: str) -> int:
        return self.setdefault(account, len(self))

    def registry(self) -> AccountRegistry:
        return AccountRegistry(self)


def record_network(records: Iterable, accounts: Interner, hashtag: str) -> RetweetNetwork:
    """The record walk: a hashtag's network from its TweetRecords, each one
    event, interning the author and then the retweeted account of each
    record in stream order."""
    return stage_network(hashtag, [
        (accounts(r.author),
         ORIGINAL if r.retweeted_author is None else accounts(r.retweeted_author))
        for r in records
    ])


def dict_network_from_events(hashtag: str, pairs: Sequence[Sequence[int]]) -> RetweetNetwork:
    """stage_network as a loop over Python (author, retweeted) pairs, one
    event at a time, with the edge counts in a dict keyed by pair."""
    nodes: set[int] = set()
    counts: dict[tuple[int, int], int] = {}
    originals = 0
    for author, target in pairs:
        nodes.add(author)
        if target == ORIGINAL:
            originals += 1
        else:
            nodes.add(target)
            counts[author, target] = counts.get((author, target), 0) + 1
    return RetweetNetwork(hashtag, nodes, [[i, j, w] for (i, j), w in sorted(counts.items())],
                          originals)


def dict_local_move(
    adj: list[list[tuple[int, float]]],
    strength: list[float],
    m: float,
    resolution: float,
    rng: random.Random,
) -> tuple[list[int], bool]:
    """community._local_move with a link dict for every node, leaves included."""
    n = len(adj)
    order = list(range(n))
    rng.shuffle(order)
    comm = list(range(n))
    tot = strength.copy()
    two_m = 2.0 * m
    threshold = MIN_GAIN * m
    moved_any = False
    improved = True
    while improved:
        improved = False
        for v in order:
            c0 = comm[v]
            kv = strength[v]
            link: dict[int, float] = {}
            for u, w in adj[v]:
                cu = comm[u]
                link[cu] = link.get(cu, 0.0) + w
            tot[c0] -= kv
            factor = resolution * kv / two_m
            best_g = g_stay = link.get(c0, 0.0) - tot[c0] * factor
            best_c = c0
            for c, lc in link.items():
                g = lc - tot[c] * factor
                if g > best_g or (g == best_g and c < best_c):
                    best_g = g
                    best_c = c
            if best_c != c0 and best_g - g_stay > threshold:
                comm[v] = best_c
                tot[best_c] += kv
                improved = True
                moved_any = True
            else:
                tot[c0] += kv
    return comm, moved_any


def ordered_jsonl_check(line: str):
    """The checks of one JSONL line in their fixed order, each line taking
    every check, as ingest._check_jsonl_line makes them for a line that is
    not clean."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    if not _FIELDS.issuperset(obj):
        raise ValueError(f"unknown fields: {sorted(set(obj) - _FIELDS)}")
    hashtags = obj.get("hashtags")
    if not isinstance(hashtags, list) or not all(isinstance(t, str) for t in hashtags):
        raise ValueError("hashtags must be a list of strings")
    return _check_fields(
        obj.get("tweet_id"),
        obj.get("author"),
        obj.get("retweeted_author"),
        tuple(hashtags),
        obj.get("timestamp"),
    )


def json_line(record) -> str:
    """The canonical JSONL line of a record, from the general JSON encoder:
    what ingest.write_retweets's template gives for a retweet."""
    return json.dumps(record_to_obj(record), sort_keys=True, separators=(",", ":"))


def write_csv(records: Iterable, sink) -> int:
    """Records as CSV rows under the CSV_COLUMNS header, from csv.writer."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    n = 0
    for record in records:
        writer.writerow(
            [
                record.tweet_id,
                record.author,
                record.retweeted_author or "",
                "|".join("#" + t for t in sorted(record.hashtags)),
                format_rfc3339(record.timestamp),
            ]
        )
        n += 1
    return n


def synth_records(corpus) -> list:
    """The TweetRecords of a generated corpus through the real codec: the
    corpus as `hashjack synth` writes it, read back by parse_records."""
    text = io.StringIO()
    write_corpus(corpus, text)
    records, rejects = parse_records(text.getvalue())
    assert not rejects
    return records


def serial_emit_network(tag, pro, contra, rng, config, redraws=None):
    """synth._emit_network's reference, one actor at a time: one rng.random
    call for an actor's within split, one per side it draws from and one
    per redraw round. `redraws`, if given, gets each own-side draw's
    number of redraw rounds."""
    import numpy as np

    def draw(side, k, skip):
        pos, rounds = side.pick(rng.random(k)), 0
        while skip is not None and skip in pos:
            bad = pos == skip
            pos[bad] = side.pick(rng.random(np.count_nonzero(bad)))
            rounds += 1
        if redraws is not None and skip is not None:
            redraws.append(rounds)
        return pos + side.offset

    members = pro.members + contra.members
    mix = config.mixing
    p_within = mix.p_in / (mix.p_in + mix.p_out)
    epm = config.activity.events_per_member
    empty = np.zeros(0, dtype=np.int64)
    made, authors, targets = [empty], [empty], [empty]
    for own, other in ((pro, contra), (contra, pro)):
        n_own, n_other = len(own.members), len(other.members)
        if n_own == 0:
            continue
        budget = int(round(epm * n_own))
        counts = _sorted_multinomial(rng, budget, n_own, config.activity.zipf_s)
        made.append(counts)
        authors.append(np.repeat(own.offset + np.arange(n_own), counts))
        for gpos, cnt in enumerate(counts.tolist()):
            if cnt == 0:
                continue
            if own.hijacker[gpos]:
                tpos = rng.integers(0, n_own - 1, size=cnt)
                tpos[tpos >= gpos] += 1
                targets.append(tpos + own.offset)
                continue
            within = rng.random(cnt) < p_within
            if n_own < 2:
                within[:] = False
            if n_other == 0:
                within[:] = True
            if n_own < 2 and n_other == 0:
                raise SynthConfigError(f"network {tag}: no valid retweet target")
            actor_targets = np.empty(cnt, dtype=np.int64)
            n_within = np.count_nonzero(within)
            if n_within:
                actor_targets[within] = draw(own, n_within, gpos)
            if cnt - n_within:
                actor_targets[~within] = draw(other, cnt - n_within, None)
            targets.append(actor_targets)
    retweeted = np.concatenate(targets)
    received = np.bincount(retweeted, minlength=len(members))
    events = NetworkEvents(tag, members, np.concatenate(authors), retweeted)
    made_tally = {members[i]: c for i, c in enumerate(np.concatenate(made).tolist()) if c}
    recv_tally = {members[i]: c for i, c in enumerate(received.tolist()) if c}
    return events, made_tally, recv_tally


def planted_partition_graph(
    sizes: Sequence[int], p_in: float, p_out: float, seed: int = 0
) -> tuple[UndirectedGraph, list[int]]:
    """Stochastic block model with known blocks.

    Every within-block pair is an edge with probability p_in, every
    cross-block pair with probability p_out; weights are 1. Returns the
    graph and the planted block label per node.
    """
    import numpy as np

    if not 0.0 <= p_out < p_in <= 1.0:
        raise SynthConfigError("planted partition requires 0 <= p_out < p_in <= 1")
    if any(size < 0 for size in sizes):
        raise SynthConfigError("block sizes must be >= 0")
    membership = [block for block, size in enumerate(sizes) for _ in range(size)]
    n = len(membership)
    rng = np.random.default_rng(seed)
    graph = UndirectedGraph()
    for node in range(n):
        graph.add_node(node)
    for i in range(n):
        draws = rng.random(n - i - 1)
        for off, u in enumerate(draws):
            j = i + 1 + off
            p = p_in if membership[i] == membership[j] else p_out
            if u < p:
                graph.add_edge(i, j, 1.0)
    return graph, membership
