"""Slow reference implementations the fast code is checked against."""

from __future__ import annotations

import json
import random
from collections import deque
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Sequence

from hashjack.community import MIN_GAIN, _strengths
from hashjack.graph import ORIGINAL, RetweetNetwork, UndirectedGraph, add_edges
from hashjack.ingest import _FIELDS, _check_fields, record_to_obj


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


def record_store(records: Sequence, tracked: Iterable[str]) -> tuple[list[str], dict]:
    """The store's registry and (author, retweeted) index pairs per tracked
    tag by walking TweetRecords: the registry holds the sorted ids of every
    account in a stream, and a stream keeps the records carrying its tag."""
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


def dict_network_from_events(hashtag: str, pairs: Sequence[Sequence[int]]) -> RetweetNetwork:
    """network_from_events as a loop over Python (author, retweeted) pairs,
    one event at a time, with the edges added in event order."""
    net = RetweetNetwork(hashtag=hashtag)
    for author, target in pairs:
        net.nodes.add(author)
        if target == ORIGINAL:
            net.original_count += 1
        else:
            net.nodes.add(target)
    add_edges(net, ((a, t, 1) for a, t in pairs if t != ORIGINAL))
    return net


def dict_local_move(
    adj: list[list[tuple[int, float]]],
    selfw: list[float],
    m: float,
    resolution: float,
    rng: random.Random,
) -> tuple[list[int], bool]:
    """community._local_move with a link dict for every node, leaves included."""
    n = len(adj)
    order = list(range(n))
    rng.shuffle(order)
    comm = list(range(n))
    strength = _strengths(adj, selfw)
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
    """The canonical JSONL line of a record, from the general JSON encoder,
    as ingest.record_to_json_line writes it."""
    return json.dumps(record_to_obj(record), sort_keys=True, separators=(",", ":"))
