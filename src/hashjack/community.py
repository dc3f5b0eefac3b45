"""Community detection by greedy modularity optimization (Louvain method).

Two-phase scheme: local moving of nodes between communities while the
weighted modularity

    Q = sum_c [ W_c / m - gamma * (S_c / 2m)^2 ]

improves (W_c: weight inside community c, S_c: total strength of its nodes,
m: total edge weight, gamma: resolution), then aggregation of communities
into supernodes, repeated until no local move helps. Unlike the common
library implementations, runs here are fully reproducible: node traversal
is shuffled by a seeded PRNG per level, ties between equally good candidate
communities go to the lowest id, and a move is only accepted on strict
improvement (delta Q > 1e-12).

Both phases and `modularity` work on the graph's compact form
(`UndirectedGraph.compact`), and `_quality` is the one Q formula: the
singleton modularity of the aggregate graph of a partition.

References
----------
.. [1] Blondel V.D., Guillaume J.-L., Lambiotte R., Lefebvre E. (2008)
   Fast unfolding of communities in large networks. J. Stat. Mech.
   doi:10.1088/1742-5468/2008/10/P10008
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .errors import EdgelessGraphError
from .graph import UndirectedGraph

# A move must beat staying put by more than this (in modularity units).
MIN_GAIN = 1e-12


@dataclass(frozen=True)
class CommunityPartition:
    """Assignment of nodes to dense 0-based community ids.

    modularity is recomputed from the graph at the end of the run, so
    recomputing it again from (graph, assignment) reproduces the stored
    value exactly. level_modularity holds Q after each aggregation level.
    """

    assignment: dict[int, int]
    modularity: float
    resolution: float
    seed: int
    levels: int
    level_modularity: tuple[float, ...] = ()

    @property
    def n_communities(self) -> int:
        return len(set(self.assignment.values()))

    def communities(self) -> dict[int, list[int]]:
        """Community id -> sorted member nodes."""
        groups: dict[int, list[int]] = {}
        for node, cid in self.assignment.items():
            groups.setdefault(cid, []).append(node)
        return {cid: sorted(members) for cid, members in sorted(groups.items())}

    def members(self, cid: int) -> set[int]:
        return {node for node, c in self.assignment.items() if c == cid}


def modularity(
    graph: UndirectedGraph, assignment: Mapping[int, int], resolution: float = 1.0
) -> float:
    """Weighted modularity of a partition; raises on an edgeless graph."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    m = graph.total_weight()
    if m <= 0:
        raise EdgelessGraphError("modularity is undefined on an edgeless graph")
    # _quality sums communities in index order; indexing them by first
    # appearance in graph.nodes keeps Q's bits independent of the ids used.
    relabel: dict[int, int] = {}
    for node in graph.nodes:
        if node not in assignment:
            raise ValueError(f"node {node} has no community assignment")
        relabel.setdefault(assignment[node], len(relabel))
    node_ids, adj, selfw = graph.compact()
    comm = [assignment[node] for node in node_ids]
    return _quality(*_aggregate(adj, selfw, comm, relabel), m, resolution)


def _strengths(adj: list[list[tuple[int, float]]], selfw: list[float]) -> list[float]:
    """Weighted degree of each compact node; a self-loop counts twice."""
    return [sum(w for _, w in row) + 2.0 * s for row, s in zip(adj, selfw)]


def _quality(
    adj: list[list[tuple[int, float]]], selfw: list[float], m: float, resolution: float
) -> float:
    """Q of the singleton partition of a compact graph with total weight m.

    On an aggregate graph this is Q of the partition it was aggregated by,
    since a supernode's self-loop weight is its community's internal weight.
    """
    return sum(
        s / m - resolution * (k / (2.0 * m)) ** 2
        for s, k in zip(selfw, _strengths(adj, selfw))
    )


def _local_move(
    adj: list[list[tuple[int, float]]],
    selfw: list[float],
    m: float,
    resolution: float,
    rng: random.Random,
) -> tuple[list[int], bool]:
    """One level of local moving over a compact 0..n-1 node space.

    Returns (community of each node, whether any move was accepted).
    Community ids start as node ids; ties between equally good candidates
    resolve to the lowest id.
    """
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
            row = adj[v]
            tot[c0] -= kv
            factor = resolution * kv / two_m
            if len(row) == 1:
                # A leaf's one candidate is its neighbour's community: the
                # float operations of the branch below, without the link dict;
                # a candidate no better than staying fails the threshold test.
                (u, w), = row
                best_c = comm[u]
                best_g = w - tot[best_c] * factor
                g_stay = 0.0 - tot[c0] * factor
            else:
                link: dict[int, float] = {}
                for u, w in row:
                    cu = comm[u]
                    link[cu] = link.get(cu, 0.0) + w
                best_g = g_stay = link.get(c0, 0.0) - tot[c0] * factor
                best_c = c0
                # Highest gain wins and ties go to the lowest id. A winner
                # other than c0 only moves v when it beats staying, so c0
                # stays on a tie.
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


def _aggregate(
    adj: list[list[tuple[int, float]]],
    selfw: list[float],
    comm: list[int],
    relabel: dict[int, int],
) -> tuple[list[list[tuple[int, float]]], list[float]]:
    k = len(relabel)
    new_adj: list[dict[int, float]] = [{} for _ in range(k)]
    new_selfw = [0.0] * k
    for v, row in enumerate(adj):
        cv = relabel[comm[v]]
        new_selfw[cv] += selfw[v]
        for u, w in row:
            if u <= v:
                continue
            cu = relabel[comm[u]]
            if cu == cv:
                new_selfw[cv] += w
            else:
                new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
                new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
    return [sorted(row.items()) for row in new_adj], new_selfw


def louvain(
    graph: UndirectedGraph, resolution: float = 1.0, seed: int = 42
) -> CommunityPartition:
    """Greedy modularity clustering, deterministic given (graph, resolution, seed).

    Nodes are compacted in ascending node-id order before the seeded level
    shuffle, so the result depends only on the graph's structure and ids,
    not on construction order.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    m = graph.total_weight()
    if m <= 0:
        raise EdgelessGraphError("community detection needs at least one edge")
    node_ids, adj, selfw = graph.compact()
    rng = random.Random(seed)
    membership = list(range(len(node_ids)))  # original compact node -> level node
    level_q: list[float] = []
    while True:
        comm, moved = _local_move(adj, selfw, m, resolution, rng)
        if not moved:
            break
        relabel = {label: idx for idx, label in enumerate(sorted(set(comm)))}
        membership = [relabel[comm[v]] for v in membership]
        adj, selfw = _aggregate(adj, selfw, comm, relabel)
        level_q.append(_quality(adj, selfw, m, resolution))

    assignment = dict(zip(node_ids, membership))
    return CommunityPartition(
        assignment=assignment,
        modularity=modularity(graph, assignment, resolution),
        resolution=resolution,
        seed=seed,
        levels=len(level_q),
        level_modularity=tuple(level_q),
    )
