import random

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    adjusted_rand_index,
    blocks_to_assignment,
    naive_modularity,
    set_partitions,
)
import hashjack.community
from hashjack.community import CommunityPartition, louvain, modularity
from hashjack.errors import EdgelessGraphError
from hashjack.graph import UndirectedGraph
from hashjack.synth import planted_partition_graph

BARBELL_Q = 6.0 / 7.0 - 0.5


def barbell():
    """Two triangles joined by one edge; optimum Q = 6/7 - 1/2."""
    g = UndirectedGraph()
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]:
        g.add_edge(i, j, 1.0)
    return g


def two_triangles():
    g = UndirectedGraph()
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        g.add_edge(i, j, 1.0)
    return g


def random_graph(rng, n=12, p=0.4, loops=True):
    g = UndirectedGraph()
    for v in range(n):
        g.add_node(v)
    for i in range(n):
        for j in range(i, n):
            if i == j and (not loops or rng.random() > 0.2):
                continue
            if rng.random() < p:
                g.add_edge(i, j, rng.choice([1.0, 2.0, 0.5]))
    return g


class TestModularityOracles:
    def test_barbell_two_triangle_split(self):
        q = modularity(barbell(), {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        assert abs(q - BARBELL_Q) < 1e-12

    def test_two_disjoint_triangles_give_half(self):
        q = modularity(two_triangles(), {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        assert abs(q - 0.5) < 1e-12

    def test_single_community_is_zero(self):
        q = modularity(barbell(), {v: 0 for v in range(6)})
        assert abs(q) < 1e-12

    def test_barbell_split_is_global_optimum_of_all_203(self):
        g = barbell()
        partitions = list(set_partitions(list(range(6))))
        assert len(partitions) == 203
        best = max(
            partitions, key=lambda blocks: modularity(g, blocks_to_assignment(blocks))
        )
        assert sorted(tuple(sorted(b)) for b in best) == [(0, 1, 2), (3, 4, 5)]

    def test_matches_naive_double_sum(self):
        rng = random.Random(5)
        for trial in range(25):
            g = random_graph(rng)
            if g.total_weight() == 0:
                continue
            assignment = {v: rng.randrange(3) for v in g.nodes}
            for gamma in (0.5, 1.0, 1.7):
                fast = modularity(g, assignment, gamma)
                slow = naive_modularity(g, assignment, gamma)
                assert fast == pytest.approx(slow, abs=1e-12)

    def test_edgeless_graph_raises(self):
        g = UndirectedGraph()
        g.add_node(0)
        with pytest.raises(EdgelessGraphError):
            modularity(g, {0: 0})
        with pytest.raises(EdgelessGraphError):
            louvain(g)

    def test_missing_assignment_raises(self):
        with pytest.raises(ValueError):
            modularity(barbell(), {0: 0})

    def test_nonpositive_resolution_raises(self):
        with pytest.raises(ValueError):
            modularity(barbell(), {v: 0 for v in range(6)}, resolution=0.0)


class TestLouvain:
    def test_finds_barbell_optimum(self):
        part = louvain(barbell())
        assert part.n_communities == 2
        assert abs(part.modularity - BARBELL_Q) < 1e-12
        sides = part.communities()
        assert sorted(tuple(v) for v in sides.values()) == [(0, 1, 2), (3, 4, 5)]

    def test_community_ids_are_dense_from_zero(self):
        part = louvain(barbell())
        assert set(part.assignment.values()) == set(range(part.n_communities))

    def test_reported_modularity_matches_recomputation(self):
        part = louvain(barbell(), resolution=0.8, seed=3)
        assert part.modularity == pytest.approx(
            modularity(barbell(), part.assignment, 0.8), abs=1e-12
        )

    def test_deterministic_for_fixed_seed(self):
        g, _ = planted_partition_graph([20, 20, 20], 0.4, 0.02, seed=9)
        a = louvain(g, seed=42)
        b = louvain(g, seed=42)
        assert a.assignment == b.assignment
        assert a.modularity == b.modularity
        assert a.level_modularity == b.level_modularity

    def test_level_modularity_monotone(self):
        g, _ = planted_partition_graph([30, 30, 30, 30], 0.3, 0.02, seed=4)
        part = louvain(g)
        levels = part.level_modularity
        assert len(levels) == part.levels >= 1
        assert all(b >= a - 1e-12 for a, b in zip(levels, levels[1:]))
        assert part.modularity == pytest.approx(levels[-1], abs=1e-9)

    def test_full_modularity_computed_once(self, monkeypatch):
        calls = []
        real = hashjack.community.modularity

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hashjack.community, "modularity", counting)
        g, _ = planted_partition_graph([10] * 12, 0.5, 0.02, seed=4)
        part = louvain(g)
        assert part.levels == 3
        assert len(calls) == 1
        assert part.modularity == pytest.approx(part.level_modularity[-1], abs=1e-12)

    def test_two_cliques_with_bridge(self):
        g = UndirectedGraph()
        for base in (0, 10):
            for i in range(10):
                for j in range(i + 1, 10):
                    g.add_edge(base + i, base + j, 1.0)
        g.add_edge(0, 10, 1.0)
        part = louvain(g)
        assert part.n_communities == 2
        left = {part.assignment[v] for v in range(10)}
        right = {part.assignment[v] for v in range(10, 20)}
        assert len(left) == len(right) == 1 and left != right

    def test_local_optimum_no_single_move_improves(self):
        g, _ = planted_partition_graph([15, 15, 15], 0.5, 0.05, seed=11)
        part = louvain(g, seed=1)
        base = part.modularity
        for v in sorted(g.nodes):
            for target in set(part.assignment.values()):
                if target == part.assignment[v]:
                    continue
                trial = dict(part.assignment)
                trial[v] = target
                assert modularity(g, trial) <= base + 1e-9

    def test_resolution_extremes(self):
        g = barbell()
        coarse = louvain(g, resolution=0.05)
        fine = louvain(g, resolution=20.0)
        assert coarse.n_communities <= 2
        assert fine.n_communities >= 2

    def test_seed_changes_are_still_valid_partitions(self):
        g, _ = planted_partition_graph([25, 25], 0.4, 0.02, seed=2)
        for seed in (0, 1, 7):
            part = louvain(g, seed=seed)
            assert set(part.assignment) == set(g.nodes)
            assert part.modularity > 0.2

    def test_partition_members_and_communities_agree(self):
        part = louvain(barbell())
        for cid, members in part.communities().items():
            assert set(members) == part.members(cid)
            for v in members:
                assert part.assignment[v] == cid


class TestPlantedRecovery:
    def test_four_block_recovery_high_agreement(self):
        g, truth = planted_partition_graph([50, 50, 50, 50], 0.3, 0.01, seed=0)
        part = louvain(g, seed=42)
        planted = {v: truth[v] for v in g.nodes}
        assert adjusted_rand_index(part.assignment, planted) >= 0.95


graph_cases = st.integers(min_value=0, max_value=2**31 - 1)


class TestModularityProperty:
    @settings(max_examples=60, deadline=None)
    @given(graph_cases)
    def test_fast_equals_naive_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n=rng.randrange(2, 10))
        if g.total_weight() == 0:
            return
        assignment = {v: rng.randrange(1, 4) for v in g.nodes}
        assert modularity(g, assignment) == pytest.approx(
            naive_modularity(g, assignment), abs=1e-12
        )
