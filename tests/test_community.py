import random

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    adjusted_rand_index,
    blocks_to_assignment,
    dict_local_move,
    disconnected_communities,
    naive_modularity,
    set_partitions,
)
import hashjack.community
from hashjack.community import CommunityPartition, _local_move, louvain, modularity
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

    # Assignment in node order, repr(Q) and per-level Q. A change to the tie
    # rule or to the order Q is summed in shows here as changed bits.
    PINNED = [
        (
            ([6] * 5, 0.6, 0.08, 4), 0.5,
            [0] * 12 + [1] * 12 + [0, 0, 0, 1, 0, 0],
            "0.6071428571428571",
            (0.4128243890148652, 0.5621693121693121, 0.6071428571428571),
        ),
        (
            ([5] * 4, 0.6, 0.08, 0), 1.0,
            [0, 0, 0, 0, 0, 1, 2, 1, 2, 2, 3, 1, 1, 1, 1, 1, 3, 1, 3, 3],
            "0.38979591836734695",
            (0.3812244897959184, 0.38979591836734695),
        ),
        (
            ([7] * 5, 0.5, 0.08, 0), 2.0,
            [4, 0, 9, 1, 0, 1, 1, 3, 3, 6, 6, 5, 4, 3, 3, 3, 4, 3, 6, 3, 7, 8,
             5, 8, 8, 0, 5, 0, 9, 9, 2, 6, 9, 5, 2],
            "0.22315558802045288",
            (0.21219868517165813, 0.22315558802045288),
        ),
    ]

    @pytest.mark.parametrize("graph_args, resolution, assignment, q, levels", PINNED)
    def test_output_bits_are_pinned(self, graph_args, resolution, assignment, q, levels):
        g, _ = planted_partition_graph(*graph_args[:3], seed=graph_args[3])
        part = louvain(g, resolution=resolution, seed=42)
        assert [part.assignment[v] for v in sorted(g.nodes)] == assignment
        assert repr(part.modularity) == q
        assert part.level_modularity == levels
        assert part.modularity == modularity(g, part.assignment, resolution)

    def test_modularity_bits_are_pinned(self):
        g, _ = planted_partition_graph([6] * 5, 0.6, 0.08, seed=4)
        assert repr(modularity(g, {v: 2 * v % 5 for v in g.nodes}, 1.0)) == (
            "-0.05983875031494078"
        )
        assert repr(modularity(g, {v: 3 * v % 4 for v in g.nodes}, 2.0)) == (
            "-0.3736457545981355"
        )

    def test_change_after_scoring_is_seen(self):
        g = barbell()
        split = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        assert louvain(g).modularity == pytest.approx(BARBELL_Q, abs=1e-12)
        g.add_edge(0, 5, 4.0)
        q = modularity(g, split)
        assert q == pytest.approx(naive_modularity(g, split), abs=1e-12)
        assert q < BARBELL_Q - 0.1
        g.add_node(6)
        part = louvain(g)
        assert set(part.assignment) == set(range(7))
        assert part.modularity == pytest.approx(
            naive_modularity(g, part.assignment), abs=1e-12
        )

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

    def test_connectivity_oracle_sees_a_split_community(self):
        g = two_triangles()
        assert disconnected_communities(g, dict.fromkeys(range(6), 0)) == 1
        assert disconnected_communities(g, {v: v // 3 for v in range(6)}) == 0

    @pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
    def test_planted_communities_are_connected(self, resolution):
        disconnected = 0
        for seed in range(20):
            g, _ = planted_partition_graph([50, 50, 50, 50], 0.3, 0.01, seed=seed)
            part = louvain(g, resolution=resolution, seed=42)
            disconnected += disconnected_communities(g, part.assignment)
        assert disconnected == 0


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


def leafy_graph(rng):
    """A random core with many one-neighbour nodes hung on it, some with a
    self-loop, and weights that are multiples of 0.1."""
    g = UndirectedGraph()
    core = rng.randrange(2, 12)
    for i in range(core):
        for j in range(i + 1, core):
            if rng.random() < 0.3:
                g.add_edge(i, j, rng.randrange(1, 40) / 10)
    for leaf in range(core, core + rng.randrange(0, 40)):
        g.add_edge(leaf, rng.randrange(core), rng.randrange(1, 40) / 10)
        if rng.random() < 0.1:
            g.add_edge(leaf, leaf, rng.randrange(1, 10) / 10)
    return g


class TestLocalMoveDifferential:
    """Local moving without the link dict for leaves gives the same moves,
    and so the same bits, as the dict for every node."""

    @settings(max_examples=80, deadline=None)
    @given(graph_cases, st.sampled_from([0.5, 1.0, 3.0, 8.0, 20.0]))
    def test_same_moves_and_bits(self, seed, resolution):
        g = leafy_graph(random.Random(seed))
        m = g.total_weight()
        if m == 0:
            return
        _, adj, selfw = g.compact()
        assert (_local_move(adj, selfw, m, resolution, random.Random(seed))
                == dict_local_move(adj, selfw, m, resolution, random.Random(seed)))
        part = louvain(g, resolution=resolution, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hashjack.community, "_local_move", dict_local_move)
            expected = louvain(g, resolution=resolution, seed=seed)
        assert part.assignment == expected.assignment
        assert repr(part.modularity) == repr(expected.modularity)
        assert repr(part.level_modularity) == repr(expected.level_modularity)
