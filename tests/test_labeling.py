from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from _oracles import Interner, record_network, stage_network
from hashjack.community import CommunityPartition
from hashjack.errors import LabelingError
from hashjack.graph import AccountRegistry
from hashjack.ingest import TweetRecord
from hashjack.labeling import (
    ClusterLabeling,
    apply_overrides,
    label_by_seeds,
    manual_labeling,
    partisans,
    top_retweeted,
)

TS = datetime(2020, 3, 1, tzinfo=timezone.utc)


def rt(tid, author, target):
    return TweetRecord(
        tweet_id=tid,
        author=author,
        retweeted_author=target,
        hashtags=frozenset({"afd"}),
        timestamp=TS,
    )


@pytest.fixture()
def world():
    """Three clusters: a0..a5 (pro-ish), b0..b5, and tiny c0..c1.

    Hub a0 receives 5 retweets, b0 receives 4, so the evidence report has
    an unambiguous ordering.
    """
    interned = Interner()
    records = []
    tid = 0
    for fan in ("a1", "a2", "a3", "a4", "a5"):
        records.append(rt(f"t{tid}", fan, "a0"))
        tid += 1
    for fan in ("b1", "b2", "b3", "b4"):
        records.append(rt(f"t{tid}", fan, "b0"))
        tid += 1
    records.append(rt(f"t{tid}", "b5", "b1"))
    tid += 1
    records.append(rt(f"t{tid}", "c0", "c1"))
    net = record_network(records, interned, "afd")
    reg = interned.registry()
    assignment = {}
    for account in ("a0", "a1", "a2", "a3", "a4", "a5"):
        assignment[reg.index_of(account)] = 0
    for account in ("b0", "b1", "b2", "b3", "b4", "b5"):
        assignment[reg.index_of(account)] = 1
    for account in ("c0", "c1"):
        assignment[reg.index_of(account)] = 2
    part = CommunityPartition(
        assignment=assignment, modularity=0.5, resolution=1.0, seed=42, levels=1
    )
    return reg, net, part


class TestTopRetweeted:
    def test_orders_by_received_then_id(self, world):
        reg, net, part = world
        ranked = top_retweeted(net, part, 3, reg)
        assert ranked[0][0] == ("a0", 5)
        assert [count for _, count in ranked[0]] == [5, 0, 0]
        assert ranked[0][1][0] == "a1"  # ties on 0 break by id
        assert ranked[1][:2] == [("b0", 4), ("b1", 1)]

    def test_small_community_yields_all_members(self, world):
        reg, net, part = world
        ranked = top_retweeted(net, part, 10, reg)
        assert len(ranked[2]) == 2

    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
           st.integers(1, 8))
    def test_equals_sorting_every_member(self, pairs, k):
        reg = AccountRegistry(f"u{(i * 5) % 12:02d}" for i in range(12))  # ids out of index order
        net = stage_network("afd", [(i, j) for i, j in pairs if i != j])
        part = CommunityPartition(assignment={n: n % 3 for n in net.nodes}, modularity=0.0,
                                  resolution=1.0, seed=1, levels=1)
        expected = {
            cid: sorted(((reg.id_of(n), net.received(n)) for n in members),
                        key=lambda row: (-row[1], row[0]))[:k]
            for cid, members in part.communities().items()
        }
        assert top_retweeted(net, part, k, reg) == expected

    def test_k_must_be_positive(self, world):
        reg, net, part = world
        with pytest.raises(ValueError):
            top_retweeted(net, part, 0, reg)


class TestLabelBySeeds:
    def test_majority_vote(self, world):
        reg, net, part = world
        lab = label_by_seeds(
            part, ["a0", "a1"], ["b0", "b2"], reg, network="afd", min_community_size=2
        )
        assert lab.labels == {0: "pro", 1: "contra", 2: "other"}
        assert lab.method == "seed-list"
        assert lab.pro_community == 0
        assert lab.contra_community == 1

    def test_unknown_seed_accounts_are_ignored(self, world):
        reg, net, part = world
        lab = label_by_seeds(part, ["a0", "ghost"], ["b0"], reg, min_community_size=2)
        assert lab.pro_community == 0

    def test_no_matching_seed_raises(self, world):
        reg, net, part = world
        with pytest.raises(LabelingError, match="no contra seed matched"):
            label_by_seeds(part, ["a0"], ["ghost"], reg)

    def test_overlapping_seed_sets_raise(self, world):
        reg, net, part = world
        with pytest.raises(LabelingError, match="overlap"):
            label_by_seeds(part, ["a0", "b0"], ["b0"], reg)

    def test_tie_is_not_a_strict_majority(self, world):
        reg, net, part = world
        with pytest.raises(LabelingError, match="strict majority"):
            label_by_seeds(part, ["a0", "b0"], ["b1", "c0"], reg, min_community_size=2)

    def test_both_sides_electing_one_community_raise(self, world):
        reg, net, part = world
        with pytest.raises(LabelingError, match="both pro and contra"):
            label_by_seeds(part, ["a0"], ["a1"], reg, min_community_size=2)

    def test_minimum_size_vetoes_tiny_community(self, world):
        reg, net, part = world
        with pytest.raises(LabelingError, match="minimum"):
            label_by_seeds(part, ["a0"], ["c0", "c1"], reg, min_community_size=5)

    def test_evidence_is_carried(self, world):
        reg, net, part = world
        ev = {cid: tuple(rows) for cid, rows in top_retweeted(net, part, 2, reg).items()}
        lab = label_by_seeds(part, ["a0"], ["b0"], reg, min_community_size=2, evidence=ev)
        assert lab.evidence[0][0] == ("a0", 5)


class TestManualAndOverrides:
    def test_manual_fills_other(self, world):
        reg, net, part = world
        lab = manual_labeling(part, {0: "pro", 1: "contra"}, network="afd")
        assert lab.labels[2] == "other"
        assert lab.method == "manual"

    def test_manual_unknown_community_raises(self, world):
        reg, net, part = world
        with pytest.raises(LabelingError, match="does not exist"):
            manual_labeling(part, {9: "pro"})

    def test_manual_bad_label_raises(self, world):
        reg, net, part = world
        with pytest.raises(LabelingError, match="unknown label"):
            manual_labeling(part, {0: "leftish"})

    def test_duplicate_pro_raises(self, world):
        reg, net, part = world
        with pytest.raises(LabelingError, match="more than one"):
            manual_labeling(part, {0: "pro", 1: "pro"})

    def test_overrides_relabel_and_mark_hybrid(self, world):
        reg, net, part = world
        lab = manual_labeling(part, {0: "pro", 1: "contra"})
        flipped = apply_overrides(lab, {1: "other", 2: "contra"})
        assert flipped.labels == {0: "pro", 1: "other", 2: "contra"}
        assert flipped.method == "hybrid"
        assert lab.labels[1] == "contra"  # original untouched

    def test_override_collision_raises(self, world):
        reg, net, part = world
        lab = manual_labeling(part, {0: "pro", 1: "contra"})
        with pytest.raises(LabelingError, match="more than one"):
            apply_overrides(lab, {2: "pro"})

    def test_override_unknown_community_raises(self, world):
        reg, net, part = world
        lab = manual_labeling(part, {0: "pro"})
        with pytest.raises(LabelingError, match="does not exist"):
            apply_overrides(lab, {7: "contra"})


class TestPartisans:
    def test_partisans_are_pro_community_members(self, world):
        reg, net, part = world
        lab = manual_labeling(part, {0: "pro", 1: "contra"}, network="afd")
        pset = partisans(lab, part)
        assert pset.party == "afd"
        assert pset.accounts == frozenset(
            reg.index_of(a) for a in ("a0", "a1", "a2", "a3", "a4", "a5")
        )

    def test_no_pro_community_raises(self, world):
        reg, net, part = world
        lab = ClusterLabeling(network="afd", labels={0: "other"}, method="manual")
        with pytest.raises(LabelingError, match="no pro community"):
            partisans(lab, part)
