from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import Interner, record_network
from hashjack.community import CommunityPartition
from hashjack.ingest import TweetRecord
from hashjack.labeling import ClusterLabeling, PartisanAssignment
from hashjack.metrics import (
    BASIS_ACCOUNTS,
    BASIS_VOLUME,
    cluster_composition,
    concentration,
    polarisation,
    polarisation_shift,
)

TS = datetime(2020, 3, 1, tzinfo=timezone.utc)


def rt(tid, author, target, tag="tide"):
    return TweetRecord(
        tweet_id=tid,
        author=author,
        retweeted_author=target,
        hashtags=frozenset({tag}),
        timestamp=TS,
    )


@pytest.fixture()
def world():
    """Pro cluster {p0,p1,p2} makes 4 retweets, contra {c0,c1} makes 2,
    other {o0,o1} makes 0 (o0 retweets nothing, o1 only receives)."""
    interned = Interner()
    records = [
        rt("t0", "p1", "p0"),
        rt("t1", "p2", "p0"),
        rt("t2", "p1", "p2"),
        rt("t3", "p2", "p1"),
        rt("t4", "c1", "c0"),
        rt("t5", "c0", "o1"),
    ]
    net = record_network(records, interned, "tide")
    net.nodes.add(interned("o0"))
    reg = interned.registry()
    assignment = {}
    for a in ("p0", "p1", "p2"):
        assignment[reg.index_of(a)] = 0
    for a in ("c0", "c1"):
        assignment[reg.index_of(a)] = 1
    for a in ("o0", "o1"):
        assignment[reg.index_of(a)] = 2
    part = CommunityPartition(
        assignment=assignment, modularity=0.3, resolution=1.0, seed=42, levels=1
    )
    lab = ClusterLabeling(
        network="tide", labels={0: "pro", 1: "contra", 2: "other"}, method="manual"
    )
    return reg, net, part, lab


class TestPolarisation:
    def test_volume_basis(self, world):
        reg, net, part, lab = world
        prof = polarisation(net, part, lab, BASIS_VOLUME)
        assert prof.total == 6
        assert prof.share_pro == pytest.approx(4 / 6)
        assert prof.share_contra == pytest.approx(2 / 6)
        assert prof.share_other == pytest.approx(0.0)

    def test_account_basis(self, world):
        reg, net, part, lab = world
        prof = polarisation(net, part, lab, BASIS_ACCOUNTS)
        assert prof.total == 7
        assert prof.share_pro == pytest.approx(3 / 7)
        assert prof.share_contra == pytest.approx(2 / 7)
        assert prof.share_other == pytest.approx(2 / 7)

    def test_shares_sum_to_one(self, world):
        reg, net, part, lab = world
        for basis in (BASIS_VOLUME, BASIS_ACCOUNTS):
            prof = polarisation(net, part, lab, basis)
            assert prof.share_pro + prof.share_contra + prof.share_other == pytest.approx(1.0)

    def test_polarised_only_renormalizes(self, world):
        reg, net, part, lab = world
        prof = polarisation(net, part, lab, BASIS_ACCOUNTS)
        pro, contra = prof.polarised_only()
        assert pro == pytest.approx(3 / 5)
        assert contra == pytest.approx(2 / 5)
        d = prof.to_dict()
        assert d["network"] == "#tide"
        assert d["share_pro_excl_other"] == pytest.approx(3 / 5)

    def test_unknown_basis_raises(self, world):
        reg, net, part, lab = world
        with pytest.raises(ValueError, match="unknown basis"):
            polarisation(net, part, lab, "likes")

    def test_all_other_network_has_no_polarised_mass(self, world):
        reg, net, part, _ = world
        lab = ClusterLabeling(
            network="tide", labels={0: "other", 1: "other", 2: "other"}, method="manual"
        )
        prof = polarisation(net, part, lab, BASIS_ACCOUNTS)
        assert prof.polarised_only() is None
        assert prof.to_dict()["share_pro_excl_other"] is None


class TestShift:
    def test_stable_within_threshold(self, world):
        reg, net, part, lab = world
        a = polarisation(net, part, lab, BASIS_VOLUME)
        shift = polarisation_shift(a, a, threshold=0.05)
        assert shift["stable"] is True
        assert shift["delta_share_contra"] == pytest.approx(0.0)

    def test_shift_detects_motion(self, world):
        reg, net, part, lab = world
        a = polarisation(net, part, lab, BASIS_ACCOUNTS)
        b = polarisation(net, part, lab, BASIS_VOLUME)
        with pytest.raises(ValueError, match="different bases"):
            polarisation_shift(a, b)


class TestComposition:
    def test_shares_and_top_counts(self, world):
        reg, net, part, lab = world
        cluster = part.members(1) | part.members(2)  # c0 c1 o0 o1
        psets = {
            "afd": PartisanAssignment("afd", frozenset([reg.index_of("c0")])),
            "spd": PartisanAssignment(
                "spd", frozenset([reg.index_of("c1"), reg.index_of("o1")])
            ),
        }
        comp = cluster_composition(cluster, psets, net, top_k=2, registry=reg)
        assert comp.cluster_size == 4
        assert comp.shares == {"afd": 0.25, "spd": 0.5}
        assert comp.remainder_share == pytest.approx(0.25)
        # activity made within net: c0=1, c1=1, o0=0, o1=0; ties by id
        assert [a for a, _ in comp.top_accounts] == ["c0", "c1"]
        assert comp.top_counts == {"afd": 1, "spd": 1}
        assert not comp.truncated
        d = comp.to_dict()
        assert d["shares"] == {"#afd": 0.25, "#spd": 0.5}

    def test_small_cluster_is_truncated(self, world):
        reg, net, part, lab = world
        comp = cluster_composition(
            part.members(0),
            {"afd": PartisanAssignment("afd", frozenset([reg.index_of("p0")]))},
            net,
            top_k=10,
            registry=reg,
        )
        assert comp.truncated
        assert len(comp.top_accounts) == 3

    def test_empty_cluster_raises(self, world):
        reg, net, part, lab = world
        with pytest.raises(ValueError, match="empty"):
            cluster_composition(set(), {}, net, top_k=1, registry=reg)

    def test_bad_top_k_raises(self, world):
        reg, net, part, lab = world
        with pytest.raises(ValueError, match="top_k"):
            cluster_composition(part.members(0), {}, net, top_k=0, registry=reg)


class TestConcentration:
    def test_exact_toy_curve(self, world):
        reg, net, part, lab = world
        # activity made+received: p0=2, p1=3, p2=3 -> ranked p1(3), p2(3), p0(2)
        group = PartisanAssignment(
            "tide", frozenset(reg.index_of(a) for a in ("p0", "p1", "p2"))
        )
        curve = concentration(group, [net], [1 / 3, 2 / 3, 1.0], reg)
        assert curve.total_activity == 8
        assert dict(curve.points)[1 / 3] == pytest.approx(3 / 8)
        assert dict(curve.points)[2 / 3] == pytest.approx(6 / 8)
        assert dict(curve.points)[1.0] == pytest.approx(1.0)

    def test_point_one_is_always_included(self, world):
        reg, net, part, lab = world
        group = PartisanAssignment("tide", frozenset([reg.index_of("p1")]))
        curve = concentration(group, [net], [0.5], reg)
        assert curve.points[-1] == (1.0, 1.0)

    def test_activity_sums_over_networks(self, world):
        reg, net, part, lab = world
        group = PartisanAssignment("tide", frozenset([reg.index_of("p1")]))
        doubled = concentration(group, [net, net], [1.0], reg)
        assert doubled.total_activity == 6

    def test_fraction_bounds(self, world):
        reg, net, part, lab = world
        group = PartisanAssignment("tide", frozenset([reg.index_of("p1")]))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="fractions"):
                concentration(group, [net], [bad], reg)

    def test_empty_group_raises(self, world):
        reg, net, part, lab = world
        with pytest.raises(ValueError, match="empty"):
            concentration(PartisanAssignment("x", frozenset()), [net], [1.0], reg)

    def test_inactive_group_raises(self, world):
        reg, net, part, lab = world
        group = PartisanAssignment("tide", frozenset([reg.index_of("o0")]))
        with pytest.raises(ValueError, match="no activity"):
            concentration(group, [net], [1.0], reg)


class TestConcentrationProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=30).filter(
            lambda xs: sum(xs) > 0
        ),
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=1, max_size=6
        ),
    )
    def test_curve_monotone_and_bounded(self, made_counts, fractions):
        interned = Interner()
        records = [
            rt(f"t{i}-{k}", f"m{i}", "hub")
            for i, n in enumerate(made_counts)
            for k in range(n)
        ]
        net = record_network(records, interned, "tide")
        group = PartisanAssignment(
            "tide", frozenset(interned(f"m{i}") for i in range(len(made_counts)))
        )
        curve = concentration(group, [net], fractions, interned.registry())
        qs = [q for q, _ in curve.points]
        shares = [s for _, s in curve.points]
        assert qs == sorted(qs)
        assert all(a <= b + 1e-12 for a, b in zip(shares, shares[1:]))
        assert all(0.0 < s <= 1.0 + 1e-12 for s in shares)
        assert curve.points[-1][1] == pytest.approx(1.0)
