import math

import pytest

from hashjack.community import CommunityPartition
from hashjack.errors import SynthConfigError
from hashjack.graph import AccountRegistry, build_networks
from hashjack.ingest import split_streams
from hashjack.labeling import ClusterLabeling, PartisanAssignment
from hashjack.odds import contingency
from hashjack.synth import (
    ActivitySpec,
    MixingSpec,
    PartySpec,
    PublicSpec,
    SynthConfig,
    generate,
    planted_partition_graph,
)


def small_config(seed=3, hijack=None, participation=1.0):
    return SynthConfig(
        seed=seed,
        parties=(PartySpec("afd", 40, 15),),
        publics=(PublicSpec("tide", 60, 12),),
        activity=ActivitySpec(zipf_s=1.1, events_per_member=4.0),
        mixing=MixingSpec(p_in=0.9, p_out=0.05),
        hijack=hijack or {},
        participation=participation,
    )


class TestConfigValidation:
    def test_valid_config_passes(self):
        small_config().validate()

    def test_duplicate_names_rejected(self):
        cfg = SynthConfig(
            seed=0,
            parties=(PartySpec("afd", 5, 5),),
            publics=(PublicSpec("afd", 5, 5),),
            activity=ActivitySpec(1.0, 2.0),
            mixing=MixingSpec(0.9, 0.1),
        )
        with pytest.raises(SynthConfigError, match="distinct"):
            cfg.validate()

    def test_unnormalized_name_rejected(self):
        cfg = SynthConfig(
            seed=0,
            parties=(PartySpec("AfD", 5, 5),),
            publics=(),
            activity=ActivitySpec(1.0, 2.0),
            mixing=MixingSpec(0.9, 0.1),
        )
        with pytest.raises(SynthConfigError, match="not normalized"):
            cfg.validate()

    @pytest.mark.parametrize(
        "patch,message",
        [
            (dict(seed=-1), "seed"),
            (dict(activity=ActivitySpec(0.0, 2.0)), "zipf_s"),
            (dict(activity=ActivitySpec(1.0, 2.0, attention_s=-2.0)), "attention_s"),
            (dict(activity=ActivitySpec(1.0, -1.0)), "events_per_member"),
            (dict(activity=ActivitySpec(math.nan, 2.0)), "zipf_s"),
            (dict(activity=ActivitySpec(math.inf, 2.0)), "zipf_s"),
            (dict(activity=ActivitySpec(1.0, 2.0, attention_s=math.nan)), "attention_s"),
            (dict(activity=ActivitySpec(1.0, 2.0, attention_s=math.inf)), "attention_s"),
            (dict(activity=ActivitySpec(1.0, math.nan)), "events_per_member"),
            (dict(activity=ActivitySpec(1.0, math.inf)), "events_per_member"),
            (dict(mixing=MixingSpec(0.1, 0.9)), "mixing"),
            (dict(participation=1.5), "participation"),
            (dict(hijack={("ghost", "tide"): 0.1}), "unknown party"),
            (dict(hijack={("afd", "ghost"): 0.1}), "unknown hashtag"),
            (dict(hijack={("afd", "tide"): 1.0001}), "not in"),
        ],
    )
    def test_bad_fields_rejected(self, patch, message):
        base = small_config()
        cfg = SynthConfig(
            seed=patch.get("seed", base.seed),
            parties=base.parties,
            publics=base.publics,
            activity=patch.get("activity", base.activity),
            mixing=patch.get("mixing", base.mixing),
            hijack=patch.get("hijack", base.hijack),
            participation=patch.get("participation", base.participation),
        )
        with pytest.raises(SynthConfigError, match=message):
            cfg.validate()

    def test_lone_account_side_without_crossing_rejected(self):
        cfg = SynthConfig(
            seed=0,
            parties=(PartySpec("afd", 1, 8),),
            publics=(),
            activity=ActivitySpec(1.0, 2.0),
            mixing=MixingSpec(0.9, 0.0),
        )
        with pytest.raises(SynthConfigError, match="p_out=0"):
            cfg.validate()

    def test_hijack_without_native_contras_rejected(self):
        cfg = SynthConfig(
            seed=0,
            parties=(PartySpec("afd", 10, 5),),
            publics=(PublicSpec("tide", 20, 0),),
            activity=ActivitySpec(1.0, 2.0),
            mixing=MixingSpec(0.9, 0.1),
            hijack={("afd", "tide"): 0.3},
        )
        with pytest.raises(SynthConfigError, match="no native"):
            cfg.validate()

    def test_unknown_keys_rejected(self):
        obj = {
            "seed": 3,
            "parties": [{"name": "afd", "partisans": 40, "contras": 15}],
            "public_hashtags": [{"name": "tide", "pro": 60, "contra": 12}],
            "activity": {"zipf_s": 1.1, "events_per_member": 4.0},
            "mixing": {"p_in": 0.9, "p_out": 0.05},
            "virality": 2,
        }
        with pytest.raises(SynthConfigError, match="unknown config keys"):
            SynthConfig.from_dict(obj)

    def test_malformed_config_rejected(self):
        with pytest.raises(SynthConfigError, match="malformed"):
            SynthConfig.from_dict({"seed": 1, "activity": {}})


class TestGenerate:
    def test_deterministic_given_seed(self):
        r1, t1 = generate(small_config(hijack={("afd", "tide"): 0.2}))
        r2, t2 = generate(small_config(hijack={("afd", "tide"): 0.2}))
        assert r1 == r2
        assert t1.to_dict() == t2.to_dict()

    def test_seed_changes_corpus(self):
        r1, _ = generate(small_config(seed=1))
        r2, _ = generate(small_config(seed=2))
        assert r1 != r2

    def test_records_are_well_formed(self):
        records, truth = generate(small_config())
        assert len(records) == truth.event_count
        ids = {r.tweet_id for r in records}
        assert len(ids) == len(records)
        for r in records:
            assert r.retweeted_author is not None
            assert r.author != r.retweeted_author
            assert len(r.hashtags) == 1
        stamps = [r.timestamp for r in records]
        assert stamps == sorted(stamps)

    def test_event_count_matches_budgets(self):
        cfg = small_config()
        records, truth = generate(cfg)
        epm = cfg.activity.events_per_member
        expected = 0
        for tag, planted in truth.sides.items():
            for side in ("pro", "contra"):
                expected += int(round(epm * len(planted[side])))
        assert truth.event_count == expected

    def test_every_planted_account_appears(self):
        # events_per_member >= 1 floors each member at one emission
        cfg = small_config(hijack={("afd", "tide"): 0.3}, participation=0.7)
        _, truth = generate(cfg)
        for tag, planted in truth.sides.items():
            acts = truth.activity[tag]
            appearing = set(acts["made"]) | set(acts["received"])
            planted_all = set(planted["pro"]) | set(planted["contra"])
            assert planted_all == appearing

    def test_sides_listed_in_activity_rank_order(self):
        _, truth = generate(small_config())
        for tag, planted in truth.sides.items():
            made = truth.activity[tag]["made"]
            for side in ("pro", "contra"):
                counts = [made.get(a, 0) for a in planted[side]]
                assert counts == sorted(counts, reverse=True)

    def test_full_hijack_places_all_joiners_contra(self):
        cfg = small_config(hijack={("afd", "tide"): 1.0})
        _, truth = generate(cfg)
        planted_contra = set(truth.sides["tide"]["contra"])
        assert set(truth.partisans["afd"]) <= planted_contra

    def test_zero_participation_keeps_partisans_out(self):
        cfg = small_config(participation=0.0)
        _, truth = generate(cfg)
        members = set(truth.sides["tide"]["pro"]) | set(truth.sides["tide"]["contra"])
        assert not members & set(truth.partisans["afd"])


class TestAnalyzerAgreement:
    """The pipeline's arithmetic must reproduce the generator's bookkeeping."""

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_contingency_matches_planted_tables_exactly(self, seed):
        cfg = SynthConfig(
            seed=seed,
            parties=(PartySpec("afd", 50, 20), PartySpec("spd", 30, 10)),
            publics=(PublicSpec("tide", 80, 25), PublicSpec("strike", 40, 15)),
            activity=ActivitySpec(zipf_s=1.2, events_per_member=5.0),
            mixing=MixingSpec(p_in=0.9, p_out=0.05),
            hijack={("afd", "tide"): 0.3, ("spd", "strike"): 0.15},
            participation=0.8,
        )
        records, truth = generate(cfg)
        tracked = [s.name for s in cfg.parties] + [s.name for s in cfg.publics]
        streams, dropped = split_streams(records, tracked)
        assert dropped == 0
        nets, registry = build_networks(streams)

        def planted_partition(tag):
            assignment = {}
            for cid, side in enumerate(("pro", "contra")):
                for account in truth.sides[tag][side]:
                    if account in registry:
                        idx = registry.index_of(account)
                        if idx in nets[tag].nodes:
                            assignment[idx] = cid
            part = CommunityPartition(
                assignment=assignment, modularity=0.0, resolution=1.0, seed=0, levels=0
            )
            lab = ClusterLabeling(
                network=tag, labels={0: "pro", 1: "contra"}, method="manual"
            )
            return part, lab

        for party in cfg.parties:
            acts = truth.activity[party.name]
            appear_party = set(acts["made"]) | set(acts["received"])
            pset = PartisanAssignment(
                party=party.name,
                accounts=frozenset(
                    registry.index_of(a)
                    for a in truth.partisans[party.name]
                    if a in appear_party
                ),
            )
            for public in cfg.publics:
                part, lab = planted_partition(public.name)
                table = contingency(pset, nets[public.name], part, lab)
                want = truth.tables[party.name][public.name]
                assert table.a == want["a"]
                assert table.b == want["b"]
                assert table.c == want["c"]
                assert table.d == want["d"]


class TestPlantedPartitionGraph:
    def test_membership_matches_sizes(self):
        g, blocks = planted_partition_graph([3, 4], 1.0, 0.0, seed=1)
        assert blocks == [0, 0, 0, 1, 1, 1, 1]
        assert set(g.nodes) == set(range(7))

    def test_extreme_probabilities_are_exact(self):
        g, blocks = planted_partition_graph([3, 4], 1.0, 0.0, seed=5)
        for i in range(7):
            for j in range(i + 1, 7):
                expected = 1.0 if blocks[i] == blocks[j] else 0.0
                assert g.edge_weight(i, j) == expected

    def test_deterministic(self):
        a, _ = planted_partition_graph([10, 10], 0.5, 0.1, seed=3)
        b, _ = planted_partition_graph([10, 10], 0.5, 0.1, seed=3)
        assert {v: a.neighbors(v) for v in a.nodes} == {
            v: b.neighbors(v) for v in b.nodes
        }

    def test_bad_probabilities_rejected(self):
        with pytest.raises(SynthConfigError):
            planted_partition_graph([5, 5], 0.1, 0.5)
        with pytest.raises(SynthConfigError):
            planted_partition_graph([5, -1], 0.5, 0.1)
