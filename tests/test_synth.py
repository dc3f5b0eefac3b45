import csv
import hashlib
import io
import json
import math
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import json_line, planted_partition_graph, serial_emit_network, synth_records
from hashjack.cli import entrypoint
from hashjack.community import CommunityPartition
from hashjack.errors import SynthConfigError
from hashjack.graph import AccountRegistry, build_networks
from hashjack.ingest import (
    CSV_COLUMNS,
    EventColumns,
    TweetRecord,
    parse_rfc3339,
    read_columns,
    split_streams,
    write_retweets,
)
from hashjack import synth
from hashjack.labeling import ClusterLabeling, PartisanAssignment
from hashjack.odds import contingency
from hashjack.synth import (
    ActivitySpec,
    MixingSpec,
    PartySpec,
    PublicSpec,
    NetworkEvents,
    SynthConfig,
    _Side,
    generate,
    network_columns,
    write_corpus,
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


# sha256 of what `hashjack synth` writes for
# small_config(hijack={("afd", "tide"): 0.2}, participation=0.7)
PINNED_SHA256 = {
    "corpus.jsonl": "461a89fbf982e26efd0b437dd4cf1e57b41e0028253e15fe574c219fdc647df3",
    "corpus.csv": "e1e73fd501e68a6bab2c82101a940ca532cd680a97d9b29497b6c86dfbd80c58",
    "truth.json": "a3541bc62d5c75329e03cc0d56f783ff895a061e2179781436c444d13f695bc4",
}


PINNED_CONFIG = {
    "seed": 3,
    "parties": [{"name": "afd", "partisans": 40, "contras": 15}],
    "public_hashtags": [{"name": "tide", "pro": 60, "contra": 12}],
    "activity": {"zipf_s": 1.1, "events_per_member": 4.0},
    "mixing": {"p_in": 0.9, "p_out": 0.05},
    "hijack": {"afd": {"tide": 0.2}},
    "participation": 0.7,
}


def test_synth_output_bytes_pinned(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(PINNED_CONFIG))
    assert entrypoint(["synth", "--config", str(cfg), "--out", str(tmp_path / "corpus.jsonl"),
                       "--truth", str(tmp_path / "truth.json")]) == 0
    assert entrypoint(["synth", "--config", str(cfg), "--out", str(tmp_path / "corpus.csv"),
                       "--format", "csv"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256}
    assert digests == PINNED_SHA256


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
            (dict(activity=ActivitySpec(1.0, 4.0, attention_s=40.0)), "attention_s 40.0"),
            (dict(activity=ActivitySpec(40.0, 4.0)), "attention_s 40.0"),
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

    @pytest.mark.parametrize("party, public, epm, message", [
        ((10**12, 5), (5, 5), 8.0, "account count 1000000000000 is above 100000000"),
        ((5, synth.MAX_EVENTS + 1), (5, 5), 0.0, "account count 100000001 is above"),
        ((5, 5), (synth.MAX_EVENTS + 1, 5), 0.0, "account count 100000001 is above"),
        ((5, 5), (5, 10**12), 0.0, "account count 1000000000000 is above"),
        ((5 * 10**7, 0), (5 * 10**7, 1), 1.0, "config emits 100000001 events or more"),
        ((3, 3), (3, 3), 10**7, "config emits 120000000 events or more"),
        ((synth.MAX_EVENTS, 5), (5, 5), 0.0, None),
        ((5 * 10**7, 0), (5 * 10**7, 0), 1.0, None),
    ])
    def test_counts_past_the_clock_rejected(self, party, public, epm, message):
        """No account count may exceed the clock's 10**8 ticks, nor may the
        native sides' budgets, round(events_per_member * n) summed: generate
        builds every name list before it counts the events."""
        cfg = SynthConfig(
            seed=0,
            parties=(PartySpec("afd", *party),),
            publics=(PublicSpec("tide", *public),),
            activity=ActivitySpec(1.0, epm),
            mixing=MixingSpec(0.9, 0.1),
        )
        if message is None:
            cfg.validate()
        else:
            with pytest.raises(SynthConfigError, match=message):
                cfg.validate()

    @pytest.mark.parametrize("attention_s, members, ok", [
        (19.9, 2, True), (20.0, 2, False), (20.0, 1000, False), (1e4, 2, False),
        (40.0, 1, True),
    ])
    def test_attention_that_needs_over_a_million_redraws_rejected(
            self, attention_s, members, ok):
        """A side's rank-1 member draws H / (H - 1) times per own-side target,
        H = sum of r ** -attention_s over its ranks: 2**s + 1 for two members.
        A one-member side never draws within itself."""
        cfg = SynthConfig(
            seed=0,
            parties=(PartySpec("afd", members, members),),
            publics=(),
            activity=ActivitySpec(1.0, 4.0, attention_s),
            mixing=MixingSpec(1.0, 0.5),
        )
        if ok:
            cfg.validate()
        else:
            with pytest.raises(SynthConfigError, match=f"{members}-member side"):
                cfg.validate()

    @pytest.mark.parametrize("public, participation, ok", [
        (PublicSpec("tide", 3, 3), 1.0, True),
        (PublicSpec("tide", 1, 3), 1.0, False),  # a partisan may join the lone pro native
        (PublicSpec("tide", 1, 3), 0.0, True),  # none joins: that side never draws within
    ])
    def test_smallest_side_sets_the_redraw_bound(self, public, participation, ok):
        """Just above attention_s = log2(10**6 - 1), a two-member side needs
        more than 10**6 draws and a three-member side does not."""
        cfg = SynthConfig(
            seed=0,
            parties=(PartySpec("afd", 3, 3),),
            publics=(public,),
            activity=ActivitySpec(1.0, 4.0, math.log2(10**6 - 1) + 1e-4),
            mixing=MixingSpec(1.0, 0.5),
            participation=participation,
        )
        if ok:
            cfg.validate()
        else:
            with pytest.raises(SynthConfigError, match="2-member side"):
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

    @pytest.mark.parametrize("path,value", [
        (("seed",), 1.5),
        (("seed",), True),
        (("seed",), "7"),
        (("parties", 0, "partisans"), 12.7),
        (("parties", 0, "contras"), 15.0),
        (("public_hashtags", 0, "pro"), False),
        (("public_hashtags", 0, "contra"), "12"),
    ])
    def test_count_fields_must_be_json_integers(self, path, value):
        obj = json.loads(json.dumps(PINNED_CONFIG))
        *parents, field = path
        node = obj
        for key in parents:
            node = node[key]
        node[field] = value
        with pytest.raises(SynthConfigError, match="must be (an )?integers? >= 0") as info:
            SynthConfig.from_dict(obj)
        assert f"{field} ({value!r})" in str(info.value)


class TestGenerate:
    def test_deterministic_given_seed(self):
        c1, t1 = generate(small_config(hijack={("afd", "tide"): 0.2}))
        c2, t2 = generate(small_config(hijack={("afd", "tide"): 0.2}))
        r1, r2 = synth_records(c1), synth_records(c2)
        assert r1 == r2
        assert t1.to_dict() == t2.to_dict()

    def test_seed_changes_corpus(self):
        r1 = synth_records(generate(small_config(seed=1))[0])
        r2 = synth_records(generate(small_config(seed=2))[0])
        assert r1 != r2

    def test_records_are_well_formed(self):
        corpus, truth = generate(small_config())
        records = synth_records(corpus)
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
        _, truth = generate(cfg)
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


BENCH_SEED_1 = {  # the seed-1 config of the benchmark's quarter scale
    "seed": 1,
    "parties": [
        {"name": "party1", "partisans": 6000, "contras": 1250},
        {"name": "party2", "partisans": 6000, "contras": 1250},
    ],
    "public_hashtags": [{"name": "agenda", "pro": 9000, "contra": 1500}],
    "activity": {"zipf_s": 1.05, "events_per_member": 3.7, "attention_s": 2.2},
    "mixing": {"p_in": 0.95, "p_out": 0.001},
    "participation": 0.8,
    "hijack": {"party1": {"agenda": 0.1}},
}


def emissions(config, emit):
    """generate(config) with `emit` as its network emitter: per network the
    events, both tallies and the rng state after it, then the truth or
    the error."""
    networks = []

    def recorded(tag, pro, contra, rng, cfg):
        events, made, received = emit(tag, pro, contra, rng, cfg)
        networks.append((events.tag, events.author.tolist(), events.retweeted.tolist(),
                         made, received, rng.bit_generator.state))
        return events, made, received

    with mock.patch.object(synth, "_emit_network", recorded):
        try:
            return networks, generate(config)[1].to_dict()
        except (SynthConfigError, ValueError) as exc:
            return networks, repr(exc)


class TestBlockDraws:
    """The block draws of _emit_network against the serial per-actor
    reference: the same events and tallies, and the same rng state after
    every network, so every later draw is the same too."""

    def assert_same(self, config):
        redraws = []
        serial = partial(serial_emit_network, redraws=redraws)
        assert emissions(config, synth._emit_network) == emissions(config, serial)
        return redraws

    def test_bench_seed_1_config(self):
        assert max(self.assert_same(SynthConfig.from_dict(BENCH_SEED_1))) >= 2

    @pytest.mark.parametrize("participation", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("h", [0.0, 0.2, 1.0])
    def test_hijack_rates_and_participation(self, h, participation):
        self.assert_same(small_config(hijack={("afd", "tide"): h}, participation=participation))

    @pytest.mark.parametrize("changes", [
        dict(mixing=MixingSpec(1.0, 0.0)),
        dict(parties=(PartySpec("afd", 2, 2),), publics=(PublicSpec("tide", 2, 2),)),
        dict(parties=(PartySpec("afd", 2, 2),), publics=(PublicSpec("tide", 2, 2),),
             mixing=MixingSpec(1.0, 0.0)),
        dict(activity=ActivitySpec(zipf_s=1.1, events_per_member=0.3)),
    ], ids=["p_out 0 p_in 1", "two-member sides", "two-member sides p_out 0",
            "zero-count actors"])
    def test_edge_configs(self, changes):
        self.assert_same(replace(small_config(hijack={("afd", "tide"): 0.2},
                                              participation=0.7), **changes))

    @pytest.mark.parametrize("zipf_s,attention_s", [(3.0, 8.0), (9.0, 3.0)])
    def test_steep_weights_force_runs_of_redraws(self, zipf_s, attention_s):
        config = replace(small_config(hijack={("afd", "tide"): 0.2}),
                         activity=ActivitySpec(zipf_s, 6.0, attention_s))
        redraws = self.assert_same(config)
        assert max(redraws) >= 3
        assert sum(r > 0 for r in redraws) >= 2

    @settings(max_examples=300, deadline=None)
    @given(
        pro=st.integers(0, 7),
        hijacker=st.lists(st.booleans(), max_size=9),
        s=st.sampled_from([0.5, 2.2, 8.0]),
        epm=st.sampled_from([0.3, 1.0, 4.0, 9.0]),
        mixing=st.sampled_from([MixingSpec(0.9, 0.05), MixingSpec(1.0, 0.0),
                                MixingSpec(0.6, 0.4)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(pro=3, hijacker=[True, False, False, False, True], s=8.0, epm=4.0,
             mixing=MixingSpec(0.9, 0.05), seed=5)
    @example(pro=0, hijacker=[True, False, True], s=2.2, epm=9.0,
             mixing=MixingSpec(1.0, 0.0), seed=1)
    def test_any_two_sides(self, pro, hijacker, s, epm, mixing, seed):
        """Sides built directly, hijackers at any ranks: the first, the
        last, runs of them, none."""
        config = replace(small_config(), activity=ActivitySpec(1.1, epm, s), mixing=mixing)

        def emit(fn):
            rng = np.random.default_rng(seed)
            sides = (_Side([f"tide_p{i:06d}" for i in range(pro)], [False] * pro, 0, s),
                     _Side([f"tide_c{i:06d}" for i in range(len(hijacker))], hijacker, pro, s))
            try:
                events, made, received = fn("tide", *sides, rng, config)
            except (SynthConfigError, ValueError) as exc:
                return repr(exc)
            return (events.author.tolist(), events.retweeted.tolist(), made, received,
                    rng.bit_generator.state)

        assert emit(synth._emit_network) == emit(serial_emit_network)


class TestWriteCorpus:
    """The column writer against the record writers' oracles."""

    @pytest.mark.parametrize("tick,stamp", [
        (0, "2020-03-01T00:00:00Z"),
        (59, "2020-03-01T00:00:59Z"),
        (86_399, "2020-03-01T23:59:59Z"),
        (26_438_400, "2021-01-01T00:00:00Z"),
        (10**8 - 1, "2023-05-02T09:46:39Z"),
    ])
    def test_line_matches_record_oracle(self, tick, stamp):
        moment = datetime(2020, 3, 1, tzinfo=timezone.utc) + timedelta(seconds=tick)
        assert moment == parse_rfc3339(stamp)
        record = TweetRecord(f"t{tick:08d}", "afd_p000007", "afd_c000012",
                             frozenset({"afd"}), moment)
        events = NetworkEvents("afd", ["afd_c000012", "afd_p000007"],
                               np.array([1], dtype=np.int64), np.array([0], dtype=np.int64))
        jsonl, text = io.StringIO(), io.StringIO()
        assert write_retweets([network_columns(events, tick)], jsonl) == 1
        assert jsonl.getvalue() == json_line(record) + "\n"
        assert write_retweets([network_columns(events, tick)], text, "csv") == 1
        rows = io.StringIO()
        writer = csv.writer(rows, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerow([record.tweet_id, record.author, record.retweeted_author, "#afd", stamp])
        assert text.getvalue() == rows.getvalue()

    def test_written_corpus_reads_back_as_its_records(self):
        corpus, truth = generate(small_config(hijack={("afd", "tide"): 0.2}, participation=0.7))
        text = io.StringIO()
        assert write_corpus(corpus, text) == truth.event_count
        columns, rejects = read_columns(text.getvalue())
        assert rejects == []
        records = EventColumns.from_records(synth_records(corpus))
        for name in ("accounts", "tag_sets", "author", "retweeted", "tag_set", "window"):
            assert getattr(columns, name) == getattr(records, name)
        planted = [(events.members[a], events.members[r]) for events in corpus
                   for a, r in zip(events.author.tolist(), events.retweeted.tolist())]
        assert [(columns.accounts[a], columns.accounts[r])
                for a, r in zip(columns.author, columns.retweeted)] == planted


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
        corpus, truth = generate(cfg)
        records = synth_records(corpus)
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
