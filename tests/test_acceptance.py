"""Acceptance gate: nine go/no-go checks over the whole toolchain.

Each test prints one `criterion N: PASS|FAIL (detail)` line through the
`criterion` fixture and asserts the same condition, so the suite fails
loudly and the summary stays readable. Planted-target configs carry their
calibration arithmetic in comments next to the numbers.
"""

import io
import json
import math
import random
import resource
import time

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    adjusted_rand_index,
    blocks_to_assignment,
    planted_partition_graph,
    set_partitions,
    UndirectedGraph,
)
from hashjack.cli import entrypoint
from hashjack.community import _total_weight, louvain, modularity
from hashjack.graph import (
    AccountRegistry,
    build_network,
    event_rows,
    network_obj,
    undirected_projection,
)
from hashjack.ingest import TweetRecord, read_columns
from hashjack.labeling import ClusterLabeling, PartisanAssignment, label_by_seeds, partisans
from hashjack.metrics import (
    cluster_composition,
    concentration,
    polarisation,
)
from hashjack.odds import (
    ContingencyTable2x2,
    estimate_cell,
    fit_logistic_counts,
    hashjack_matrix,
    odds_ratio,
)
from hashjack.community import CommunityPartition
from hashjack.synth import (
    ActivitySpec,
    MixingSpec,
    PartySpec,
    PublicSpec,
    SynthConfig,
    generate,
    write_corpus,
)
from hashjack.store import load_json, network_from_obj

BARBELL_Q = 6.0 / 7.0 - 0.5


def stage_networks(text, tracked):
    """The networks and registry of a corpus text as the ingest and build
    stages make them: read_columns, index_pairs and event_rows (ingest's
    store rows), then network_obj (build) and network_from_obj."""
    columns, rejects = read_columns(io.StringIO(text), "jsonl")
    assert not rejects
    accounts, pairs = columns.index_pairs(tracked)
    nets = {tag: network_from_obj(network_obj(tag, event_rows(tag_pairs)))
            for tag, tag_pairs in pairs.items()}
    return nets, AccountRegistry(accounts)


def run_chain(cfg, resolution=0.5, seed_count=10):
    """generate -> write -> the stage path to networks -> louvain -> seed
    labeling, per network."""
    corpus, truth = generate(cfg)
    text = io.StringIO()
    write_corpus(corpus, text)
    tracked = [s.name for s in cfg.parties] + [s.name for s in cfg.publics]
    nets, registry = stage_networks(text.getvalue(), tracked)
    parts, labs = {}, {}
    for tag, net in nets.items():
        part = louvain(undirected_projection(net), resolution=resolution, seed=42)
        labs[tag] = label_by_seeds(
            part,
            truth.sides[tag]["pro"][:seed_count],
            truth.sides[tag]["contra"][:seed_count],
            registry,
            network=tag,
        )
        parts[tag] = part
    return truth, nets, registry, parts, labs


def test_criterion_1_barbell_oracle(criterion):
    g_edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    g = UndirectedGraph()
    for i, j in g_edges:
        g.add_edge(i, j, 1.0)
    graph = g.compact()

    t0 = time.perf_counter()
    part = louvain(graph)
    found = sorted(tuple(sorted(m)) for m in part.communities().values())
    best_q = max(
        modularity(graph, blocks_to_assignment(blocks))
        for blocks in set_partitions(list(range(6)))
    )
    elapsed = time.perf_counter() - t0

    ok = (
        found == [(0, 1, 2), (3, 4, 5)]
        and abs(part.modularity - BARBELL_Q) < 1e-12
        and abs(best_q - BARBELL_Q) < 1e-12
        and elapsed < 1.0
    )
    assert criterion(
        1,
        ok,
        f"two-triangle split, Q={part.modularity:.12f} vs 6/7-1/2, "
        f"203-partition optimum matches, {elapsed:.2f}s",
    )


def test_criterion_2_louvain_quality(criterion):
    agree = 0
    monotone = True
    scores = []
    for seed in range(20):
        g, planted = planted_partition_graph([50, 50, 50, 50], 0.3, 0.01, seed=seed)
        part = louvain(g.compact(), seed=42)
        ari = adjusted_rand_index(part.assignment, dict(enumerate(planted)))
        scores.append(ari)
        agree += ari >= 0.95
        levels = part.level_modularity
        monotone &= all(b >= a - 1e-12 for a, b in zip(levels, levels[1:]))
    ok = agree >= 18 and monotone
    assert criterion(
        2,
        ok,
        f"planted-block ARI>=0.95 in {agree}/20 (min {min(scores):.3f}), "
        f"level modularity monotone in all: {monotone}",
    )


def test_criterion_3_logistic_or_equivalence(criterion):
    rng = random.Random(0)
    worst = 0.0
    checked = 0
    for _ in range(100):
        a, b, c, d = (rng.randint(1, 500) for _ in range(4))
        fit = fit_logistic_counts(ContingencyTable2x2(a, b, c, d))
        gap = abs(fit.beta1 - math.log(a * d / (b * c)))
        worst = max(worst, gap)
        checked += fit.converged and gap < 1e-6

    sep_fit = fit_logistic_counts(ContingencyTable2x2(10, 0, 4, 40))
    sep_cell_flagged = sep_fit.separation and not sep_fit.converged and math.isnan(
        sep_fit.beta1
    )

    ok = checked == 100 and sep_cell_flagged
    assert criterion(
        3,
        ok,
        f"{checked}/100 tables with |beta1 - ln(ad/bc)| < 1e-6 "
        f"(worst {worst:.2e}), separation flagged: {sep_cell_flagged}",
    )


def test_criterion_4_planted_hijack_recovery(criterion):
    # q = 450/5700 = 3/38, h = 0.24 -> planted membership OR
    # 1 + h/((1-h)q) = 1 + 0.24/0.06 = 5.0 exactly; 10,000 accounts.
    def hijack_cfg(seed):
        return SynthConfig(
            seed=seed,
            parties=(PartySpec("party1", 3500, 800),),
            publics=(PublicSpec("agenda", 5250, 450),),
            activity=ActivitySpec(zipf_s=1.05, events_per_member=8, attention_s=2.2),
            mixing=MixingSpec(p_in=0.95, p_out=0.001),
            hijack={("party1", "agenda"): 0.24},
            participation=0.8,
        )

    hits = 0
    estimates = []
    for seed in range(20):
        truth, nets, registry, parts, labs = run_chain(hijack_cfg(seed))
        pset = partisans(labs["party1"], parts["party1"])
        cell = estimate_cell(pset, nets["agenda"], parts["agenda"], labs["agenda"])
        estimates.append(cell.odds_ratio)
        hits += (4.25 <= cell.odds_ratio <= 5.75) and (
            cell.ci_low <= 5.0 <= cell.ci_high
        )

    null_cfg = SynthConfig(
        seed=12,
        parties=tuple(PartySpec(f"party{i}", 300, 100) for i in range(1, 11)),
        publics=(PublicSpec("agenda", 700, 60), PublicSpec("tide", 700, 60)),
        activity=ActivitySpec(zipf_s=1.05, events_per_member=8, attention_s=2.2),
        mixing=MixingSpec(p_in=0.95, p_out=0.001),
        hijack={},
        participation=0.8,
    )
    truth, nets, registry, parts, labs = run_chain(null_cfg)
    psets = {s.name: partisans(labs[s.name], parts[s.name]) for s in null_cfg.parties}
    targets = {
        s.name: (nets[s.name], parts[s.name], labs[s.name]) for s in null_cfg.publics
    }
    cells = hashjack_matrix(psets, targets)
    null_cover = sum(
        1
        for c in cells
        if c.ci_low is not None and c.ci_low <= 1.0 <= c.ci_high
    )

    ok = hits >= 18 and null_cover >= 18
    assert criterion(
        4,
        ok,
        f"planted OR=5.0: estimate in [4.25,5.75] with CI covering 5.0 in "
        f"{hits}/20 seeds (mean {sum(estimates)/20:.2f}); "
        f"null CIs cover 1.0 in {null_cover}/{len(cells)} cells",
    )


def test_criterion_5_composition_share(criterion):
    # q = 500/5500; 4000 partisans at participation 0.8 -> 3200 joiners.
    # Expected party1 members of the contra cluster x = 3200h + 3200(1-h)q;
    # x/(500+x) = 0.42 at h = 0.0245.
    cfg = SynthConfig(
        seed=4,
        parties=(PartySpec("party1", 4000, 900),),
        publics=(PublicSpec("agenda", 5000, 500),),
        activity=ActivitySpec(zipf_s=1.05, events_per_member=8, attention_s=2.2),
        mixing=MixingSpec(p_in=0.95, p_out=0.001),
        hijack={("party1", "agenda"): 0.0245},
        participation=0.8,
    )
    truth, nets, registry, parts, labs = run_chain(cfg)
    pset = partisans(labs["party1"], parts["party1"])
    cluster = parts["agenda"].members(labs["agenda"].contra_community)
    comp = cluster_composition(
        cluster, {"party1": pset}, nets["agenda"], top_k=100, registry=registry
    )
    share = comp.shares["party1"]

    # brute-force recount of partisans among the 100 most active members
    net = nets["agenda"]
    ranked = sorted(cluster, key=lambda n: (-net.made(n), registry.id_of(n)))
    recount = sum(1 for n in ranked[:100] if n in pset.accounts)

    ok = abs(share - 0.42) <= 0.02 and recount == comp.top_counts["party1"]
    assert criterion(
        5,
        ok,
        f"contra-cluster party share {share:.4f} vs 0.42 "
        f"({abs(share - 0.42) * 100:.2f} points off), "
        f"top-100 recount {recount} == reported {comp.top_counts['party1']}",
    )


def test_criterion_6_concentration_calibration(criterion):
    # Single-party corpus; grid-calibrated exponents. Realized shares for
    # this config: top-1% ~ 0.389, top-10% ~ 0.528 against targets
    # (0.39, 0.50); the 10% point sits ~0.03 above target, the closest this
    # two-exponent family gets. The hard check is exactness vs brute force.
    cfg = SynthConfig(
        seed=5,
        parties=(PartySpec("party1", 4000, 1000),),
        publics=(),
        activity=ActivitySpec(zipf_s=0.05, events_per_member=24, attention_s=1.28),
        mixing=MixingSpec(p_in=0.95, p_out=0.001),
    )
    truth, nets, registry, parts, labs = run_chain(cfg)
    pset = partisans(labs["party1"], parts["party1"])
    curve = concentration(pset, [nets["party1"]], (0.01, 0.10), registry)
    pts = dict(curve.points)

    # independent brute force: rank by made+received, ties by account id
    net = nets["party1"]
    activity = {n: net.made(n) + net.received(n) for n in pset.accounts}
    ranked = sorted(activity, key=lambda n: (-activity[n], registry.id_of(n)))
    total = sum(activity.values())
    brute = {}
    for q in (0.01, 0.10, 1.0):
        head = math.ceil(q * len(ranked))
        brute[q] = sum(activity[n] for n in ranked[:head]) / total

    exact = all(pts[q] == brute[q] for q in (0.01, 0.10, 1.0))
    calibrated = abs(pts[0.01] - 0.39) <= 0.05 and abs(pts[0.10] - 0.50) <= 0.05
    ok = exact and calibrated
    assert criterion(
        6,
        ok,
        f"top-1% {pts[0.01]:.4f} (target 0.39), top-10% {pts[0.10]:.4f} "
        f"(target 0.50), pipeline == brute force exactly: {exact}",
    )


def test_criterion_7_end_to_end_determinism(criterion, tmp_path):
    cfg = {
        "seed": 11,
        "parties": [
            {"name": "party1", "partisans": 120, "contras": 40},
            {"name": "party2", "partisans": 100, "contras": 30},
        ],
        "public_hashtags": [{"name": "agenda", "pro": 200, "contra": 30}],
        "activity": {"zipf_s": 1.05, "events_per_member": 8, "attention_s": 2.0},
        "mixing": {"p_in": 0.95, "p_out": 0.001},
        "participation": 0.8,
        "hijack": {"party1": {"agenda": 0.25}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    corpus = tmp_path / "corpus.jsonl"
    truth_path = tmp_path / "truth.json"
    assert (
        entrypoint(
            ["synth", "--config", str(cfg_path), "--out", str(corpus), "--truth", str(truth_path)]
        )
        == 0
    )
    truth = load_json(truth_path)
    labels = [
        {
            "network": tag,
            "seeds": {
                "pro": truth["sides"][tag]["pro"][:5],
                "contra": truth["sides"][tag]["contra"][:5],
            },
        }
        for tag in ("party1", "party2", "agenda")
    ]
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(labels))

    def drive(run_dir):
        argv = [
            "pipeline", "ingest", "build", "communities", "label",
            "polarisation", "odds", "activity", "report",
            "--input", str(corpus),
            "--tracked", "party1,party2,agenda",
            "--resolution", "0.5",
            "--labels", str(labels_path),
            "--targets", "agenda",
            "--run-dir", str(run_dir),
        ]
        assert entrypoint(argv) == 0

    drive(tmp_path / "runA")
    drive(tmp_path / "runB")
    same = {
        name: (tmp_path / "runA" / name).read_bytes()
        == (tmp_path / "runB" / name).read_bytes()
        for name in ("report.json", "fig1.csv", "fig3a.csv", "fig3b.csv")
    }
    ok = all(same.values())
    assert criterion(
        7,
        ok,
        "report.json and figure CSVs byte-identical across two runs"
        if ok
        else f"differs: {[n for n, s in same.items() if not s]}",
    )


def test_criterion_8_scale(criterion):
    cfg = SynthConfig(
        seed=2,
        parties=(PartySpec("party1", 24000, 5000), PartySpec("party2", 24000, 5000)),
        publics=(PublicSpec("agenda", 36000, 6000),),
        activity=ActivitySpec(zipf_s=1.05, events_per_member=3.7, attention_s=2.2),
        mixing=MixingSpec(p_in=0.95, p_out=0.001),
        hijack={("party1", "agenda"): 0.1},
        participation=0.8,
    )
    corpus, truth = generate(cfg)
    assert truth.account_count == 100_000
    assert truth.event_count >= 500_000
    buf = io.StringIO()
    write_corpus(corpus, buf)
    text = buf.getvalue()
    del corpus, buf

    t0 = time.perf_counter()
    nets, registry = stage_networks(text, ["party1", "party2", "agenda"])
    parts, labs = {}, {}
    for tag, net in nets.items():
        parts[tag] = louvain(undirected_projection(net), resolution=0.5, seed=42)
        labs[tag] = label_by_seeds(
            parts[tag],
            truth.sides[tag]["pro"][:10],
            truth.sides[tag]["contra"][:10],
            registry,
            network=tag,
        )
    psets = {t: partisans(labs[t], parts[t]) for t in ("party1", "party2")}
    for tag in nets:
        polarisation(nets[tag], parts[tag], labs[tag])
    estimate_cell(psets["party1"], nets["agenda"], parts["agenda"], labs["agenda"])
    contra = parts["agenda"].members(labs["agenda"].contra_community)
    cluster_composition(contra, psets, nets["agenda"], 100, registry)
    for t in ("party1", "party2"):
        concentration(psets[t], list(nets.values()), (0.01, 0.1, 0.25, 0.5, 1.0), registry)
    elapsed = time.perf_counter() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 / 1024

    ok = elapsed < 60.0 and peak_gb < 2.0
    assert criterion(
        8,
        ok,
        f"{truth.event_count} events / {truth.account_count} accounts: "
        f"ingest+build+cluster+metrics {elapsed:.1f}s (< 60), "
        f"peak rss {peak_gb:.2f} GB (< 2)",
    )


# -- criterion 9: invariant suites at 1000 generated cases each ------------

CASES = 1000


def _records_strategy():
    edge = st.tuples(
        st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=14)
    ).filter(lambda p: p[0] != p[1])
    return st.lists(edge, min_size=1, max_size=30)


@settings(max_examples=CASES, deadline=None)
@given(_records_strategy())
def _graph_tally_invariant(pairs):
    from datetime import datetime, timezone

    ts = datetime(2020, 3, 1, tzinfo=timezone.utc)
    records = [
        TweetRecord(
            tweet_id=f"t{i}",
            author=f"u{a}",
            retweeted_author=f"u{b}",
            hashtags=frozenset({"x"}),
            timestamp=ts,
        )
        for i, (a, b) in enumerate(pairs)
    ]
    reg = AccountRegistry()
    net = build_network(records, reg, "x")
    retweets = sum(w for _, _, w in net.edges)
    assert sum(net.retweets_made.values()) == retweets == len(pairs)
    assert sum(net.retweets_received.values()) == retweets
    assert len({(i, j) for i, j, _ in net.edges}) == len(net.edges)
    proj = undirected_projection(net)
    assert _total_weight(proj) == pytest.approx(retweets)


_cells = st.integers(min_value=1, max_value=400)


@settings(max_examples=CASES, deadline=None)
@given(st.tuples(_cells, _cells, _cells, _cells), st.integers(min_value=2, max_value=12))
def _or_row_scaling_invariant(cells, k):
    a, b, c, d = cells
    base = odds_ratio(ContingencyTable2x2(a, b, c, d)).value
    scaled = odds_ratio(ContingencyTable2x2(a * k, b * k, c, d)).value
    assert scaled == pytest.approx(base, rel=1e-9)


@settings(max_examples=CASES, deadline=None)
@given(st.tuples(_cells, _cells, _cells, _cells))
def _or_exchange_symmetry(cells):
    a, b, c, d = cells
    forward = odds_ratio(ContingencyTable2x2(a, b, c, d)).value
    rows_swapped = odds_ratio(ContingencyTable2x2(c, d, a, b)).value
    cols_swapped = odds_ratio(ContingencyTable2x2(b, a, d, c)).value
    assert forward * rows_swapped == pytest.approx(1.0, rel=1e-9)
    assert forward * cols_swapped == pytest.approx(1.0, rel=1e-9)


@settings(max_examples=CASES, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=2)),
        min_size=2,
        max_size=12,
    ).filter(lambda rows: len({a for a, _ in rows}) >= 2)
)
def _polarisation_shares_sum_to_one(rows):
    from datetime import datetime, timezone

    ts = datetime(2020, 3, 1, tzinfo=timezone.utc)
    reg = AccountRegistry()
    authors = sorted({a for a, _ in rows})
    records = []
    for i, author in enumerate(authors[1:], start=1):
        records.append(
            TweetRecord(
                tweet_id=f"t{i}",
                author=f"u{author}",
                retweeted_author=f"u{authors[0]}",
                hashtags=frozenset({"x"}),
                timestamp=ts,
            )
        )
    net = build_network(records, reg, "x")
    labels_by_author = {a: lab for a, lab in rows}
    assignment = {reg.index_of(f"u{a}"): labels_by_author[a] for a in authors}
    part = CommunityPartition(
        assignment=assignment, modularity=0.0, resolution=1.0, seed=0, levels=0
    )
    lab = ClusterLabeling(
        network="x", labels={0: "pro", 1: "contra", 2: "other"}, method="manual"
    )
    for basis in ("retweet-volume", "account-count"):
        prof = polarisation(net, part, lab, basis)
        assert prof.share_pro + prof.share_contra + prof.share_other == pytest.approx(1.0)


@settings(max_examples=CASES, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=25).filter(
        lambda xs: sum(xs) > 0
    ),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=5),
)
def _concentration_monotone(made_counts, fractions):
    from datetime import datetime, timezone

    ts = datetime(2020, 3, 1, tzinfo=timezone.utc)
    reg = AccountRegistry()
    records = []
    tid = 0
    for i, n in enumerate(made_counts):
        for _ in range(n):
            records.append(
                TweetRecord(
                    tweet_id=f"t{tid}",
                    author=f"m{i}",
                    retweeted_author="hub",
                    hashtags=frozenset({"x"}),
                    timestamp=ts,
                )
            )
            tid += 1
    net = build_network(records, reg, "x")
    group = PartisanAssignment(
        "x", frozenset(reg.intern(f"m{i}") for i in range(len(made_counts)))
    )
    curve = concentration(group, [net], fractions, reg)
    shares = [s for _, s in curve.points]
    assert all(x <= y + 1e-12 for x, y in zip(shares, shares[1:]))
    assert curve.points[-1] == (1.0, pytest.approx(1.0))


def test_criterion_9_invariant_suites(criterion):
    suites = [
        ("graph tallies", _graph_tally_invariant),
        ("OR row scaling", _or_row_scaling_invariant),
        ("OR exchange symmetry", _or_exchange_symmetry),
        ("polarisation shares", _polarisation_shares_sum_to_one),
        ("concentration monotone", _concentration_monotone),
    ]
    failed = []
    for name, suite in suites:
        try:
            suite()
        except BaseException as exc:  # hypothesis raises the falsifying failure
            failed.append(f"{name}: {type(exc).__name__}")
    ok = not failed
    assert criterion(
        9,
        ok,
        f"5 invariant suites x {CASES} cases each"
        + ("" if ok else f"; failed {failed}"),
    )
