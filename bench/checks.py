"""Checks of hashjack's run-directory artifacts, computed apart from the program.

Nothing here imports hashjack. Every check reads the files a run left in
its run directory (default output locations), recomputes the expected
values from first principles with the standard library and numpy, and
returns a list of problems; an empty list means the artifact is correct.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODULARITY_TOL = 1e-9
FLOAT_TOL = 1e-12
MIN_AGREEMENT = 0.99
LABEL_REPORT_TOP = 50  # accounts per community in `label report` (the CLI default)
GEXF_NS = "{http://www.gexf.net/1.2draft}"


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _tag(text: str) -> str:
    return text.strip().lower().lstrip("#")


def _close(a: float, b: float, tol: float = FLOAT_TOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


@dataclass
class Recount:
    """Per-hashtag nodes and (retweeter, retweeted) weights from the raw corpus."""

    records: int = 0
    nodes: dict[str, set[str]] = field(default_factory=dict)
    edges: dict[str, Counter] = field(default_factory=dict)


def recount_corpus(path: Path) -> Recount:
    """Plain recount of a corpus in which every line is a valid event."""
    recount = Recount()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            event = json.loads(line)
            recount.records += 1
            author, target = event["author"], event.get("retweeted_author")
            for raw in event["hashtags"]:
                tag = _tag(raw)
                nodes = recount.nodes.setdefault(tag, set())
                nodes.add(author)
                if target is not None:
                    nodes.add(target)
                    recount.edges.setdefault(tag, Counter())[(author, target)] += 1
    return recount


class Run:
    """Lazy reader of one run directory's artifacts, in account-id terms."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self._cache: dict = {}

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    @property
    def accounts(self) -> list[str]:
        return self._memo("registry", lambda: _load(self.root / "networks/registry.json")["accounts"])

    @property
    def index(self) -> dict[str, int]:
        return self._memo("index", lambda: {a: i for i, a in enumerate(self.accounts)})

    def network_tags(self) -> list[str]:
        return sorted(p.stem for p in (self.root / "networks").glob("*.json")
                      if p.name != "registry.json")

    def network(self, tag: str) -> dict:
        return self._memo(("net", tag), lambda: _load(self.root / f"networks/{tag}.json"))

    def arrays(self, tag: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(node indices, edge sources, edge targets, edge weights)."""
        def make():
            net = self.network(tag)
            edges = np.asarray(net["edges"], dtype=np.int64).reshape(-1, 3)
            return (np.asarray(net["nodes"], dtype=np.int64),
                    edges[:, 0], edges[:, 1], edges[:, 2].astype(np.float64))
        return self._memo(("arrays", tag), make)

    def partition(self, tag: str) -> dict:
        return self._memo(("part", tag), lambda: _load(self.root / f"partitions/{tag}.json"))

    def labeling(self, tag: str) -> dict[int, str]:
        def make():
            obj = _load(self.root / f"labels/{tag}.json")
            return {int(cid): label for cid, label in obj["labels"].items()}
        return self._memo(("labels", tag), make)

    def labeled_tags(self) -> list[str]:
        return sorted(p.stem for p in (self.root / "labels").glob("*.json"))

    def cluster(self, tag: str, label: str) -> set[str]:
        """Accounts of the community labeled `label` in network `tag`."""
        cids = {cid for cid, lab in self.labeling(tag).items() if lab == label}
        return {a for a, cid in self.partition(tag)["assignment"].items() if cid in cids}

    def node_ids(self, tag: str) -> set[str]:
        accounts = self.accounts
        return {accounts[i] for i in self.network(tag)["nodes"]}

    def volumes(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """Retweets made and received per registry index in network `tag`."""
        _, src, dst, w = self.arrays(tag)
        n = len(self.accounts)
        return np.bincount(src, w, minlength=n), np.bincount(dst, w, minlength=n)


def check_stats(run: Run, records: int, rejects: int) -> list[str]:
    stats = _load(run.root / "store/stats.json")
    problems = []
    if stats["record_count"] != records:
        problems.append(f"stats: record_count {stats['record_count']} != generated {records}")
    if stats["reject_count"] != rejects:
        problems.append(f"stats: reject_count {stats['reject_count']} != injected {rejects}")
    return problems


def check_networks(run: Run, recount: Recount) -> list[str]:
    """Edge weights, distinct pairs and nodes equal the raw-corpus recount."""
    problems = []
    if run.network_tags() != sorted(recount.nodes):
        problems.append(f"networks: built {run.network_tags()}, corpus has {sorted(recount.nodes)}")
        return problems
    accounts = run.accounts
    for tag in run.network_tags():
        net = run.network(tag)
        edges = Counter()
        for i, j, w in net["edges"]:
            edges[(accounts[i], accounts[j])] += w
        expected = recount.edges.get(tag, Counter())
        if len(net["edges"]) != len(expected):
            problems.append(f"#{tag}: {len(net['edges'])} distinct pairs, recount {len(expected)}")
        if edges != expected:
            wrong = sum(1 for pair in set(edges) | set(expected) if edges[pair] != expected[pair])
            problems.append(f"#{tag}: {wrong} edge weights differ from the recount")
        if run.node_ids(tag) != recount.nodes[tag]:
            problems.append(f"#{tag}: node set differs from the recount")
    return problems


def modularity(run: Run, tag: str) -> float:
    """Weighted modularity of the stored partition on the symmetrized network."""
    nodes, src, dst, w = run.arrays(tag)
    index = run.index
    part = run.partition(tag)
    comm = np.full(len(index), -1, dtype=np.int64)
    for account, cid in part["assignment"].items():
        comm[index[account]] = cid
    m = w.sum()
    strength = np.bincount(src, w, minlength=len(index)) + np.bincount(dst, w, minlength=len(index))
    sums = np.bincount(comm[nodes], strength[nodes])
    inside = w[comm[src] == comm[dst]].sum()
    return float(inside / m - part["resolution"] * np.sum((sums / (2 * m)) ** 2))


def check_modularity(run: Run) -> list[str]:
    problems = []
    for tag in run.network_tags():
        part = run.partition(tag)
        if set(part["assignment"]) != run.node_ids(tag):
            problems.append(f"#{tag}: partition does not cover exactly the network's nodes")
            continue
        q = modularity(run, tag)
        if abs(q - part["modularity"]) > MODULARITY_TOL:
            problems.append(f"#{tag}: stored modularity {part['modularity']!r}, recomputed {q!r}")
    return problems


def check_labels(run: Run, sides: dict[str, dict[str, list[str]]]) -> list[str]:
    """Labeled pro/contra agree with the planted sides on >= 99% of accounts."""
    problems = []
    agree = total = 0
    for tag in run.labeled_tags():
        labels = run.labeling(tag)
        for label in ("pro", "contra"):
            if list(labels.values()).count(label) != 1:
                problems.append(f"#{tag}: {list(labels.values()).count(label)} {label} communities")
        planted = {a: side for side, accounts in sides[tag].items() for a in accounts}
        for account, cid in run.partition(tag)["assignment"].items():
            total += 1
            agree += labels[cid] == planted.get(account)
    if not total or agree < MIN_AGREEMENT * total:
        problems.append(f"labels agree with the planted sides on {agree} of {total} accounts")
    return problems


def _contingency(run: Run, party: str, target: str) -> tuple[int, int, int, int]:
    """(a, b, c, d): partisans of `party` in and out of `target`'s contra community."""
    partisans = run.cluster(party, "pro")
    present = run.node_ids(target)
    contra = run.cluster(target, "contra")
    members = partisans & present
    a = len(members & contra)
    c = len(contra) - a
    return a, len(members) - a, c, len(present) - len(members) - c


def odds_closed_form(a: int, b: int, c: int, d: int) -> tuple[float, float, float]:
    """Odds ratio and log-normal 95% CI, Haldane-corrected when a cell is 0."""
    shift = 0.5 if 0 in (a, b, c, d) else 0.0
    a, b, c, d = (x + shift for x in (a, b, c, d))
    value = a * d / (b * c)
    half = 1.96 * math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    return value, math.exp(math.log(value) - half), math.exp(math.log(value) + half)


def check_odds(run: Run) -> list[str]:
    """Cells equal a recount from partitions and labels; OR equals its closed form."""
    odds = _load(run.root / "odds.json")
    targets = [_tag(t) for t in odds["targets"]]
    parties = [tag for tag in run.labeled_tags() if tag not in targets]
    problems = []
    rows = {(_tag(r["party"]), _tag(r["target"])): r for r in odds["rows"]}
    if set(rows) != {(p, t) for p in parties for t in targets}:
        return [f"odds: rows {sorted(rows)} for parties {parties} x targets {targets}"]
    for (party, target), row in sorted(rows.items()):
        cells = _contingency(run, party, target)
        if tuple(row.get(k) for k in "abcd") != cells:
            problems.append(f"odds #{party}->#{target}: cells {[row.get(k) for k in 'abcd']}, recount {list(cells)}")
            continue
        value, low, high = odds_closed_form(*cells)
        for key, expected in (("or", value), ("ci_low", low), ("ci_high", high)):
            if not _close(row[key], expected):
                problems.append(f"odds #{party}->#{target}: {key} {row[key]!r}, closed form {expected!r}")
        if ("haldane" in row["flags"]) != (0 in cells):
            problems.append(f"odds #{party}->#{target}: haldane flag {row['flags']} for cells {cells}")
    return problems


def check_polarisation(run: Run) -> list[str]:
    """Pro/contra/other shares by volume and by accounts, recounted by brute force."""
    profiles = {(_tag(r["network"]), r["basis"]): r
                for r in _load(run.root / "polarisation.json")["profiles"]}
    problems = []
    if set(profiles) != {(t, b) for t in run.labeled_tags()
                         for b in ("retweet-volume", "account-count")}:
        return [f"polarisation: profiles {sorted(profiles)}"]
    index = run.index
    for tag in run.labeled_tags():
        made, _ = run.volumes(tag)
        labels = run.labeling(tag)
        mass = {"retweet-volume": Counter(), "account-count": Counter()}
        for account, cid in run.partition(tag)["assignment"].items():
            mass["retweet-volume"][labels[cid]] += int(made[index[account]])
            mass["account-count"][labels[cid]] += 1
        for basis, counts in mass.items():
            row = profiles[(tag, basis)]
            total = sum(counts.values())
            if row["total"] != total:
                problems.append(f"polarisation #{tag} {basis}: total {row['total']}, recount {total}")
            for label in ("pro", "contra", "other"):
                if not _close(row[f"share_{label}"], counts[label] / total):
                    problems.append(f"polarisation #{tag} {basis}: share_{label} {row[f'share_{label}']!r}, recount {counts[label] / total!r}")
    return problems


def check_activity(run: Run) -> list[str]:
    """Concentration points of each party's partisans, recounted by brute force."""
    obj = _load(run.root / "activity.json")
    targets = [_tag(t) for t in _load(run.root / "odds.json")["targets"]]
    parties = [tag for tag in run.labeled_tags() if tag not in targets]
    curves = {_tag(c["group"]): c for c in obj["curves"]}
    if sorted(curves) != parties:
        return [f"activity: curves for {sorted(curves)}, parties {parties}"]
    activity = np.zeros(len(run.accounts))
    for tag in run.network_tags():
        made, received = run.volumes(tag)
        activity += made + received
    index = run.index
    fractions = sorted(set(obj["fractions"]) | {1.0})
    problems = []
    for party in parties:
        members = run.cluster(party, "pro")
        ranked = sorted(members, key=lambda a: (-activity[index[a]], a))
        cumulative = np.cumsum([activity[index[a]] for a in ranked])
        total = cumulative[-1]
        expected = [[q, float(cumulative[math.ceil(q * len(ranked)) - 1] / total)]
                    for q in fractions]
        curve = curves[party]
        if curve["total_activity"] != total:
            problems.append(f"activity #{party}: total {curve['total_activity']}, recount {total}")
        if len(curve["points"]) != len(expected) or not all(
            p[0] == e[0] and _close(p[1], e[1]) for p, e in zip(curve["points"], expected)
        ):
            problems.append(f"activity #{party}: points {curve['points']}, recount {expected}")
    return problems


def check_gexf(path: Path, run: Run, tag: str) -> list[str]:
    """The GEXF parses; nodes, edges and cluster attributes match the run."""
    try:
        doc = ET.parse(path).getroot()
    except (ET.ParseError, OSError) as exc:
        return [f"gexf: {exc}"]
    graph = doc.find(f"{GEXF_NS}graph")
    attr_ids = {a.get("title"): a.get("id") for a in graph.iter(f"{GEXF_NS}attribute")}
    cluster_id = attr_ids.get("cluster")
    clusters = {}
    for node in graph.find(f"{GEXF_NS}nodes"):
        values = {v.get("for"): v.get("value") for v in node.iter(f"{GEXF_NS}attvalue")}
        clusters[node.get("id")] = int(values[cluster_id]) if cluster_id in values else None
    problems = []
    assignment = run.partition(tag)["assignment"]
    if set(clusters) != run.node_ids(tag):
        problems.append(f"gexf: {len(clusters)} nodes, network has {len(run.node_ids(tag))}")
    elif clusters != assignment:
        problems.append("gexf: cluster attributes differ from the partition")
    accounts = run.accounts
    expected = Counter({(accounts[i], accounts[j]): w for i, j, w in run.network(tag)["edges"]})
    edges = Counter()
    for edge in graph.find(f"{GEXF_NS}edges"):
        edges[(edge.get("source"), edge.get("target"))] += int(edge.get("weight"))
    if edges != expected:
        problems.append(f"gexf: {sum(1 for k in set(edges) | set(expected) if edges[k] != expected[k])} edges differ from the network")
    return problems


def check_label_report(text: str, run: Run, tag: str) -> list[str]:
    """Every community is listed with its size and its most retweeted members."""
    index = run.index
    _, received = run.volumes(tag)
    members: dict[int, list[str]] = {}
    for account, cid in run.partition(tag)["assignment"].items():
        members.setdefault(cid, []).append(account)
    listed: dict[int, list[tuple[int, str]]] = {}
    sizes: dict[int, int] = {}
    current = None
    for line in text.splitlines()[1:]:
        if line.startswith("community "):
            head, size = line.split(" (")
            current = int(head.split()[1])
            sizes[current] = int(size.split()[0])
            listed[current] = []
        else:
            count, account = line.split()
            listed[current].append((int(count), account))
    problems = []
    if sizes != {cid: len(accounts) for cid, accounts in members.items()}:
        problems.append(f"label report #{tag}: community sizes differ from the partition")
        return problems
    for cid, rows in listed.items():
        expected = sorted(((int(received[index[a]]), a) for a in members[cid]),
                          key=lambda row: (-row[0], row[1]))[:len(rows)]
        if rows != expected or len(rows) != min(LABEL_REPORT_TOP, len(members[cid])):
            problems.append(f"label report #{tag}: community {cid} top accounts differ from the recount")
    return problems


def check_report_equal(run: Run, reference: bytes) -> list[str]:
    """Incremental must equal cold: report.json is byte-equal to a fresh run's."""
    if (run.root / "report.json").read_bytes() != reference:
        return ["report.json differs from the from-scratch run with the same labels"]
    return []
