"""Synthetic retweet corpora with planted ground truth.

The generator plants a two-sided (pro/contra) structure in every hashtag
network, assigns long-tailed activity, and emits retweet events whose
targets fall inside the actor's own side with known probability. Partisans
of each party can additionally be planted into the contra side of public
hashtags ("hijacking") at a configurable per-(party, hashtag) rate, which
makes the downstream odds-ratio machinery testable against exact
bookkeeping.

Membership is decided first, events second:

  * a partisan joins a public network at all with probability
    `participation`;
  * a joining partisan becomes a hijacker with probability
    h(party, hashtag); otherwise it places like a native, landing on the
    contra side with the native contra share q and on the pro side with
    1 - q. With h = 0 partisans are indistinguishable from natives and
    the planted membership odds ratio is exactly 1; in general it is
    1 + h / ((1 - h) q), so h = q (r - 1) / (1 + q (r - 1)) plants a
    chosen membership odds ratio r;
  * non-hijackers retweet within their own side with probability
    p_in / (p_in + p_out), across otherwise, picking the target by
    Zipf-weighted attention within the chosen side;
  * a hijacker sits on the contra side and every one of its events
    retweets a uniformly chosen other member of that side.

Each side's member order is shuffled once per corpus, so activity ranks
are independent of whether an account is a native or a planted partisan.

Given a seed the whole corpus is a pure function of the config. The PRNG
algorithm is recorded in GroundTruth so reproducibility claims are scoped
to this implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Iterator, Mapping, Sequence

from .errors import SynthConfigError
from .graph import UndirectedGraph
from .ingest import TweetRecord, normalize_hashtag

PRNG_NAME = "numpy.random.default_rng(PCG64)"

# fixed origin for the synthetic event clock, one event per second
_BASE_TS = datetime(2020, 3, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class PartySpec:
    """One party hashtag: `partisans` pro-side accounts, `contras` critics."""

    name: str
    partisans: int
    contras: int


@dataclass(frozen=True)
class PublicSpec:
    """One public hashtag with native pro/contra populations."""

    name: str
    pro: int
    contra: int


@dataclass(frozen=True)
class ActivitySpec:
    """Long-tail activity model.

    Each cluster gets an event budget of events_per_member * size, split by
    a multinomial over Zipf rank weights r ** -zipf_s and then sorted so
    rank 1 is always the heaviest emitter; with events_per_member >= 1
    every member emits at least once. Targets inside a side are drawn with
    weight r ** -attention_s (defaults to zipf_s), which concentrates
    received retweets on the same low ranks.
    """

    zipf_s: float
    events_per_member: float
    attention_s: float | None = None

    @property
    def target_exponent(self) -> float:
        return self.zipf_s if self.attention_s is None else self.attention_s


@dataclass(frozen=True)
class MixingSpec:
    """Relative odds of within-side vs cross-side retweet targets.

    Events go within-side with probability p_in / (p_in + p_out). The same
    two numbers are exact edge probabilities in planted_partition_graph.
    """

    p_in: float
    p_out: float


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    parties: tuple[PartySpec, ...]
    publics: tuple[PublicSpec, ...]
    activity: ActivitySpec
    mixing: MixingSpec
    hijack: Mapping[tuple[str, str], float] = field(default_factory=dict)
    participation: float = 1.0

    def h(self, party: str, public: str) -> float:
        return self.hijack.get((party, public), 0.0)

    def validate(self) -> None:
        """Reject invalid or statically infeasible configs before emission."""
        if not isinstance(self.seed, int) or self.seed < 0:
            raise SynthConfigError("seed must be a non-negative integer")
        names = [s.name for s in self.parties] + [s.name for s in self.publics]
        for name in names:
            if not isinstance(name, str):
                raise SynthConfigError(f"hashtag name {name!r} is not a string")
        if len(set(names)) != len(names):
            raise SynthConfigError("hashtag names must be distinct")
        for name in names:
            try:
                normalized = normalize_hashtag(name)
            except ValueError as exc:
                raise SynthConfigError(f"bad hashtag name {name!r}: {exc}") from None
            if normalized != name:
                raise SynthConfigError(f"hashtag name {name!r} is not normalized")
        for spec in self.parties:
            if spec.partisans < 0 or spec.contras < 0:
                raise SynthConfigError(f"party {spec.name}: counts must be >= 0")
        for spec in self.publics:
            if spec.pro < 0 or spec.contra < 0:
                raise SynthConfigError(f"public {spec.name}: counts must be >= 0")
        act = self.activity
        if not 0 < act.zipf_s < math.inf:
            raise SynthConfigError("zipf_s must be finite and > 0")
        if act.attention_s is not None and not 0 < act.attention_s < math.inf:
            raise SynthConfigError("attention_s must be finite and > 0")
        if not 0 <= act.events_per_member < math.inf:
            raise SynthConfigError("events_per_member must be finite and >= 0")
        mix = self.mixing
        if not 0.0 <= mix.p_out < mix.p_in <= 1.0:
            raise SynthConfigError("mixing requires 0 <= p_out < p_in <= 1")
        if not 0.0 <= self.participation <= 1.0:
            raise SynthConfigError("participation must lie in [0, 1]")
        party_names = {s.name for s in self.parties}
        public_names = {s.name for s in self.publics}
        for (party, public), h in self.hijack.items():
            if party not in party_names:
                raise SynthConfigError(f"hijack references unknown party {party!r}")
            if public not in public_names:
                raise SynthConfigError(f"hijack references unknown hashtag {public!r}")
            if not 0.0 <= h <= 1.0:
                raise SynthConfigError(f"hijack rate for ({party}, {public}) not in [0, 1]")
        self._check_feasible()

    def _check_feasible(self) -> None:
        # Guarantees every emitted event can find a target under the worst
        # participation outcome, so generation never fails mid-stream.
        act = self.activity
        if act.events_per_member == 0:
            return
        lone_budget = int(round(act.events_per_member))
        cross_possible = self.mixing.p_out > 0
        for spec in self.parties:
            sides = (spec.partisans, spec.contras)
            if not cross_possible:
                for size in sides:
                    if size == 1 and lone_budget > 0:
                        raise SynthConfigError(
                            f"party {spec.name}: side of size 1 with p_out=0 "
                            "has no valid retweet target"
                        )
            elif sum(sides) == 1 and lone_budget > 0:
                raise SynthConfigError(
                    f"party {spec.name}: network of size 1 has no valid target"
                )
        partisans_exist = self.participation > 0 and any(
            s.partisans > 0 for s in self.parties
        )
        for spec in self.publics:
            # with pro natives absent and contra natives present, baseline
            # placement can never land pro
            baseline_pro = spec.pro > 0 or spec.contra == 0
            joins_pro = baseline_pro and partisans_exist and any(
                s.partisans > 0 and self.h(s.name, spec.name) < 1.0
                for s in self.parties
            )
            joins_contra = partisans_exist and any(
                s.partisans > 0 and self.h(s.name, spec.name) > 0.0
                for s in self.parties
            )
            if joins_contra and spec.contra == 0:
                raise SynthConfigError(
                    f"public {spec.name}: hijacking planted but no native "
                    "contra accounts to retweet"
                )
            if lone_budget == 0:
                continue
            if not cross_possible:
                for size, joins, side in (
                    (spec.pro, joins_pro, "pro"),
                    (spec.contra, joins_contra, "contra"),
                ):
                    if size == 1 or (size == 0 and joins):
                        raise SynthConfigError(
                            f"public {spec.name}: {side} side can be a single "
                            "account with p_out=0, no valid target"
                        )
            else:
                natives = spec.pro + spec.contra
                if natives == 1 or (natives == 0 and (joins_pro or joins_contra)):
                    raise SynthConfigError(
                        f"public {spec.name}: network can shrink to a single "
                        "account, no valid target"
                    )

    @classmethod
    def from_dict(cls, obj: Mapping) -> "SynthConfig":
        known = {
            "seed",
            "parties",
            "public_hashtags",
            "activity",
            "mixing",
            "participation",
            "hijack",
        }
        if not isinstance(obj, Mapping):
            raise SynthConfigError("a synth config must be a JSON object")
        unknown = set(obj) - known
        if unknown:
            raise SynthConfigError(f"unknown config keys: {sorted(unknown)}")
        hijack_obj = obj.get("hijack", {})
        if not isinstance(hijack_obj, Mapping) or not all(
            isinstance(targets, Mapping) for targets in hijack_obj.values()
        ):
            raise SynthConfigError("hijack must map each party to an object {public: h}")
        try:
            parties = tuple(
                PartySpec(p["name"], int(p["partisans"]), int(p["contras"]))
                for p in obj.get("parties", [])
            )
            publics = tuple(
                PublicSpec(p["name"], int(p["pro"]), int(p["contra"]))
                for p in obj.get("public_hashtags", [])
            )
            act = obj.get("activity", {})
            activity = ActivitySpec(
                zipf_s=float(act["zipf_s"]),
                events_per_member=float(act["events_per_member"]),
                attention_s=None
                if act.get("attention_s") is None
                else float(act["attention_s"]),
            )
            mix = obj.get("mixing", {})
            mixing = MixingSpec(p_in=float(mix["p_in"]), p_out=float(mix["p_out"]))
            hijack = {
                (party, public): float(h)
                for party, targets in hijack_obj.items()
                for public, h in targets.items()
            }
            config = cls(
                seed=int(obj["seed"]),
                parties=parties,
                publics=publics,
                activity=activity,
                mixing=mixing,
                hijack=hijack,
                participation=float(obj.get("participation", 1.0)),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SynthConfigError(f"malformed synth config: {exc}") from None
        config.validate()
        return config


@dataclass
class GroundTruth:
    """Exact bookkeeping for one generated corpus.

    sides holds the planted membership per hashtag in activity-rank order
    (earlier accounts carry larger activity and attention weights), listing
    all planted accounts whether or not they ended up emitting or
    receiving anything. activity and tables are realized quantities,
    restricted to accounts that actually appear in the hashtag's stream.
    The realized partisan set behind `tables` is each party's planted
    partisans that appear in the party's own stream, which is exactly what
    the analysis pipeline can recover.
    """

    seed: int
    prng: str
    partisans: dict[str, tuple[str, ...]]
    sides: dict[str, dict[str, tuple[str, ...]]]
    activity: dict[str, dict[str, dict[str, int]]]
    tables: dict[str, dict[str, dict[str, int]]]
    event_count: int
    account_count: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "prng": self.prng,
            "event_count": self.event_count,
            "account_count": self.account_count,
            "partisans": {p: list(v) for p, v in self.partisans.items()},
            "sides": {
                tag: {side: list(v) for side, v in planted.items()}
                for tag, planted in self.sides.items()
            },
            "activity": {
                tag: {kind: dict(sorted(v.items())) for kind, v in acts.items()}
                for tag, acts in self.activity.items()
            },
            "tables": self.tables,
        }


def _rank_weights(n: int, exponent: float) -> np.ndarray:
    import numpy as np

    return np.arange(1, n + 1, dtype=np.float64) ** -exponent


def _sorted_multinomial(rng: np.random.Generator, budget: int, n: int, s: float) -> np.ndarray:
    """Event counts per rank, heaviest first by construction.

    When the budget covers the group (budget >= n) every member emits at
    least once, so planted membership and realized appearance coincide;
    the remainder follows the Zipf weights. A smaller budget is allocated
    purely by weight.
    """
    import numpy as np

    weights = _rank_weights(n, s)
    shares = weights / weights.sum()
    if budget >= n:
        counts = rng.multinomial(budget - n, shares) + 1
    else:
        counts = rng.multinomial(budget, shares)
    return np.sort(counts)[::-1]


class _Side:
    """One planted side of one network, ready for target draws."""

    def __init__(self, members: list[str], hijacker: list[bool], offset: int, s: float):
        self.members = members
        self.hijacker = hijacker
        self.offset = offset  # index of members[0] in the network-wide order
        weights = _rank_weights(len(members), s)
        self.cum = weights.cumsum()
        self.total = float(self.cum[-1]) if len(members) else 0.0

    def __len__(self) -> int:
        return len(self.members)

    def draw(self, rng: np.random.Generator, k: int, skip: int | None) -> np.ndarray:
        """k attention-weighted member positions, rejecting position `skip`."""
        u = rng.random(k)
        pos = self.cum.searchsorted(u * self.total, side="right")
        if skip is not None:
            while True:
                bad = pos == skip
                n_bad = int(bad.sum())
                if not n_bad:
                    break
                redo = rng.random(n_bad)
                pos[bad] = self.cum.searchsorted(redo * self.total, side="right")
        return pos + self.offset


def _emit_network(
    tag: str,
    pro: _Side,
    contra: _Side,
    rng: np.random.Generator,
    config: SynthConfig,
    clock: Iterator[int],
    records: list[TweetRecord],
) -> tuple[dict[str, int], dict[str, int]]:
    """Emit all events of one network; returns (made, received) tallies."""
    import numpy as np

    members = pro.members + contra.members
    n = len(members)
    made = np.zeros(n, dtype=np.int64)
    received = np.zeros(n, dtype=np.int64)
    if n == 0:
        return {}, {}
    mix = config.mixing
    p_within = mix.p_in / (mix.p_in + mix.p_out)
    hashtags = frozenset({tag})  # shared by every record of this stream
    epm = config.activity.events_per_member

    for own, other in ((pro, contra), (contra, pro)):
        if len(own) == 0:
            continue
        budget = int(round(epm * len(own)))
        counts = _sorted_multinomial(rng, budget, len(own), config.activity.zipf_s)
        for gpos, cnt in enumerate(counts):
            cnt = int(cnt)
            if cnt == 0:
                continue
            actor_idx = own.offset + gpos
            if own.hijacker[gpos]:
                # hijack events: uniform over the other contra members
                tpos = rng.integers(0, len(own) - 1, size=cnt)
                tpos[tpos >= gpos] += 1
                targets = tpos + own.offset
            else:
                within = rng.random(cnt) < p_within
                if len(own) < 2:
                    within[:] = False
                if len(other) == 0:
                    within[:] = True
                if len(own) < 2 and len(other) == 0:
                    raise SynthConfigError(
                        f"network {tag}: no valid retweet target"
                    )
                targets = np.empty(cnt, dtype=np.int64)
                n_within = int(within.sum())
                if n_within:
                    targets[within] = own.draw(rng, n_within, skip=gpos)
                if cnt - n_within:
                    targets[~within] = other.draw(rng, cnt - n_within, skip=None)
            made[actor_idx] += cnt
            np.add.at(received, targets, 1)
            author = members[actor_idx]
            for t in targets:
                tick = next(clock)
                records.append(
                    TweetRecord(
                        tweet_id=f"t{tick:08d}",
                        author=author,
                        retweeted_author=members[int(t)],
                        hashtags=hashtags,
                        timestamp=_BASE_TS + timedelta(seconds=tick),
                    )
                )
    made_tally = {members[i]: int(made[i]) for i in np.flatnonzero(made)}
    recv_tally = {members[i]: int(received[i]) for i in np.flatnonzero(received)}
    return made_tally, recv_tally


def generate(config: SynthConfig) -> tuple[list[TweetRecord], GroundTruth]:
    """Emit a corpus and its exact bookkeeping; pure function of config."""
    import numpy as np

    config.validate()
    rng = np.random.default_rng(config.seed)

    partisans = {
        spec.name: [f"{spec.name}_p{i:06d}" for i in range(spec.partisans)]
        for spec in config.parties
    }

    # membership stage: which partisans show up where, and on which side
    placements: dict[str, dict[str, list]] = {}
    for spec in config.publics:
        natives = spec.pro + spec.contra
        q = spec.contra / natives if natives else 0.0
        pro_joiners: list[str] = []
        contra_joiners: list[tuple[str, bool]] = []  # (account, is hijacker)
        for party in config.parties:
            accounts = partisans[party.name]
            if not accounts:
                continue
            joins = rng.random(len(accounts)) < config.participation
            hijacks = rng.random(len(accounts)) < config.h(party.name, spec.name)
            native_like = rng.random(len(accounts)) < q
            for account, joined, hijacked, contra_base in zip(
                accounts, joins, hijacks, native_like
            ):
                if not joined:
                    continue
                if hijacked:
                    contra_joiners.append((account, True))
                elif contra_base:
                    contra_joiners.append((account, False))
                else:
                    pro_joiners.append(account)
        placements[spec.name] = {"pro": pro_joiners, "contra": contra_joiners}

    s_att = config.activity.target_exponent

    def arrange(members: list[str], hijacker: list[bool], offset: int) -> _Side:
        # one shuffle per side: activity rank must not encode account kind
        order = rng.permutation(len(members))
        return _Side(
            [members[i] for i in order], [hijacker[i] for i in order], offset, s_att
        )

    sides: dict[str, dict[str, tuple[str, ...]]] = {}
    plans: list[tuple[str, _Side, _Side]] = []
    for spec in config.parties:
        pro = arrange(list(partisans[spec.name]), [False] * spec.partisans, 0)
        contra = arrange(
            [f"{spec.name}_c{i:06d}" for i in range(spec.contras)],
            [False] * spec.contras,
            spec.partisans,
        )
        sides[spec.name] = {"pro": tuple(pro.members), "contra": tuple(contra.members)}
        plans.append((spec.name, pro, contra))
    for spec in config.publics:
        pro_members = [f"{spec.name}_p{i:06d}" for i in range(spec.pro)]
        pro_members += placements[spec.name]["pro"]
        contra_members = [f"{spec.name}_c{i:06d}" for i in range(spec.contra)]
        hijacker = [False] * len(contra_members)
        for account, is_hijacker in placements[spec.name]["contra"]:
            contra_members.append(account)
            hijacker.append(is_hijacker)
        pro = arrange(pro_members, [False] * len(pro_members), 0)
        contra = arrange(contra_members, hijacker, len(pro_members))
        sides[spec.name] = {"pro": tuple(pro.members), "contra": tuple(contra.members)}
        plans.append((spec.name, pro, contra))

    records: list[TweetRecord] = []
    activity: dict[str, dict[str, dict[str, int]]] = {}
    clock = iter(range(10**8))
    for tag, pro, contra in plans:
        made, received = _emit_network(tag, pro, contra, rng, config, clock, records)
        activity[tag] = {"made": made, "received": received}

    tables: dict[str, dict[str, dict[str, int]]] = {}
    for party in config.parties:
        party_appearing = (
            set(activity[party.name]["made"]) | set(activity[party.name]["received"])
        )
        pset = set(partisans[party.name]) & party_appearing
        row: dict[str, dict[str, int]] = {}
        for public in config.publics:
            acts = activity[public.name]
            appearing = set(acts["made"]) | set(acts["received"])
            contra_app = set(sides[public.name]["contra"]) & appearing
            members = pset & appearing
            a = len(members & contra_app)
            c = len(contra_app) - a
            row[public.name] = {
                "a": a,
                "b": len(members) - a,
                "c": c,
                "d": len(appearing) - len(members) - c,
            }
        tables[party.name] = row

    account_count = sum(len(v) for v in partisans.values())
    account_count += sum(s.contras for s in config.parties)
    account_count += sum(s.pro + s.contra for s in config.publics)
    truth = GroundTruth(
        seed=config.seed,
        prng=PRNG_NAME,
        partisans={p: tuple(v) for p, v in partisans.items()},
        sides=sides,
        activity=activity,
        tables=tables,
        event_count=len(records),
        account_count=account_count,
    )
    return records, truth


def planted_partition_graph(
    sizes: Sequence[int], p_in: float, p_out: float, seed: int = 0
) -> tuple[UndirectedGraph, list[int]]:
    """Stochastic block model with known blocks.

    Every within-block pair is an edge with probability p_in, every
    cross-block pair with probability p_out; weights are 1. Returns the
    graph and the planted block label per node.
    """
    import numpy as np

    if not 0.0 <= p_out < p_in <= 1.0:
        raise SynthConfigError("planted partition requires 0 <= p_out < p_in <= 1")
    if any(size < 0 for size in sizes):
        raise SynthConfigError("block sizes must be >= 0")
    membership = [block for block, size in enumerate(sizes) for _ in range(size)]
    n = len(membership)
    rng = np.random.default_rng(seed)
    graph = UndirectedGraph()
    for node in range(n):
        graph.add_node(node)
    for i in range(n):
        draws = rng.random(n - i - 1)
        for off, u in enumerate(draws):
            j = i + 1 + off
            p = p_in if membership[i] == membership[j] else p_out
            if u < p:
                graph.add_edge(i, j, 1.0)
    return graph, membership
