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

Given a seed the whole corpus is a pure function of the config. Its bytes
rest on the order of draws from one PCG64 stream (named in GroundTruth):
per public hashtag and party, three rng.random(partisans) calls (join,
hijack, native placement); one permutation per side, parties first; then
per network and side, a multinomial for the event counts and, for each
actor by rank, a hijacker's rng.integers call or a non-hijacker's
doubles: cnt for its within/across split, then its own-side targets with
every redraw of one that picked itself, then its other-side targets.
rng.random(a) then rng.random(b) yields the doubles of rng.random(a + b),
so doubles may be fetched in blocks, provided every other call, and the
end of each network, finds exactly as many drawn as this order draws.

The corpus is event columns: per network, in emission order, its tag,
member names and each event's author and retweeted member index. Events
tick once a second from 2020-03-01T00:00:00Z across networks, and the tick
names the tweet (t00000000, ...), so a config that would emit more than
10**8 events is refused before any is drawn. `write_corpus` writes a corpus
as ingest's record writers would write the same events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import IO, Mapping, NamedTuple

from .errors import SynthConfigError
from .ingest import normalize_hashtag, write_retweets

PRNG_NAME = "numpy.random.default_rng(PCG64)"

# fixed origin for the synthetic event clock, one event per second (UTC)
_BASE_TS = "2020-03-01T00:00:00"
# the clock's capacity: ticks, and so tweet ids t%08d, stop at 10**8 - 1
MAX_EVENTS = 10**8
# events formatted per write of a corpus
_CHUNK = 1 << 16


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

    Events go within-side with probability p_in / (p_in + p_out).
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
        # a count is an int, never a bool, a float or a string that casts to one
        if type(self.seed) is not int or self.seed < 0:
            raise SynthConfigError(f"seed ({self.seed!r}) must be an integer >= 0")
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
            if not all(type(n) is int and n >= 0 for n in (spec.partisans, spec.contras)):
                raise SynthConfigError(f"party {spec.name}: partisans ({spec.partisans!r}) "
                                       f"and contras ({spec.contras!r}) must be integers >= 0")
        for spec in self.publics:
            if not all(type(n) is int and n >= 0 for n in (spec.pro, spec.contra)):
                raise SynthConfigError(f"public {spec.name}: pro ({spec.pro!r}) and "
                                       f"contra ({spec.contra!r}) must be integers >= 0")
        # generate names every account before it counts the events, so the
        # clock bounds the counts and the native sides' budgets (below)
        sides = [n for s in self.parties for n in (s.partisans, s.contras)]
        sides += [n for s in self.publics for n in (s.pro, s.contra)]
        if max(sides, default=0) > MAX_EVENTS:
            raise SynthConfigError(f"account count {max(sides)} is above {MAX_EVENTS}, "
                                   "the clock size")
        act = self.activity
        if not 0 < act.zipf_s < math.inf:
            raise SynthConfigError("zipf_s must be finite and > 0")
        if act.attention_s is not None and not 0 < act.attention_s < math.inf:
            raise SynthConfigError("attention_s must be finite and > 0")
        # a member's events must fit the clock; generate's budgets then stay finite
        if not 0 <= act.events_per_member <= MAX_EVENTS:
            raise SynthConfigError(f"events_per_member must be 0 to {MAX_EVENTS}, the clock size")
        # the native sides' budgets, without the partisans joining a public
        # hashtag, are a floor on the events generate emits
        native = sum(int(round(act.events_per_member * n)) for n in sides)
        if native > MAX_EVENTS:
            raise SynthConfigError(f"config emits {native} events or more; the synthetic "
                                   f"clock holds at most {MAX_EVENTS}")
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
        # An n-member side's rank-1 member picks itself with probability 1/H,
        # H = sum of r ** -s over ranks 1..n, and redraws until it does not:
        # H / (H - 1) draws per own-side target, most on the smallest side of
        # two or more. Past rank 64, a tail H - 1 below 1e-6 gains < 1e-35.
        joiners = sum(s.partisans for s in self.parties) if self.participation > 0 else 0
        sizes = [n for s in self.parties for n in (s.partisans, s.contras) if n >= 2]
        sizes += [max(n, 2) for s in self.publics for n in (s.pro, s.contra) if n + joiners >= 2]
        tail = sum(r ** -act.target_exponent for r in range(2, min(sizes + [64]) + 1))
        if sizes and tail * (10**6 - 1) < 1:  # H / (H - 1) > 10**6
            raise SynthConfigError(f"attention_s {act.target_exponent!r} is too steep: the "
                                   f"rank-1 member of a {min(sizes)}-member side would need "
                                   "more than 10**6 draws per own-side retweet")
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
                PartySpec(p["name"], p["partisans"], p["contras"])
                for p in obj.get("parties", [])
            )
            publics = tuple(
                PublicSpec(p["name"], p["pro"], p["contra"])
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
                seed=obj["seed"],
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

    def pick(self, u: np.ndarray) -> np.ndarray:
        """The attention-weighted member position each uniform in u picks."""
        return self.cum.searchsorted(u * self.total, side="right")


class NetworkEvents(NamedTuple):
    """One network's events in emission order: `author` and `retweeted` are
    int64 arrays of indices into `members`."""

    tag: str
    members: list[str]
    author: np.ndarray
    retweeted: np.ndarray


# actors in the first window of a run of non-hijackers; a window without a
# redraw doubles the next and a redraw starts over, which bounds the work
# a redraw discards
_WINDOW = 8


def _side_targets(tag: str, own: _Side, other: _Side, counts: np.ndarray,
                  rng: np.random.Generator, p_within: float) -> list[np.ndarray]:
    """The targets of one side's events in the stream's order (module
    docstring). A window of non-hijackers takes the 2 * cnt doubles each
    actor uses without a redraw; at the first actor that draws itself the
    rest is handed back, and its redraws and other-side draws are taken."""
    import numpy as np

    live = np.flatnonzero(counts)  # the actors that emit, by rank
    cnt = counts[live]
    stops = np.append(np.flatnonzero(np.asarray(own.hijacker, dtype=bool)[live]), len(live))
    out, back, k, window = [], np.zeros(0), 0, _WINDOW
    # a lone own member retweets across, an empty other side within; u < 1
    p_own = 0.0 if len(own.members) < 2 else 1.0 if not other.members else p_within

    def take(n: int) -> np.ndarray:
        # the stream's next n doubles, handed-back ones first, so no double
        # is drawn before the serial loop would draw it
        nonlocal back
        head, back = back[:n], back[n:]
        return np.concatenate((head, rng.random(n - len(head))))

    while k < len(live):
        g = int(live[k])
        if own.hijacker[g]:  # uniform over the other contra members
            tpos = rng.integers(0, len(own.members) - 1, size=int(cnt[k]))
            tpos[tpos >= g] += 1
            out.append(tpos + own.offset)
            k, window = k + 1, _WINDOW
            continue
        if len(own.members) < 2 and not other.members:
            raise SynthConfigError(f"network {tag}: no valid retweet target")
        m = min(k + window, int(stops[stops.searchsorted(k)]))
        c = cnt[k:m]
        before = c.cumsum() - c
        first, size = np.repeat(before, c), np.repeat(c, c)
        rank = np.arange(len(first)) - first  # each event's place in its actor
        u = take(2 * len(first))  # per actor: cnt split doubles, then cnt draws
        within = u[2 * first + rank] < p_own
        wc = np.concatenate(([0], within.cumsum()))
        # within events before each event in its actor, and its actor's total:
        # an actor's own-side draws come first, then its other-side draws
        wb, nw = wc[:-1] - wc[first], wc[first + size] - wc[first]
        draws = u[2 * first + size + np.where(within, wb, nw + rank - wb)]
        local, across = own.pick(draws), ~within
        local[across] = other.pick(draws[across])
        tgt = local + np.where(within, own.offset, other.offset)
        hit = within & (local == np.repeat(live[k:m], c))
        if not hit.any():
            out.append(tgt)
            k, window = m, 2 * window
            continue
        # the first actor that drew itself keeps its split and first own-side
        # draws; the doubles after them are handed back
        a = int(before.searchsorted(hit.argmax(), side="right")) - 1
        s, n, g = int(before[a]), int(c[a]), int(live[k + a])
        w = within[s:s + n]
        pos = local[s:s + n][w]
        back = np.concatenate((u[2 * s + n + len(pos):], back))
        while g in pos:
            bad = pos == g
            pos[bad] = own.pick(take(np.count_nonzero(bad)))
        tgt[s:s + n][w] = pos + own.offset
        tgt[s:s + n][~w] = other.pick(take(n - len(pos))) + other.offset
        out.append(tgt[:s + n])
        k, window = k + a + 1, _WINDOW
    return out


def _emit_network(
    tag: str,
    pro: _Side,
    contra: _Side,
    rng: np.random.Generator,
    config: SynthConfig,
) -> tuple[NetworkEvents, dict[str, int], dict[str, int]]:
    """Emit all events of one network; returns them with the (made,
    received) tallies."""
    import numpy as np

    members = pro.members + contra.members
    mix = config.mixing
    p_within = mix.p_in / (mix.p_in + mix.p_out)
    epm = config.activity.events_per_member
    empty = np.zeros(0, dtype=np.int64)
    made, authors, targets = [empty], [empty], [empty]

    for own, other in ((pro, contra), (contra, pro)):
        n_own = len(own.members)
        if n_own == 0:
            continue
        budget = int(round(epm * n_own))
        counts = _sorted_multinomial(rng, budget, n_own, config.activity.zipf_s)
        made.append(counts)
        authors.append(np.repeat(own.offset + np.arange(n_own), counts))
        targets += _side_targets(tag, own, other, counts, rng, p_within)
    retweeted = np.concatenate(targets)
    received = np.bincount(retweeted, minlength=len(members))
    events = NetworkEvents(tag, members, np.concatenate(authors), retweeted)
    made_tally = {members[i]: c for i, c in enumerate(np.concatenate(made).tolist()) if c}
    recv_tally = {members[i]: c for i, c in enumerate(received.tolist()) if c}
    return events, made_tally, recv_tally


def generate(config: SynthConfig) -> tuple[list[NetworkEvents], GroundTruth]:
    """Emit a corpus, one NetworkEvents per hashtag, and its exact
    bookkeeping; pure function of config."""
    import numpy as np

    config.validate()
    rng = np.random.default_rng(config.seed)

    partisans = {
        spec.name: [f"{spec.name}_p{i:06d}" for i in range(spec.partisans)]
        for spec in config.parties
    }

    # membership stage: which partisans show up where, and on which side;
    # per public hashtag its pro joiners, contra joiners and which of those hijack
    placements: dict[str, tuple[list[str], list[str], list[bool]]] = {}
    for spec in config.publics:
        natives = spec.pro + spec.contra
        q = spec.contra / natives if natives else 0.0
        pro_joiners, contra_joiners, hijackers = [], [], []
        for party in config.parties:
            accounts = partisans[party.name]
            if not accounts:
                continue
            joins = rng.random(len(accounts)) < config.participation
            hijacks = rng.random(len(accounts)) < config.h(party.name, spec.name)
            native_like = rng.random(len(accounts)) < q
            contra = np.flatnonzero(joins & (hijacks | native_like)).tolist()
            pro_joiners += [accounts[i] for i in np.flatnonzero(joins & ~(hijacks | native_like))]
            contra_joiners += [accounts[i] for i in contra]
            hijackers += hijacks[contra].tolist()
        placements[spec.name] = (pro_joiners, contra_joiners, hijackers)

    s_att = config.activity.target_exponent

    def arrange(members: list[str], hijacker: list[bool], offset: int) -> _Side:
        # one shuffle per side: activity rank must not encode account kind
        order = rng.permutation(len(members))
        return _Side(
            [members[i] for i in order], [hijacker[i] for i in order], offset, s_att
        )

    sides: dict[str, dict[str, tuple[str, ...]]] = {}
    plans: list[tuple[str, _Side, _Side]] = []
    # a party network is its partisans (pro) and contras, with no joiners
    networks = [(s.name, s.partisans, s.contras) for s in config.parties]
    for tag, n_pro, n_contra in networks + [(s.name, s.pro, s.contra) for s in config.publics]:
        pro_joiners, contra_joiners, hijackers = placements.get(tag, ([], [], []))
        pro_members = [f"{tag}_p{i:06d}" for i in range(n_pro)] + pro_joiners
        contra_members = [f"{tag}_c{i:06d}" for i in range(n_contra)] + contra_joiners
        pro = arrange(pro_members, [False] * len(pro_members), 0)
        contra = arrange(contra_members, [False] * n_contra + hijackers, len(pro_members))
        sides[tag] = {"pro": tuple(pro.members), "contra": tuple(contra.members)}
        plans.append((tag, pro, contra))

    # every side emits exactly its budget (see _sorted_multinomial)
    epm = config.activity.events_per_member
    budgets = sum(int(round(epm * len(side.members)))
                  for _, pro, contra in plans for side in (pro, contra))
    if budgets > MAX_EVENTS:
        raise SynthConfigError(f"config emits {budgets} events; the synthetic "
                               f"clock holds at most {MAX_EVENTS}")
    corpus: list[NetworkEvents] = []
    activity: dict[str, dict[str, dict[str, int]]] = {}
    for tag, pro, contra in plans:
        events, made, received = _emit_network(tag, pro, contra, rng, config)
        corpus.append(events)
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
        event_count=sum(len(events.author) for events in corpus),
        account_count=account_count,
    )
    return corpus, truth


def network_columns(events: NetworkEvents, first_tick: int, lo: int = 0) -> tuple:
    """Events lo to lo + _CHUNK of a network whose events tick on from
    first_tick, as the (tag, tweet ids, authors, retweeted authors,
    timestamps) columns that ingest.write_retweets writes."""
    import numpy as np

    author, retweeted = events.author[lo:lo + _CHUNK], events.retweeted[lo:lo + _CHUNK]
    ticks = np.arange(first_tick + lo, first_tick + lo + len(author))
    stamps = np.datetime_as_string(np.datetime64(_BASE_TS, "s") + ticks, unit="s")
    name = events.members.__getitem__
    return (events.tag, ["t%08d" % tick for tick in ticks.tolist()],
            list(map(name, author.tolist())), list(map(name, retweeted.tolist())),
            np.char.add(stamps, "Z").tolist())


def write_corpus(corpus: list[NetworkEvents], sink: IO[str], fmt: str = "jsonl") -> int:
    """Write a generated corpus as JSONL or CSV, a chunk of _CHUNK events
    per write, so one chunk's text is the most held; returns the event count."""
    first_ticks = accumulate((len(events.author) for events in corpus), initial=0)
    chunks = (network_columns(events, tick, lo) for events, tick in zip(corpus, first_ticks)
              for lo in range(0, len(events.author), _CHUNK))
    return write_retweets(chunks, sink, fmt)
