"""Descriptive polarisation statistics.

Three families: the pro/contra share of each network (by retweet volume or
by account count), the composition of a target cluster in terms of partisan
membership and its most active retweeters, and activity-concentration
curves showing how much of a partisan group's retweet activity is carried
by its heaviest users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .community import CommunityPartition
from .graph import AccountRegistry, RetweetNetwork
from .labeling import CONTRA, PRO, ClusterLabeling, PartisanAssignment

BASIS_VOLUME = "retweet-volume"
BASIS_ACCOUNTS = "account-count"


@dataclass(frozen=True)
class PolarisationProfile:
    """Share of a network attributable to the pro/contra/other communities."""

    network: str
    basis: str
    share_pro: float
    share_contra: float
    share_other: float
    total: int  # retweet events or accounts, depending on basis

    def polarised_only(self) -> tuple[float, float] | None:
        """(pro, contra) renormalized without the other share, if defined."""
        mass = self.share_pro + self.share_contra
        if mass <= 0:
            return None
        return self.share_pro / mass, self.share_contra / mass

    def to_dict(self) -> dict:
        row = {
            "network": "#" + self.network,
            "basis": self.basis,
            "share_pro": self.share_pro,
            "share_contra": self.share_contra,
            "share_other": self.share_other,
            "total": self.total,
        }
        polarised = self.polarised_only()
        row["share_pro_excl_other"] = None if polarised is None else polarised[0]
        row["share_contra_excl_other"] = None if polarised is None else polarised[1]
        return row


def polarisation(
    net: RetweetNetwork,
    partition: CommunityPartition,
    labeling: ClusterLabeling,
    basis: str = BASIS_VOLUME,
) -> PolarisationProfile:
    """Pro/contra/other shares of one network.

    Volume basis: each retweet event counts toward the label of the cluster
    containing its retweeter. Account basis: every account counts once.
    """
    if basis not in (BASIS_VOLUME, BASIS_ACCOUNTS):
        raise ValueError(f"unknown basis: {basis!r}")
    mass = {PRO: 0, CONTRA: 0, "other": 0}
    for node in net.nodes:
        label = labeling.labels[partition.assignment[node]]
        mass[label] += net.made(node) if basis == BASIS_VOLUME else 1
    total = sum(mass.values())
    if total == 0:
        raise ValueError(f"network #{net.hashtag} has no mass under basis {basis}")
    return PolarisationProfile(
        network=net.hashtag,
        basis=basis,
        share_pro=mass[PRO] / total,
        share_contra=mass[CONTRA] / total,
        share_other=mass["other"] / total,
        total=total,
    )


def polarisation_shift(
    earlier: PolarisationProfile, later: PolarisationProfile, threshold: float = 0.05
) -> dict:
    """Change between two observation windows of the same network.

    `stable` means the contra share moved by at most `threshold`, the
    operational reading of "did not change significantly".
    """
    if earlier.basis != later.basis:
        raise ValueError("profiles use different bases")
    delta_contra = later.share_contra - earlier.share_contra
    return {
        "network": "#" + later.network,
        "basis": later.basis,
        "delta_share_pro": later.share_pro - earlier.share_pro,
        "delta_share_contra": delta_contra,
        "threshold": threshold,
        "stable": abs(delta_contra) <= threshold,
    }


@dataclass(frozen=True)
class CompositionReport:
    """Partisan make-up of one cluster plus its most active retweeters."""

    cluster_size: int
    shares: dict[str, float]  # party -> member share of the cluster
    remainder_share: float  # accounts in no partisan set
    top_k: int
    top_counts: dict[str, int]  # party -> partisans among the top-k
    top_accounts: tuple[tuple[str, int], ...]  # (account id, retweets made)
    truncated: bool

    def to_dict(self) -> dict:
        return {
            "cluster_size": self.cluster_size,
            "shares": {"#" + p: s for p, s in sorted(self.shares.items())},
            "remainder_share": self.remainder_share,
            "top_k": self.top_k,
            "top_counts": {"#" + p: c for p, c in sorted(self.top_counts.items())},
            "top_accounts": [list(row) for row in self.top_accounts],
            "truncated": self.truncated,
        }


def cluster_composition(
    cluster: Iterable[int],
    partisan_sets: Mapping[str, PartisanAssignment],
    net: RetweetNetwork,
    top_k: int,
    registry: AccountRegistry,
) -> CompositionReport:
    """Per-party member shares of a cluster and partisan counts in its top-k.

    Activity for the top-k ranking is retweets made within the target
    network, ties broken by account id. A cluster smaller than top_k is
    reported whole and marked truncated.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    members = set(cluster)
    if not members:
        raise ValueError("cluster is empty")

    shares = {}
    covered: set[int] = set()
    for party, assignment in partisan_sets.items():
        hits = members & assignment.accounts
        shares[party] = len(hits) / len(members)
        covered |= hits

    ranked = sorted(members, key=lambda node: (-net.made(node), registry.id_of(node)))
    truncated = len(ranked) < top_k
    head = ranked[:top_k]
    top_counts = {
        party: len(set(head) & assignment.accounts)
        for party, assignment in partisan_sets.items()
    }
    return CompositionReport(
        cluster_size=len(members),
        shares=shares,
        remainder_share=len(members - covered) / len(members),
        top_k=top_k,
        top_counts=top_counts,
        top_accounts=tuple((registry.id_of(node), net.made(node)) for node in head),
        truncated=truncated,
    )


@dataclass(frozen=True)
class ConcentrationCurve:
    """Share of a group's activity carried by its top-q most active members."""

    group: str
    points: tuple[tuple[float, float], ...]  # (top fraction q, activity share)
    basis: str = "made+received"
    total_activity: int = 0

    def to_dict(self) -> dict:
        return {
            "group": "#" + self.group,
            "basis": self.basis,
            "total_activity": self.total_activity,
            "points": [list(p) for p in self.points],
        }


def concentration(
    group: PartisanAssignment,
    nets: Iterable[RetweetNetwork],
    fractions: Sequence[float],
    registry: AccountRegistry,
) -> ConcentrationCurve:
    """Activity-concentration curve for a partisan group.

    Activity is retweets made plus received, summed over all given
    networks. share(q) covers the ceil(q * group size) most active members,
    ties broken by account id; the point (1.0, 1.0) is always included.
    """
    members = sorted(group.accounts)
    if not members:
        raise ValueError(f"partisan group #{group.party} is empty")
    for q in fractions:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"fractions must lie in (0, 1], got {q}")

    activity = {node: 0 for node in members}
    for net in nets:
        for node in members:
            activity[node] += net.made(node) + net.received(node)
    total = sum(activity.values())
    if total == 0:
        raise ValueError(f"partisan group #{group.party} has no activity")

    ranked = sorted(members, key=lambda node: (-activity[node], registry.id_of(node)))
    cumulative = []
    running = 0
    for node in ranked:
        running += activity[node]
        cumulative.append(running)

    points = []
    for q in sorted(set(fractions) | {1.0}):
        head = math.ceil(q * len(ranked))
        points.append((q, cumulative[head - 1] / total))
    return ConcentrationCurve(
        group=group.party, points=tuple(points), total_activity=total
    )
