"""Turn raw communities into pro/contra/other labels and partisan sets.

Cluster semantics stay a human judgment; this module mechanizes it so runs
are reproducible. Seed account lists nominate the pro and contra community
by strict majority vote, a manual override file can relabel communities
afterwards, and the top-k retweeted report gives the reviewer the evidence
to confirm or veto either. Partisans of a party hashtag are exactly the
members of the pro community of that party's network.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .community import CommunityPartition
from .errors import LabelingError
from .graph import AccountRegistry, RetweetNetwork

PRO = "pro"
CONTRA = "contra"
OTHER = "other"
LABELS = (PRO, CONTRA, OTHER)

DEFAULT_MIN_COMMUNITY_SIZE = 5


@dataclass(frozen=True)
class ClusterLabeling:
    """Pro/contra/other label for every community of one network."""

    network: str
    labels: dict[int, str]
    method: str  # seed-list, manual, or hybrid
    evidence: dict[int, tuple[tuple[str, int], ...]] | None = None

    def community_with(self, label: str) -> int | None:
        hits = [cid for cid, lab in self.labels.items() if lab == label]
        return hits[0] if hits else None

    @property
    def pro_community(self) -> int | None:
        return self.community_with(PRO)

    @property
    def contra_community(self) -> int | None:
        return self.community_with(CONTRA)


@dataclass(frozen=True)
class PartisanAssignment:
    """Accounts in the pro community of one party hashtag's network."""

    party: str
    accounts: frozenset[int]


def _check_labels(labels: Mapping[int, str]) -> None:
    for cid, label in labels.items():
        if label not in LABELS:
            raise LabelingError(f"community {cid}: unknown label {label!r}")
    for label in (PRO, CONTRA):
        if sum(1 for lab in labels.values() if lab == label) > 1:
            raise LabelingError(f"more than one community labeled {label}")


def top_retweeted(
    net: RetweetNetwork,
    partition: CommunityPartition,
    k: int,
    registry: AccountRegistry,
) -> dict[int, list[tuple[str, int]]]:
    """Per community: the k most retweeted accounts with their counts.

    Sorted by retweets received descending, ties broken by account id.
    A community smaller than k yields all of its members.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked: dict[int, list[tuple[str, int]]] = {}
    ids, received = registry.ids, net.retweets_received.get
    for cid, members in partition.communities().items():
        # the k smallest (-count, id), which sorting every member would put first
        best = heapq.nsmallest(k, [(-received(node, 0), ids[node]) for node in members])
        ranked[cid] = [(account, -count) for count, account in best]
    return ranked


def _majority_community(
    matched: Mapping[int, int], total: int, side: str, sizes: Mapping[int, int], min_size: int
) -> int:
    winner, count = max(sorted(matched.items()), key=lambda item: item[1])
    if 2 * count <= total:
        raise LabelingError(
            f"no strict majority for {side} seeds "
            f"(best community {winner} holds {count} of {total})"
        )
    if sizes.get(winner, 0) < min_size:
        raise LabelingError(
            f"{side} seed majority falls in community {winner} with "
            f"{sizes.get(winner, 0)} nodes, below the {min_size}-node minimum"
        )
    return winner


def label_by_seeds(
    partition: CommunityPartition,
    pro_seeds: Iterable[str],
    contra_seeds: Iterable[str],
    registry: AccountRegistry,
    network: str = "",
    min_community_size: int = DEFAULT_MIN_COMMUNITY_SIZE,
    evidence: dict[int, tuple[tuple[str, int], ...]] | None = None,
) -> ClusterLabeling:
    """Label the community holding the strict majority of matched seeds.

    Seeds that are not nodes of this partition are ignored. Raises if the
    seed sets overlap, if no seed of a side matched, if a side has no
    strict-majority community, or if both sides elect the same community.
    Communities below min_community_size stay `other` regardless of seeds.
    """
    pro = set(pro_seeds)
    contra = set(contra_seeds)
    overlap = pro & contra
    if overlap:
        raise LabelingError(f"seed sets overlap: {sorted(overlap)[:5]}")

    sizes = {cid: len(members) for cid, members in partition.communities().items()}
    votes: dict[str, dict[int, int]] = {PRO: {}, CONTRA: {}}
    totals = {PRO: 0, CONTRA: 0}
    for side, seeds in ((PRO, pro), (CONTRA, contra)):
        for account in seeds:
            if account not in registry:
                continue
            cid = partition.assignment.get(registry.index_of(account))
            if cid is None:
                continue
            votes[side][cid] = votes[side].get(cid, 0) + 1
            totals[side] += 1
        if totals[side] == 0:
            raise LabelingError(f"unlabelable: no {side} seed matched any node")

    pro_cid = _majority_community(votes[PRO], totals[PRO], PRO, sizes, min_community_size)
    contra_cid = _majority_community(
        votes[CONTRA], totals[CONTRA], CONTRA, sizes, min_community_size
    )
    if pro_cid == contra_cid:
        raise LabelingError(f"community {pro_cid} wins both pro and contra seeds")

    labels = {cid: OTHER for cid in sizes}
    labels[pro_cid] = PRO
    labels[contra_cid] = CONTRA
    return ClusterLabeling(network=network, labels=labels, method="seed-list", evidence=evidence)


def manual_labeling(
    partition: CommunityPartition,
    labels: Mapping[int, str],
    network: str = "",
    evidence: dict[int, tuple[tuple[str, int], ...]] | None = None,
) -> ClusterLabeling:
    """Labeling taken verbatim from a reviewer; unlisted communities are other."""
    full = {cid: OTHER for cid in partition.communities()}
    for cid, label in labels.items():
        if cid not in full:
            raise LabelingError(f"community {cid} does not exist in the partition")
        full[cid] = label
    _check_labels(full)
    return ClusterLabeling(network=network, labels=full, method="manual", evidence=evidence)


def apply_overrides(labeling: ClusterLabeling, overrides: Mapping[int, str]) -> ClusterLabeling:
    """Relabel individual communities on top of an existing labeling."""
    labels = dict(labeling.labels)
    for cid, label in overrides.items():
        if cid not in labels:
            raise LabelingError(f"community {cid} does not exist in the labeling")
        labels[cid] = label
    _check_labels(labels)
    return replace(labeling, labels=labels, method="hybrid")


def partisans(labeling: ClusterLabeling, partition: CommunityPartition) -> PartisanAssignment:
    """Members of the pro community, as the party's partisan set."""
    pro_cid = labeling.pro_community
    if pro_cid is None:
        raise LabelingError(f"network {labeling.network or '?'} has no pro community")
    return PartisanAssignment(
        party=labeling.network, accounts=frozenset(partition.members(pro_cid))
    )
