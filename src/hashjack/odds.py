"""Cross-cluster membership odds: the hashjacking estimators.

For a partisan set P and a target network T the question is how much more
likely a member of P is to sit in T's contra community than a non-partisan
participant of T. Accounts absent from T are excluded (they had no chance
to appear in any of T's clusters). The 2x2 table

                 in contra(T)   not in contra(T)
    P              a              b
    not P          c              d

yields the cross-product odds ratio a*d / (b*c) with a log-normal 95%
interval, and an equivalent one-predictor logistic regression fitted by
iteratively reweighted least squares; on non-degenerate tables the fitted
slope equals ln(OR) (closed form), which doubles as a cross-check between
the two routes. Zero cells get the Haldane-Anscombe +0.5 correction and
are flagged rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .community import CommunityPartition
from .errors import EstimationError
from .graph import RetweetNetwork
from .labeling import ClusterLabeling, PartisanAssignment

Z_95 = 1.96

FLAG_HALDANE = "haldane"
FLAG_DEGENERATE = "degenerate"
FLAG_SEPARATION = "separation"


@dataclass(frozen=True)
class ContingencyTable2x2:
    a: int  # partisan, contra
    b: int  # partisan, not contra
    c: int  # non-partisan, contra
    d: int  # non-partisan, not contra

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("contingency counts must be non-negative")

    @property
    def cells(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def has_zero_cell(self) -> bool:
        return 0 in self.cells


@dataclass(frozen=True)
class OddsRatioEstimate:
    value: float
    ci_low: float
    ci_high: float
    corrected: bool  # Haldane-Anscombe +0.5 applied


@dataclass(frozen=True)
class LogisticFit:
    beta0: float
    beta1: float
    converged: bool
    iterations: int
    separation: bool


@dataclass(frozen=True)
class HashjackEstimate:
    """One (partisan set, target network) cell of the estimate matrix."""

    party: str
    target: str
    table: ContingencyTable2x2 | None
    odds_ratio: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    risk_ratio: float | None = None
    beta1: float | None = None
    converged: bool = False
    flags: tuple[str, ...] = ()
    error: str | None = None

    def to_dict(self) -> dict:
        row: dict = {"party": "#" + self.party, "target": "#" + self.target}
        if self.table is not None:
            row.update(zip("abcd", self.table.cells))
        row.update(
            {
                "or": self.odds_ratio,
                "ci_low": self.ci_low,
                "ci_high": self.ci_high,
                "risk_ratio": self.risk_ratio,
                "beta1": self.beta1,
                "converged": self.converged,
                "flags": list(self.flags),
            }
        )
        if self.error is not None:
            row["error"] = self.error
        return row


def contingency(
    partisan: PartisanAssignment,
    net: RetweetNetwork,
    partition: CommunityPartition,
    labeling: ClusterLabeling,
) -> ContingencyTable2x2:
    """Count partisan/contra membership over the accounts present in net."""
    contra_cid = labeling.contra_community
    if contra_cid is None:
        raise EstimationError(f"network #{net.hashtag} has no contra community")
    contra = partition.members(contra_cid)
    members = partisan.accounts & net.nodes
    a = len(members & contra)
    c = len(contra - members)
    return ContingencyTable2x2(
        a=a,
        b=len(members) - a,
        c=c,
        d=len(net.nodes) - len(members) - c,
    )


def odds_ratio(table: ContingencyTable2x2) -> OddsRatioEstimate:
    """Cross-product odds ratio with a log-normal 95% CI.

    With any zero cell, all four cells get +0.5 first and the estimate is
    flagged as corrected; the CI is always computed on the cells the point
    estimate used.
    """
    corrected = table.has_zero_cell
    a, b, c, d = (cell + 0.5 if corrected else float(cell) for cell in table.cells)
    value = (a * d) / (b * c)
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    log_or = math.log(value)
    return OddsRatioEstimate(
        value=value,
        ci_low=math.exp(log_or - Z_95 * se),
        ci_high=math.exp(log_or + Z_95 * se),
        corrected=corrected,
    )


def risk_ratio(table: ContingencyTable2x2) -> float:
    """P(contra | partisan) / P(contra | non-partisan), on corrected cells if needed."""
    a, b, c, d = (
        cell + 0.5 if table.has_zero_cell else float(cell) for cell in table.cells
    )
    return (a / (a + b)) / (c / (c + d))


def _fit_irls(
    counts: np.ndarray, successes: np.ndarray, tol: float = 1e-8, max_iter: int = 25
) -> tuple[float, float, bool, int]:
    """Weighted IRLS on the two covariate classes x=1 and x=0."""
    import numpy as np

    x = np.array([[1.0, 1.0], [1.0, 0.0]])
    beta = np.zeros(2)
    for iteration in range(1, max_iter + 1):
        mu = 1.0 / (1.0 + np.exp(-(x @ beta)))
        gradient = x.T @ (successes - counts * mu)
        weights = counts * mu * (1.0 - mu)
        hessian = (x * weights[:, None]).T @ x
        try:
            step = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            return float(beta[0]), float(beta[1]), False, iteration
        beta = beta + step
        if float(np.max(np.abs(step))) < tol:
            return float(beta[0]), float(beta[1]), True, iteration
    return float(beta[0]), float(beta[1]), False, max_iter


def fit_logistic_counts(table: ContingencyTable2x2) -> LogisticFit:
    """Logistic fit of contra membership on the binary partisan flag.

    A zero cell means complete separation (or a degenerate margin): the fit
    is reported unconverged instead of chasing infinite coefficients.
    """
    import numpy as np

    if table.has_zero_cell:
        return LogisticFit(
            beta0=math.nan, beta1=math.nan, converged=False, iterations=0, separation=True
        )
    counts = np.array([table.a + table.b, table.c + table.d], dtype=float)
    successes = np.array([table.a, table.c], dtype=float)
    beta0, beta1, converged, iterations = _fit_irls(counts, successes)
    return LogisticFit(
        beta0=beta0, beta1=beta1, converged=converged, iterations=iterations, separation=False
    )


def estimate_cell(
    partisan: PartisanAssignment,
    net: RetweetNetwork,
    partition: CommunityPartition,
    labeling: ClusterLabeling,
) -> HashjackEstimate:
    """Full estimate for one (partisan set, target network) pair."""
    try:
        table = contingency(partisan, net, partition, labeling)
    except EstimationError as exc:
        return HashjackEstimate(
            party=partisan.party, target=net.hashtag, table=None, error=str(exc)
        )
    flags = []
    if table.a + table.b == 0 or table.c + table.d == 0:
        flags.append(FLAG_DEGENERATE)
    if table.has_zero_cell:
        flags.append(FLAG_HALDANE)
    ratio = odds_ratio(table)
    fit = fit_logistic_counts(table)
    if fit.separation:
        flags.append(FLAG_SEPARATION)
    return HashjackEstimate(
        party=partisan.party,
        target=net.hashtag,
        table=table,
        odds_ratio=ratio.value,
        ci_low=ratio.ci_low,
        ci_high=ratio.ci_high,
        risk_ratio=risk_ratio(table),
        beta1=None if fit.separation else fit.beta1,
        converged=fit.converged,
        flags=tuple(flags),
    )


def hashjack_matrix(
    partisan_sets: Iterable[PartisanAssignment],
    targets: Mapping[str, tuple[RetweetNetwork, CommunityPartition, ClusterLabeling]],
) -> list[HashjackEstimate]:
    """One estimate per (partisan set, target network), errors kept in-cell.

    Targets include the party's own network when present; its self-cell is
    expected below 1 since partisans are by construction the pro community.
    """
    if isinstance(partisan_sets, Mapping):
        partisan_sets = partisan_sets.values()
    cells = []
    for partisan in sorted(partisan_sets, key=lambda p: p.party):
        for tag in sorted(targets):
            net, partition, labeling = targets[tag]
            cells.append(estimate_cell(partisan, net, partition, labeling))
    return cells
