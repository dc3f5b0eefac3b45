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
the two routes. The fit is plain float arithmetic on `math.exp`, so its
bits do not depend on which SIMD or BLAS kernels the CPU selects. Zero
cells get the Haldane-Anscombe +0.5 correction and are flagged rather
than hidden.
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
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 25

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

    @property
    def corrected_cells(self) -> tuple[float, float, float, float]:
        """The cells as floats, each +0.5 (Haldane-Anscombe) when any is zero."""
        shift = 0.5 if self.has_zero_cell else 0.0
        return tuple(cell + shift for cell in self.cells)


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
    a, b, c, d = table.corrected_cells
    value = (a * d) / (b * c)
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    log_or = math.log(value)
    return OddsRatioEstimate(
        value=value,
        ci_low=math.exp(log_or - Z_95 * se),
        ci_high=math.exp(log_or + Z_95 * se),
        corrected=table.has_zero_cell,
    )


def risk_ratio(table: ContingencyTable2x2) -> float:
    """P(contra | partisan) / P(contra | non-partisan), on corrected cells if needed."""
    a, b, c, d = table.corrected_cells
    return (a / (a + b)) / (c / (c + d))


def _newton_ratio(n: int, s: int, eta: float) -> float:
    """r/w of one covariate class: r = s - n*mu and w = n*mu*(1 - mu)."""
    mu = 1.0 / (1.0 + math.exp(-eta))
    return (s - n * mu) / (n * mu * (1.0 - mu))


def fit_logistic_counts(table: ContingencyTable2x2) -> LogisticFit:
    """Logistic fit of contra membership on the binary partisan flag.

    A zero cell means complete separation (or a degenerate margin): the fit
    is reported unconverged instead of chasing infinite coefficients. Else
    IRLS runs on the two covariate classes, where the 2x2 Newton system
    decouples: the intercept step is the non-partisan class's r/w, the slope
    step the partisan class's r/w minus it. A zero weight or an overflowing
    `math.exp` ends the fit unconverged at that iteration.
    """
    if table.has_zero_cell:
        return LogisticFit(
            beta0=math.nan, beta1=math.nan, converged=False, iterations=0, separation=True
        )
    beta0 = beta1 = 0.0
    converged = False
    for iteration in range(1, IRLS_MAX_ITER + 1):
        try:
            step0 = _newton_ratio(table.c + table.d, table.c, beta0)
            step1 = _newton_ratio(table.a + table.b, table.a, beta0 + beta1) - step0
        except (OverflowError, ZeroDivisionError):
            break
        beta0, beta1 = beta0 + step0, beta1 + step1
        if max(abs(step0), abs(step1)) < IRLS_TOL:
            converged = True
            break
    return LogisticFit(
        beta0=beta0, beta1=beta1, converged=converged, iterations=iteration, separation=False
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
