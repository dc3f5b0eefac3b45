import math
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from hashjack.community import CommunityPartition
from hashjack.errors import EstimationError
from hashjack.graph import AccountRegistry, build_network
from hashjack.ingest import TweetRecord
from hashjack.labeling import ClusterLabeling, PartisanAssignment
from hashjack.odds import (
    FLAG_DEGENERATE,
    FLAG_HALDANE,
    FLAG_SEPARATION,
    ContingencyTable2x2,
    contingency,
    estimate_cell,
    fit_logistic_counts,
    hashjack_matrix,
    odds_ratio,
    risk_ratio,
)

TS = datetime(2020, 3, 1, tzinfo=timezone.utc)


class TestContingencyTable:
    def test_cells_and_total(self):
        t = ContingencyTable2x2(3, 4, 5, 6)
        assert t.cells == (3, 4, 5, 6)
        assert not t.has_zero_cell

    def test_zero_cell_detected(self):
        assert ContingencyTable2x2(0, 4, 5, 6).has_zero_cell

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable2x2(-1, 0, 0, 0)


class TestOddsRatio:
    def test_hand_computed_table(self):
        # (10*40) / (5*4) = 20; se = sqrt(1/10+1/5+1/4+1/40)
        est = odds_ratio(ContingencyTable2x2(10, 5, 4, 40))
        assert est.value == pytest.approx(20.0)
        se = math.sqrt(1 / 10 + 1 / 5 + 1 / 4 + 1 / 40)
        assert est.ci_low == pytest.approx(20.0 * math.exp(-1.96 * se))
        assert est.ci_high == pytest.approx(20.0 * math.exp(1.96 * se))
        assert not est.corrected

    def test_unassociated_table_is_one(self):
        est = odds_ratio(ContingencyTable2x2(10, 10, 20, 20))
        assert est.value == pytest.approx(1.0)
        assert est.ci_low < 1.0 < est.ci_high

    def test_zero_cell_gets_half_correction(self):
        est = odds_ratio(ContingencyTable2x2(0, 10, 5, 5))
        assert est.corrected
        assert est.value == pytest.approx((0.5 * 5.5) / (10.5 * 5.5))
        assert est.ci_low > 0.0

    def test_ci_is_finite_and_ordered(self):
        est = odds_ratio(ContingencyTable2x2(1, 1, 1, 1))
        assert 0 < est.ci_low < est.value < est.ci_high < math.inf


class TestRiskRatio:
    def test_hand_computed(self):
        # (10/15) / (4/44)
        assert risk_ratio(ContingencyTable2x2(10, 5, 4, 40)) == pytest.approx(
            (10 / 15) / (4 / 44)
        )

    def test_corrected_on_zero_cell(self):
        assert risk_ratio(ContingencyTable2x2(0, 10, 5, 5)) == pytest.approx(
            (0.5 / 11) / (5.5 / 11)
        )


class TestLogistic:
    def test_slope_equals_log_cross_product(self):
        t = ContingencyTable2x2(10, 5, 4, 40)
        fit = fit_logistic_counts(t)
        assert fit.converged
        assert not fit.separation
        assert fit.beta1 == pytest.approx(math.log(20.0), abs=1e-8)
        assert fit.beta0 == pytest.approx(math.log(4 / 40), abs=1e-8)

    def test_separation_reported_not_chased(self):
        fit = fit_logistic_counts(ContingencyTable2x2(10, 0, 4, 40))
        assert fit.separation
        assert not fit.converged
        assert math.isnan(fit.beta1)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.integers(min_value=1, max_value=500)] * 4))
    def test_irls_recovers_closed_form(self, cells):
        a, b, c, d = cells
        fit = fit_logistic_counts(ContingencyTable2x2(a, b, c, d))
        assert fit.converged
        assert fit.beta1 == pytest.approx(math.log(a * d / (b * c)), abs=1e-6)


def tiny_target(reg):
    """Network over u0..u7 with cluster 0 = {u0..u3}, cluster 1 (contra) = {u4..u7}."""
    records = [
        TweetRecord(
            tweet_id=f"t{i}",
            author=f"u{i}",
            retweeted_author=f"u{(i + 1) % 4 + base}",
            hashtags=frozenset({"tide"}),
            timestamp=TS,
        )
        for base in (0, 4)
        for i in range(base, base + 4)
    ]
    net = build_network(records, reg, "tide")
    assignment = {reg.index_of(f"u{i}"): (0 if i < 4 else 1) for i in range(8)}
    part = CommunityPartition(
        assignment=assignment, modularity=0.4, resolution=1.0, seed=42, levels=1
    )
    lab = ClusterLabeling(network="tide", labels={0: "pro", 1: "contra"}, method="manual")
    return net, part, lab


class TestContingency:
    def test_counts_only_accounts_present_in_target(self):
        reg = AccountRegistry()
        net, part, lab = tiny_target(reg)
        outsiders = [reg.intern(f"x{i}") for i in range(5)]
        pset = PartisanAssignment(
            party="afd",
            accounts=frozenset(
                [reg.index_of("u0"), reg.index_of("u4"), reg.index_of("u5"), *outsiders]
            ),
        )
        t = contingency(pset, net, part, lab)
        assert t.cells == (2, 1, 2, 3)

    def test_missing_contra_community_raises(self):
        reg = AccountRegistry()
        net, part, _ = tiny_target(reg)
        lab = ClusterLabeling(network="tide", labels={0: "pro", 1: "other"}, method="manual")
        with pytest.raises(EstimationError, match="no contra community"):
            contingency(PartisanAssignment("afd", frozenset()), net, part, lab)


class TestEstimateCell:
    def test_full_cell(self):
        reg = AccountRegistry()
        net, part, lab = tiny_target(reg)
        pset = PartisanAssignment(
            party="afd",
            accounts=frozenset(
                reg.index_of(u) for u in ("u0", "u4", "u5", "u6")
            ),
        )
        cell = estimate_cell(pset, net, part, lab)
        assert cell.table.cells == (3, 1, 1, 3)
        assert cell.odds_ratio == pytest.approx(9.0)
        assert cell.beta1 == pytest.approx(math.log(9.0), abs=1e-8)
        assert cell.flags == ()
        d = cell.to_dict()
        assert d["party"] == "#afd" and d["target"] == "#tide"
        assert d["or"] == pytest.approx(9.0)
        assert d["a"] == 3 and d["d"] == 3

    def test_zero_cell_flags_haldane_and_separation(self):
        reg = AccountRegistry()
        net, part, lab = tiny_target(reg)
        pset = PartisanAssignment(
            party="afd",
            accounts=frozenset(reg.index_of(u) for u in ("u4", "u5")),
        )
        cell = estimate_cell(pset, net, part, lab)
        assert FLAG_HALDANE in cell.flags
        assert FLAG_SEPARATION in cell.flags
        assert cell.beta1 is None
        assert not cell.converged
        assert cell.odds_ratio is not None and cell.odds_ratio > 1.0

    def test_empty_partisan_overlap_is_degenerate(self):
        reg = AccountRegistry()
        net, part, lab = tiny_target(reg)
        cell = estimate_cell(PartisanAssignment("afd", frozenset()), net, part, lab)
        assert FLAG_DEGENERATE in cell.flags
        assert cell.error is None

    def test_missing_contra_is_in_cell_error(self):
        reg = AccountRegistry()
        net, part, _ = tiny_target(reg)
        lab = ClusterLabeling(network="tide", labels={0: "pro", 1: "other"}, method="manual")
        cell = estimate_cell(PartisanAssignment("afd", frozenset()), net, part, lab)
        assert cell.table is None
        assert "no contra community" in cell.error
        assert "error" in cell.to_dict()


class TestMatrix:
    def test_rows_ordered_by_party_then_target(self):
        reg = AccountRegistry()
        net, part, lab = tiny_target(reg)
        targets = {"tide": (net, part, lab)}
        psets = [
            PartisanAssignment("spd", frozenset([reg.index_of("u0")])),
            PartisanAssignment("afd", frozenset([reg.index_of("u4")])),
        ]
        cells = hashjack_matrix(psets, targets)
        assert [(c.party, c.target) for c in cells] == [("afd", "tide"), ("spd", "tide")]

    def test_mapping_input_accepted(self):
        reg = AccountRegistry()
        net, part, lab = tiny_target(reg)
        pset = PartisanAssignment("afd", frozenset([reg.index_of("u4")]))
        cells = hashjack_matrix({"afd": pset}, {"tide": (net, part, lab)})
        assert len(cells) == 1


ror_tables = st.tuples(*[st.integers(min_value=1, max_value=300)] * 4)


class TestOddsProperties:
    @settings(max_examples=200, deadline=None)
    @given(ror_tables)
    def test_transpose_symmetry(self, cells):
        a, b, c, d = cells
        straight = odds_ratio(ContingencyTable2x2(a, b, c, d)).value
        swapped = odds_ratio(ContingencyTable2x2(c, d, a, b)).value
        assert straight * swapped == pytest.approx(1.0, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(ror_tables, st.integers(min_value=2, max_value=9))
    def test_row_scaling_invariance(self, cells, k):
        a, b, c, d = cells
        base = odds_ratio(ContingencyTable2x2(a, b, c, d)).value
        scaled = odds_ratio(ContingencyTable2x2(a * k, b * k, c, d)).value
        assert scaled == pytest.approx(base, rel=1e-9)
