"""Tests for the headline-claim evaluation helpers."""

import pytest

from repro.experiments.claims import (
    ClaimCheck,
    delay_ratio,
    delay_ratios_across,
    energy_saving_percent,
    energy_savings_across,
    evaluate_headline_claims,
    format_claims,
)
from repro.results import SweepResult
from tests.results.test_record import metric_record


def result(protocol, energy, delay, nodes=16):
    return metric_record(protocol, nodes=nodes, energy=energy, delay=delay)


def sweep(pairs):
    out = SweepResult(parameter="num_nodes")
    for index, (spin_e, spms_e, spin_d, spms_d) in enumerate(pairs):
        out.add("spin", index, result("spin", spin_e, spin_d, nodes=index))
        out.add("spms", index, result("spms", spms_e, spms_d, nodes=index))
    return out


class TestClaimHelpers:
    def test_energy_saving_percent(self):
        assert energy_saving_percent(result("spin", 100, 1), result("spms", 70, 1)) == pytest.approx(30.0)

    def test_energy_saving_zero_spin_energy(self):
        assert energy_saving_percent(result("spin", 0, 1), result("spms", 10, 1)) == 0.0

    def test_delay_ratio(self):
        assert delay_ratio(result("spin", 1, 30.0), result("spms", 1, 10.0)) == pytest.approx(3.0)

    def test_delay_ratio_zero_spms_delay(self):
        assert delay_ratio(result("spin", 1, 5.0), result("spms", 1, 0.0)) == float("inf")
        assert delay_ratio(result("spin", 1, 0.0), result("spms", 1, 0.0)) == 1.0

    def test_across_helpers(self):
        s = sweep([(100, 70, 30, 10), (200, 120, 50, 20)])
        assert energy_savings_across(s) == pytest.approx([30.0, 40.0])
        assert delay_ratios_across(s) == pytest.approx([3.0, 2.5])

    def test_pairs_by_swept_value_and_skips_holes(self):
        # SPIN misses the 16-node point (e.g. a quarantined job): its first
        # run is the 36-node one, which must meet SPMS at 36, not at 16.
        s = SweepResult(parameter="num_nodes")
        s.add("spms", 16, result("spms", 50, 5, nodes=16))
        s.add("spms", 36, result("spms", 120, 20, nodes=36))
        s.add("spin", 36, result("spin", 200, 50, nodes=36))
        assert energy_savings_across(s) == pytest.approx([40.0])
        assert delay_ratios_across(s) == pytest.approx([2.5])

    def test_missing_series_gives_no_pairs(self):
        s = SweepResult(parameter="num_nodes")
        s.add("spms", 16, result("spms", 50, 5, nodes=16))
        assert energy_savings_across(s) == []


class TestEvaluateHeadlineClaims:
    def test_all_claims_hold_for_winning_spms(self):
        winning = sweep([(100, 70, 30, 10), (200, 120, 50, 20)])
        checks = evaluate_headline_claims(winning, winning, winning, winning)
        assert len(checks) == 4
        assert all(isinstance(c, ClaimCheck) for c in checks)
        assert all(c.holds for c in checks)

    def test_claims_fail_when_spms_loses(self):
        losing = sweep([(70, 100, 10, 30)])
        checks = evaluate_headline_claims(losing, losing, losing, losing)
        assert not any(c.holds for c in checks)

    def test_format_claims_mentions_status(self):
        winning = sweep([(100, 70, 30, 10)])
        text = format_claims(evaluate_headline_claims(winning, winning, winning, winning))
        assert "HOLDS" in text
        assert "energy" in text
