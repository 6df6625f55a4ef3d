"""Tests for repro.core.leakage and repro.core.alarm."""

import itertools

import numpy as np
import pytest

from repro.core import (
    Alarm,
    AlarmPolicy,
    CONSERVATIVE_POLICY,
    Evaluator,
    LeakageReport,
    PairwiseResult,
    PAPER_POLICY,
)
from repro.errors import EvaluationError
from repro.hpc import EventDistributions
from repro.stats.ttest import TTestResult
from repro.uarch import HpcEvent

from .test_evaluator import make_distributions


@pytest.fixture(scope="module")
def report():
    return Evaluator().evaluate(make_distributions())


class TestLeakageReport:
    def test_for_event_and_for_pair(self, report):
        cm = report.for_event(HpcEvent.CACHE_MISSES)
        assert len(cm) == 3
        pair = report.for_pair(1, 3)
        assert len(pair) == 2  # one result per event

    def test_for_pair_order_insensitive(self, report):
        assert report.for_pair(3, 1) == report.for_pair(1, 3)

    def test_unknown_queries_rejected(self, report):
        with pytest.raises(EvaluationError):
            report.for_event(HpcEvent.CYCLES)
        with pytest.raises(EvaluationError):
            report.for_pair(1, 9)

    def test_rejection_count(self, report):
        assert report.rejection_count(HpcEvent.CACHE_MISSES) == 2
        assert report.rejection_count(HpcEvent.BRANCHES) <= 1

    def test_fully_distinguishable_events(self):
        rng = np.random.default_rng(0)
        dists = EventDistributions({
            1: {HpcEvent.CACHE_MISSES: rng.normal(100, 1, 30)},
            2: {HpcEvent.CACHE_MISSES: rng.normal(200, 1, 30)},
            3: {HpcEvent.CACHE_MISSES: rng.normal(300, 1, 30)},
        })
        report = Evaluator().evaluate(dists)
        assert report.fully_distinguishable_events() == [
            HpcEvent.CACHE_MISSES]

    def test_corrected_rejections_more_conservative(self, report):
        raw = [r.distinguishable
               for r in report.for_event(HpcEvent.CACHE_MISSES)]
        corrected = report.corrected_rejections(HpcEvent.CACHE_MISSES,
                                                method="bonferroni")
        assert sum(corrected) <= sum(raw)

    def test_rows_and_csv(self, report):
        rows = report.rows()
        assert len(rows) == len(report.results)
        assert {"event", "t", "p", "cohens_d"} <= set(rows[0])
        csv_text = report.to_csv()
        assert csv_text.count("\n") == len(rows)
        assert "cache-misses" in csv_text

    def test_summary_mentions_verdict(self, report):
        text = report.summary()
        assert "ALARM: RAISED" in text
        assert "cache-misses" in text

    def test_label_with_display_map(self, report):
        result = report.for_pair(1, 3)[0]
        assert result.label() == "t1,3"
        assert result.label({1: 5, 3: 6}) == "t5,6"


class TestAlarmPolicy:
    def test_paper_policy_triggers(self, report):
        alarm = PAPER_POLICY.decide(report)
        assert alarm.triggered
        assert any("cache-misses" in reason for reason in alarm.reasons)
        assert "ALARM RAISED" in alarm.format()

    def test_no_alarm_formatting(self):
        quiet = Evaluator().evaluate(make_distributions(shift=0.0, seed=8))
        alarm = AlarmPolicy(min_rejections=3).decide(quiet)
        assert not alarm.triggered
        assert "no alarm" in alarm.format()

    def test_min_rejections_threshold(self, report):
        # cache-misses distinguishes exactly 2 pairs in this fixture.
        assert AlarmPolicy(min_rejections=2).decide(report).triggered
        assert not AlarmPolicy(min_rejections=3).decide(report).triggered

    def test_conservative_policy_still_catches_strong_leak(self, report):
        alarm = CONSERVATIVE_POLICY.decide(report)
        assert alarm.triggered
        assert alarm.rejections_by_event[HpcEvent.CACHE_MISSES] >= 1

    def test_correction_reduces_rejections(self, report):
        raw = PAPER_POLICY.decide(report).rejections_by_event
        corrected = CONSERVATIVE_POLICY.decide(report).rejections_by_event
        for event in raw:
            assert corrected[event] <= raw[event]

    def test_invalid_policy_rejected(self):
        with pytest.raises(EvaluationError):
            AlarmPolicy(min_rejections=0)


# ---------------------------------------------------------------------------
# The array rule against the per-result rule it replaced
# ---------------------------------------------------------------------------

def oracle_adjust(ps, method):
    """Scalar Bonferroni / Holm / Benjamini-Hochberg adjusted p-values."""
    m = len(ps)
    if method == "none":
        return list(ps)
    if method == "bonferroni":
        return [min(1.0, m * p) for p in ps]
    order = sorted(range(m), key=lambda i: ps[i])
    adjusted = [0.0] * m
    if method == "holm":
        running = 0.0
        for rank, idx in enumerate(order):
            running = max(running, min(1.0, (m - rank) * ps[idx]))
            adjusted[idx] = running
        return adjusted
    running = 1.0
    for rank in range(m - 1, -1, -1):
        idx = order[rank]
        running = min(running, min(1.0, ps[idx] * m / (rank + 1)))
        adjusted[idx] = running
    return adjusted


def oracle_decide(policy, report):
    """The policy applied one PairwiseResult at a time, event by event."""
    alpha = 1.0 - report.confidence
    reasons, counts = [], {}
    for event in report.events:
        results = report.for_event(event)
        if policy.correction == "none":
            rejected = [r.distinguishable for r in results]
        else:
            adjusted = oracle_adjust([r.ttest.p_value for r in results],
                                     policy.correction)
            rejected = [p < alpha for p in adjusted]
        count = sum(rejected)
        counts[event] = count
        if count >= policy.min_rejections:
            pair_text = ", ".join(
                f"({r.category_a},{r.category_b})"
                for r, hit in zip(results, rejected) if hit)
            reasons.append(f"event {event.value!r} distinguishes {count} "
                           f"category pair(s): {pair_text}")
    return Alarm(triggered=bool(reasons), reasons=reasons,
                 rejections_by_event=counts)


EVENTS = (HpcEvent.CACHE_MISSES, HpcEvent.BRANCHES, HpcEvent.CYCLES)


def report_from_p_values(p_value, alpha, pairs):
    """A report whose (pair, event) cells carry ``p_value``'s entries."""
    results = []
    for ei, event in enumerate(EVENTS):
        for pi, (a, b) in enumerate(pairs):
            p = float(p_value[pi, ei])
            results.append(PairwiseResult(
                event=event, category_a=a, category_b=b,
                ttest=TTestResult(statistic=0.0, p_value=p, df=1.0,
                                  mean_a=0.0, mean_b=0.0, n_a=2, n_b=2,
                                  method="welch"),
                effect_size=0.0, rank_test=None, distinguishable=p < alpha))
    categories = sorted({c for pair in pairs for c in pair})
    return LeakageReport(results=results, confidence=1.0 - alpha,
                         method="welch", categories=categories,
                         events=list(EVENTS))


def random_p_values(rng, pairs, alpha):
    """Uniform, heavy-tailed and tied p-values, some exactly at alpha."""
    shape = (pairs, len(EVENTS))
    kind = rng.integers(3)
    if kind == 0:
        return rng.random(shape)
    if kind == 1:
        return rng.random(shape) ** 8
    grid = np.array([0.0, alpha / pairs, alpha / 2, alpha, 2 * alpha,
                     0.5, 1.0])
    return rng.choice(grid, size=shape)


@pytest.mark.parametrize("nominal", [0.05, 0.01, 2.0 ** -10])
@pytest.mark.parametrize("min_rejections", [1, 2, 3])
@pytest.mark.parametrize("correction", ["none", "bonferroni", "holm", "bh"])
def test_array_rule_matches_per_result_oracle(correction, min_rejections,
                                              nominal):
    # The level a report at confidence 1 - nominal tests at; it survives
    # the round trip through the report's confidence exactly.
    alpha = 1.0 - (1.0 - nominal)
    assert 1.0 - (1.0 - alpha) == alpha
    policy = AlarmPolicy(min_rejections=min_rejections,
                         correction=correction)
    rng = np.random.default_rng([min_rejections, int(1 / nominal)])
    triggered = 0
    for _ in range(40):
        categories = int(rng.integers(2, 7))
        pairs = list(itertools.combinations(range(categories), 2))
        p_value = random_p_values(rng, len(pairs), alpha)
        report = report_from_p_values(p_value, alpha, pairs)
        want = oracle_decide(policy, report)
        for got in (policy.decide(report),
                    policy.decide_p_values(p_value, alpha, pairs, EVENTS)):
            assert got.triggered == want.triggered
            assert got.rejections_by_event == want.rejections_by_event
            assert got.reasons == want.reasons
        triggered += want.triggered
    assert 0 < triggered < 40  # both verdicts exercised


def test_zero_alpha_never_alarms():
    pairs = [(0, 1), (0, 2), (1, 2)]
    zeros = np.zeros((len(pairs), len(EVENTS)))
    for correction in ("none", "bonferroni", "holm", "bh"):
        alarm = AlarmPolicy(correction=correction).decide_p_values(
            zeros, 0.0, pairs, EVENTS)
        assert not alarm.triggered
        assert set(alarm.rejections_by_event.values()) == {0}


def test_report_rule_matches_oracle_on_evaluated_report(report):
    for policy in (PAPER_POLICY, CONSERVATIVE_POLICY,
                   AlarmPolicy(min_rejections=2, correction="bh")):
        want = oracle_decide(policy, report)
        got = policy.decide(report)
        assert (got.triggered, got.reasons, got.rejections_by_event) == \
            (want.triggered, want.reasons, want.rejections_by_event)
