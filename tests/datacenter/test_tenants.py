"""Tests for tenant SLAs, stats accounting, and report summaries."""

import pytest

from repro.datacenter.tenants import (
    CompletedRequest,
    LatencySLA,
    TenantError,
    TenantSpec,
    TenantStats,
)
from repro.datacenter.traffic import poisson_trace


def spec(**overrides):
    defaults = dict(
        name="t",
        trace=poisson_trace(1.0, 10.0, seed=1),
        sla=LatencySLA(latency_bound=1.0, attainment_target=0.9),
        job_factory=lambda index: [float(index)],
    )
    defaults.update(overrides)
    return TenantSpec(**defaults)


class TestValidation:
    def test_sla_bounds(self):
        with pytest.raises(TenantError):
            LatencySLA(latency_bound=0.0)
        with pytest.raises(TenantError):
            LatencySLA(latency_bound=1.0, attainment_target=0.0)

    def test_spec_bounds(self):
        with pytest.raises(TenantError):
            spec(max_queue_depth=0)
        with pytest.raises(TenantError):
            spec(weight=0.0)
        with pytest.raises(TenantError):
            spec(qos_cap=-0.1)


class TestStats:
    def test_admitted_is_offered_minus_rejected(self):
        stats = TenantStats()
        for _ in range(5):
            stats.record_offer()
        stats.record_rejection()
        assert stats.admitted == 4
        assert stats.rejected == 1

    def test_completions_are_completed_request_records(self):
        stats = TenantStats()
        stats.record_completion(arrival=1.0, completion=1.5)
        (record,) = stats.completions
        assert type(record) is CompletedRequest
        assert record == CompletedRequest(arrival=1.0, completion=1.5)
        assert record.latency == 0.5

    def test_completion_before_arrival_rejected(self):
        stats = TenantStats()
        with pytest.raises(TenantError):
            stats.record_completion(arrival=5.0, completion=4.0)

    def test_recent_attainment_windows(self):
        stats = TenantStats()
        # Two fast requests early, one slow request late.
        stats.record_completion(arrival=0.0, completion=0.5)
        stats.record_completion(arrival=1.0, completion=1.4)
        stats.record_completion(arrival=8.0, completion=11.0)
        assert stats.recent_attainment(1.0, since=0.0, until=2.0) == 1.0
        assert stats.recent_attainment(1.0, since=2.0, until=12.0) == 0.0
        assert stats.recent_attainment(1.0, since=0.0, until=12.0) == pytest.approx(
            2 / 3
        )

    def test_empty_window_is_none(self):
        stats = TenantStats()
        assert stats.recent_attainment(1.0, since=0.0, until=5.0) is None


class TestReport:
    def test_report_attainment_and_percentiles(self):
        stats = TenantStats()
        sla = LatencySLA(latency_bound=1.0, attainment_target=0.5)
        for arrival, completion in [(0, 0.4), (1, 1.5), (2, 4.0), (3, 3.2)]:
            stats.record_offer()
            stats.record_completion(arrival, completion)
        report = stats.report("t", sla)
        assert report.completed == 4
        # Latencies 0.4, 0.5, 2.0, 0.2: three of four within the bound.
        assert report.attainment == pytest.approx(0.75)
        assert report.sla_met
        assert report.mean_latency == pytest.approx((0.4 + 0.5 + 2.0 + 0.2) / 4)
        assert report.p95_latency <= 2.0

    def test_report_with_no_completions(self):
        report = TenantStats().report("idle", LatencySLA(1.0, 0.9))
        assert report.completed == 0
        assert report.attainment == 0.0
        assert not report.sla_met
