"""Integration tests for the experiment harness (all at TINY scale).

These verify that each paper artifact's experiment runs end-to-end and
produces the paper's qualitative shape; the benchmark harness reruns the
same experiments at PAPER scale.
"""

import math

import pytest

from repro.experiments import (
    APP_SPECS,
    Scale,
    built_system,
    correlation,
    format_fig5,
    format_fig6,
    format_fig7,
    format_fig8,
    format_fig34,
    format_overhead,
    format_table1,
    format_table2,
    run_consolidation,
    run_energy_models,
    run_overhead,
    run_power_qos,
    run_powercap,
    run_tradeoff,
    summarize_inputs,
)


class TestRegistry:
    def test_all_four_benchmarks_registered(self):
        assert set(APP_SPECS) == {"swaptions", "x264", "bodytrack", "swish++"}

    def test_built_system_is_cached(self):
        a = built_system("swaptions", Scale.TINY)
        b = built_system("swaptions", Scale.TINY)
        assert a is b

    def test_built_system_has_control_variables(self):
        system = built_system("swaptions", Scale.TINY)
        assert system.control_set.names == ["num_trials"]
        assert system.report.variable_count == 1


class TestCorrelation:
    def test_perfect_correlation(self):
        assert correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_constant_series_that_agree(self):
        assert correlation([1.0, 1.0], [1.0, 1.0]) == 1.0

    def test_constant_series_that_disagree(self):
        assert correlation([1.0, 1.0], [1.0, 2.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            correlation([1.0], [1.0, 2.0])


class TestTradeoffExperiment:
    """E-F5 / E-T2 (Figure 5, Table 2)."""

    @pytest.fixture(scope="class", params=["swaptions", "swish++"])
    def experiment(self, request):
        return run_tradeoff(request.param, Scale.TINY)

    def test_pareto_frontier_is_monotone(self, experiment):
        frontier = experiment.pareto_training
        speeds = [p.speedup for p in frontier]
        losses = [p.qos_loss for p in frontier]
        assert speeds == sorted(speeds)
        assert all(b >= a - 1e-9 for a, b in zip(losses, losses[1:]))

    def test_training_predicts_production(self, experiment):
        """Table 2: correlation coefficients close to 1."""
        assert experiment.speedup_correlation > 0.95
        assert experiment.qos_correlation > 0.8

    def test_formatting_mentions_benchmark(self, experiment):
        assert experiment.name in format_fig5(experiment)
        assert "Table 2" in format_table2([experiment])

    def test_headline_speedups(self):
        swaptions = run_tradeoff("swaptions", Scale.TINY)
        assert swaptions.max_speedup > 10.0  # wide trade-off space
        swish = run_tradeoff("swish++", Scale.TINY)
        assert 1.2 < swish.max_speedup < 2.0  # ~1.5x in the paper


class TestPowerQosExperiment:
    """E-F6 (Figure 6)."""

    @pytest.fixture(scope="class")
    def experiment(self):
        return run_power_qos("swaptions", Scale.TINY)

    def test_covers_all_seven_pstates(self, experiment):
        freqs = [p.frequency_ghz for p in experiment.points]
        assert freqs == [2.4, 2.26, 2.13, 2.0, 1.86, 1.73, 1.6]

    def test_performance_within_five_percent_everywhere(self, experiment):
        """The paper verifies this for all power states."""
        assert all(p.within_target for p in experiment.points)

    def test_power_decreases_with_frequency(self, experiment):
        powers = [p.mean_power for p in experiment.points]
        assert all(b <= a + 1e-9 for a, b in zip(powers, powers[1:]))

    def test_qos_loss_grows_as_frequency_drops(self, experiment):
        first, last = experiment.points[0], experiment.points[-1]
        assert last.qos_loss > first.qos_loss

    def test_power_reduction_in_paper_band(self, experiment):
        """Paper: 16-21%% across the benchmarks."""
        assert 0.10 < experiment.power_reduction() < 0.30

    def test_formatting(self, experiment):
        assert "Figure 6" in format_fig6(experiment)


class TestPowerCapExperiment:
    """E-F7 (Figure 7)."""

    @pytest.fixture(scope="class")
    def experiment(self):
        return run_powercap("swaptions", Scale.TINY)

    def test_knobs_recover_capped_performance(self, experiment):
        knobs_perf, no_knobs_perf = experiment.capped_performance()
        assert knobs_perf == pytest.approx(1.0, abs=0.15)

    def test_without_knobs_performance_drops_to_frequency_ratio(
        self, experiment
    ):
        _, no_knobs_perf = experiment.capped_performance()
        assert no_knobs_perf == pytest.approx(1.6 / 2.4, abs=0.1)

    def test_gain_rises_during_cap_only(self, experiment):
        assert experiment.mean_gain_during_cap() > 1.1
        assert experiment.tail_gain() == pytest.approx(1.0, abs=0.15)

    def test_recovery_is_fast(self, experiment):
        beats = experiment.recovery_beats()
        assert 0 <= beats <= 3 * 20  # within a few control quanta

    def test_baseline_run_is_flat(self, experiment):
        perfs = [
            s.normalized_performance
            for s in experiment.baseline.samples[30:]
            if s.normalized_performance is not None
        ]
        mean = sum(perfs) / len(perfs)
        assert mean == pytest.approx(1.0, abs=0.05)

    def test_formatting(self, experiment):
        assert "Figure 7" in format_fig7(experiment)


class TestConsolidationExperiment:
    """E-F8 (Figure 8)."""

    @pytest.fixture(scope="class")
    def experiment(self):
        return run_consolidation("swaptions", Scale.TINY)

    def test_parsec_provisioning_shrinks_four_to_one(self, experiment):
        assert experiment.original_machines == 4
        assert experiment.consolidated_machines == 1

    def test_power_savings_at_quarter_utilization(self, experiment):
        """Paper: ~66%% saved at 25%% utilization for PARSEC benchmarks."""
        _, fraction = experiment.savings_at(0.25)
        assert 0.4 < fraction < 0.8

    def test_power_savings_at_peak(self, experiment):
        """Paper: ~75%% less power at 100%% utilization."""
        _, fraction = experiment.savings_at(1.0)
        assert 0.6 < fraction < 0.85

    def test_qos_loss_bounded_and_rising(self, experiment):
        losses = [p.qos_loss for p in experiment.points]
        assert losses[0] == 0.0
        assert experiment.peak_qos_loss() <= experiment.qos_bound + 1e-9
        assert losses[-1] >= max(losses[:-1]) - 1e-9

    def test_performance_preserved(self, experiment):
        assert all(p.performance_factor > 0.95 for p in experiment.points)

    def test_formatting(self, experiment):
        assert "Figure 8" in format_fig8(experiment)


class TestInputsTable:
    """E-T1 (Table 1)."""

    def test_summarizes_all_benchmarks(self):
        summaries = summarize_inputs(Scale.TINY)
        assert {s.name for s in summaries} == set(APP_SPECS)
        assert all(s.training_units > 0 for s in summaries)
        assert all(s.production_units > 0 for s in summaries)

    def test_formatting(self):
        text = format_table1(summarize_inputs(Scale.TINY))
        assert "Table 1" in text and "swish++" in text


class TestEnergyModels:
    """E-F3/F4 (Figures 3-4)."""

    def test_grid_is_complete(self):
        scenarios = run_energy_models()
        assert len(scenarios) == 4 * 3

    def test_knob_savings_grow_with_speedup(self):
        scenarios = [
            s for s in run_energy_models() if s.slack_fraction == 0.0
        ]
        savings = [s.result.savings for s in scenarios]
        assert all(b >= a - 1e-9 for a, b in zip(savings, savings[1:]))

    def test_formatting(self):
        assert "Equations 12-19" in format_fig34(run_energy_models())


class TestOverhead:
    """E-S51 (Section 5.1)."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_overhead("swaptions", Scale.TINY)

    def test_modeled_overhead_is_insignificant(self, result):
        """The control system adds no virtual time on an uncapped run
        (a noise-induced knob nudge can only make it faster)."""
        assert result.modeled_overhead <= 1e-9
        assert result.modeled_overhead > -0.05
        assert not math.isnan(result.modeled_overhead)

    def test_formatting(self, result):
        assert "overhead" in format_overhead([result])
