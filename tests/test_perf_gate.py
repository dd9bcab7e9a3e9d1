"""Self-test of the perf gate's comparison (``tools/perf_gate.py``).

``compare`` is checked on synthetic perfbench results, with the bounds
read from ``BENCHMARK.json`` as the gate reads them, and the committed
baseline is checked against ``BENCHMARK.json`` so the two cannot drift.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = SPEC["end_to_end"]
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", REPO / "tools" / "perf_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def _payload(python="3.11.7"):
    """A perf-gate.json payload with the same plausible metrics per workload."""
    metrics = {
        "events_per_s": 10000.0,
        "cpu_us_per_event": 100.0,
        "setup_s": 0.4,
        "peak_rss_mb": 70.0,
    }
    return {
        "python": python,
        "seed": gate.SEED,
        "seconds": gate.SECONDS,
        "commit": "0123456789ab",
        "results": {
            workload: {
                "correct": True,
                "attempted": 3,
                "failed": 0,
                "metrics": {
                    name: {"value": value, "unit": "u"}
                    for name, value in metrics.items()
                },
            }
            for workload in WORKLOADS
        },
    }


def _scale(payload, workload, name, factor):
    payload["results"][workload]["metrics"][name]["value"] *= factor


def _failures(report):
    return [line for line in report if line.startswith("FAIL")]


def test_identical_results_pass():
    baseline = _payload()
    code, report = gate.compare(baseline, copy.deepcopy(baseline), END_TO_END)
    assert code == 0
    assert not _failures(report)
    assert len(report) == len(WORKLOADS) * len(END_TO_END)


def test_two_fold_slowdown_fails_and_names_the_workload():
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    _scale(fresh, "journal-faults", "cpu_us_per_event", 2.0)
    _scale(fresh, "journal-faults", "setup_s", 2.0)
    _scale(fresh, "journal-faults", "events_per_s", 0.5)
    code, report = gate.compare(baseline, fresh, END_TO_END)
    assert code == 1
    failures = _failures(report)
    assert len(failures) == 3
    assert all("journal-faults" in line for line in failures)
    assert any(
        "cpu_us_per_event" in line and "ratio 2.000" in line
        for line in failures
    )
    assert any(
        "events_per_s" in line and "ratio 0.500" in line for line in failures
    )


def test_rss_growth_past_its_bound_fails():
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    _scale(fresh, "fleet-scalar", "peak_rss_mb", 1.11)
    code, report = gate.compare(baseline, fresh, END_TO_END)
    assert code == 1
    (failure,) = _failures(report)
    assert "fleet-scalar peak_rss_mb" in failure


def test_changes_within_the_bounds_pass():
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    _scale(fresh, "fleet-scalar", "cpu_us_per_event", 1.2)
    _scale(fresh, "fleet-scalar", "events_per_s", 0.8)
    _scale(fresh, "fleet-scalar", "peak_rss_mb", 1.09)
    code, _ = gate.compare(baseline, fresh, END_TO_END)
    assert code == 0


@pytest.mark.parametrize(
    "field, value", [("failed", 1), ("correct", False)]
)
def test_failed_or_incorrect_run_fails(field, value):
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    fresh["results"]["scale-sharded"][field] = value
    code, report = gate.compare(baseline, fresh, END_TO_END)
    assert code == 1
    (failure,) = _failures(report)
    assert "scale-sharded" in failure


def test_missing_baseline_workload_cannot_compare():
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    del baseline["results"]["paper-powercap"]
    code, report = gate.compare(baseline, fresh, END_TO_END)
    assert code == 2
    assert any("paper-powercap" in line for line in report)


def test_missing_baseline_metric_cannot_compare():
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    del baseline["results"]["fleet-scalar"]["metrics"]["setup_s"]
    code, report = gate.compare(baseline, fresh, END_TO_END)
    assert code == 2
    assert any("fleet-scalar/setup_s" in line for line in report)


def test_python_version_mismatch_cannot_compare():
    code, report = gate.compare(
        _payload(python="3.11.7"), _payload(python="3.12.1"), END_TO_END
    )
    assert code == 2
    (line,) = report
    assert "3.11.7" in line and "3.12.1" in line


@pytest.mark.parametrize("key, value", [("seed", 2), ("seconds", 5.0)])
def test_other_seed_or_run_length_cannot_compare(key, value):
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    fresh[key] = value
    code, report = gate.compare(baseline, fresh, END_TO_END)
    assert code == 2
    (line,) = report
    assert key in line


def test_patch_release_difference_still_compares():
    code, _ = gate.compare(
        _payload(python="3.11.7"), _payload(python="3.11.9"), END_TO_END
    )
    assert code == 0


def test_committed_baseline_matches_benchmark_json():
    baseline = json.loads(gate.BASELINE.read_text())
    assert sorted(baseline["results"]) == sorted(WORKLOADS)
    metrics = sorted(metric["name"] for metric in END_TO_END)
    for workload, result in baseline["results"].items():
        assert sorted(result["metrics"]) == metrics, workload
        assert result["correct"] and result["failed"] == 0, workload
    assert baseline["seed"] == gate.SEED
    assert baseline["seconds"] == gate.SECONDS
