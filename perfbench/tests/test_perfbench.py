"""Tests of the benchmark itself, at a few machines per workload.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.layers import PER_LAYER
from perfbench.trace import Tracer, layer_patches
from perfbench.worker import measure

ROOT = Path(__file__).resolve().parents[2]

SMALL = dataclasses.replace(
    workloads.FULL,
    fleet_machines=4,
    scale_machines=8,
    scale_rate=0.4,
    journal_machines=4,
    horizon=30.0,
)


def small(workload: str, seed: int, tmp_path: Path, **options) -> dict:
    return measure(workload, seed, size=SMALL, workdir=str(tmp_path), **options)


def arrival_times(workload: str, seed: int, tmp_path: Path) -> list[tuple]:
    prepared = workloads.SETUPS[workload](seed, size=SMALL, workdir=str(tmp_path))
    if prepared.journal_path is not None:
        Path(prepared.journal_path).unlink()
    return [trace.arrivals for trace in prepared.traces]


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.SETUPS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", workloads.SEEDED)
def test_seed_changes_the_generated_traces(workload, tmp_path):
    first = arrival_times(workload, 1, tmp_path)
    assert first == arrival_times(workload, 1, tmp_path)
    assert first != arrival_times(workload, 2, tmp_path)


def test_conservation_breach_is_counted_not_raised(tmp_path, monkeypatch):
    setup = workloads.SETUPS["fleet-scalar"]

    def tampered(seed, **options):
        prepared = setup(seed, **options)
        honest = prepared.run

        def run_and_tamper():
            outcome = honest()
            bill = outcome.result.bills[0]
            outcome.result.bills[0] = dataclasses.replace(
                bill, energy_joules=bill.energy_joules + 1.0
            )
            return outcome

        prepared.run = run_and_tamper
        return prepared

    monkeypatch.setitem(workloads.SETUPS, "fleet-scalar", tampered)
    record = small("fleet-scalar", 1, tmp_path)
    assert not record["ok"]
    assert any("conservation" in failure for failure in record["failures"])
    records = [record]
    result = run.summarize(records, [], records)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert not result["correct"]


def test_diverging_replay_is_counted_not_raised(tmp_path, monkeypatch):
    honest_replay = workloads.replay

    def replay_tampered_journal(path, **options):
        lines = Path(path).read_text().splitlines()
        last = json.loads(lines[-1])
        last["payload"]["makespan"] += 1.0
        lines[-1] = json.dumps(last)
        Path(path).write_text("\n".join(lines) + "\n")
        return honest_replay(path, **options)

    monkeypatch.setattr(workloads, "replay", replay_tampered_journal)
    record = small("journal-faults", 1, tmp_path)
    assert not record["ok"]
    assert any("replay failed" in failure for failure in record["failures"])
    assert not list(tmp_path.iterdir()), "the journal is removed"


def test_a_raising_run_is_counted_not_raised(tmp_path, monkeypatch):
    def broken(seed, **options):
        prepared = workloads.setup_fleet_scalar(seed, **options)
        prepared.run = lambda: 1 / 0
        return prepared

    monkeypatch.setitem(workloads.SETUPS, "fleet-scalar", broken)
    record = small("fleet-scalar", 1, tmp_path)
    assert not record["ok"]
    assert "ZeroDivisionError" in record["failures"][0]


def test_a_differing_digest_fails_the_repetition():
    records = [
        {"ok": True, "failures": [], "digest": digest, "traced": False,
         "backend": None, "setup_s": 1.0, "wall_s": 1.0, "events": 10,
         "cpu_s": 1.0, "rss_mb": 1.0, "replay_s": 0.0, "journal_bytes": 0,
         "reference_s": 0.2}
        for digest in ("a", "a", "b")
    ]
    result = run.summarize(records, [], records)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert not result["correct"]


def test_a_crashed_repetition_is_counted_unless_it_is_the_first(monkeypatch):
    good = {"ok": True, "failures": [], "digest": "a", "traced": False,
            "backend": None, "setup_s": 1.0, "wall_s": 1.0, "events": 10,
            "cpu_s": 1.0, "rss_mb": 1.0, "replay_s": 0.0, "journal_bytes": 0,
            "reference_s": 0.2}
    crash = run._crashed(False, None, "exited -9: killed")
    outcomes = iter([dict(good), crash, dict(good)])
    monkeypatch.setattr(run, "repetition", lambda *args: next(outcomes))
    untraced, traced, wire = run.collect("fleet-scalar", 1, 0.0, False)
    result = run.summarize(untraced, traced, wire)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert not result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END)

    monkeypatch.setattr(run, "repetition", lambda *args: crash)
    with pytest.raises(run.BenchmarkError, match="killed"):
        run.collect("fleet-scalar", 1, 0.0, False)


@pytest.mark.parametrize("workload", workloads.SEEDED)
def test_tracing_is_inert_and_covers_the_run(workload, tmp_path):
    twin = run.TRACED_BACKEND.get(workload)
    untraced = small(workload, 3, tmp_path)
    traced = small(workload, 3, tmp_path, trace=True, backend=twin)
    assert untraced["ok"] and traced["ok"], untraced["failures"] + traced["failures"]
    assert traced["digest"] == untraced["digest"]
    layers = traced["layers"]
    assert layers["engine.feeds"] > 0 and layers["heartbeats.beats"] > 0
    assert 0.9 < layers["trace.coverage"] <= 1.0
    assert 0.0 <= layers["actuator.plan_reuse_ratio"] <= 1.0
    assert sum(traced["spans"].values()) == pytest.approx(traced["wall_s"], rel=0.05)


def test_tracer_restores_every_patched_call():
    before = [
        (owner, attr, vars(owner).get(attr))
        for owner, attr, _, _ in layer_patches()
    ]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, f"{owner}.{attr}"


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-scalar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
