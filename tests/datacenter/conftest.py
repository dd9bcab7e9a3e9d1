"""Shared fixtures and helpers for the datacenter tests."""

import pytest

from repro.datacenter.engine import DatacenterEngine
from repro.datacenter.journal import canonical_json, result_payload


def assert_same_result(left, right):
    """Whole-result byte parity of two runs.

    Compares the canonical result record — bills, reports, every
    history, pool energy and a digest of every heartbeat sample — so a
    parity test misses no field a replay would check.
    """
    assert canonical_json(result_payload(left)) == canonical_json(
        result_payload(right)
    )


@pytest.fixture
def batched_step_mode(monkeypatch):
    """Return a switch that makes later engines pass ``step_mode="batched"``.

    The engine has one per-item step kernel and accepts the keyword
    only because ``perfbench/workloads.py`` passes it.  Calling the
    switch patches ``DatacenterEngine.__init__`` for the rest of the
    test, so any builder (bench scenario, experiment, journal replay)
    constructs its engine with the keyword; it returns the list every
    engine so built is appended to.  ``monkeypatch.undo()`` switches
    it off again.
    """
    built = []

    def switch_on():
        init = DatacenterEngine.__init__

        def batched_init(self, *args, **kwargs):
            kwargs["step_mode"] = "batched"
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(DatacenterEngine, "__init__", batched_init)
        return built

    return switch_on
