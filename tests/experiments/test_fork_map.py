"""``fork_map``: ordered results from forked children, same as a loop."""

import os

import pytest

from repro.datacenter import fork_available, shard
from repro.experiments import Scale, run_power_qos, run_tradeoff
from repro.experiments.common import fork_map

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork_map spreads work only with fork"
)


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(shard, "usable_cpu_count", lambda: count)


@needs_fork
class TestForkMap:
    def test_results_keep_item_order(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        offset = 3  # closed over: children inherit it, nothing pickled
        items = list(range(11))
        assert fork_map(lambda x: x * x + offset, items) == [
            x * x + offset for x in items
        ]

    def test_runs_in_one_child_per_cpu(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        pids = fork_map(lambda _: os.getpid(), range(4))
        assert os.getpid() not in pids
        assert len(set(pids)) == 2

    def test_one_cpu_runs_in_process(self, monkeypatch):
        use_cpus(monkeypatch, 1)
        assert fork_map(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3

    def test_child_exception_is_raised_with_traceback(self, monkeypatch):
        use_cpus(monkeypatch, 2)

        def fail_on_three(x):
            if x == 3:
                raise ValueError("three is right out")
            return x

        with pytest.raises(RuntimeError, match=r"(?s)failed:.*three is right"):
            fork_map(fail_on_three, range(5))

    def test_child_death_is_reported(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"died without reporting"):
            fork_map(lambda x: os._exit(7), range(2))

    def test_empty_input(self):
        assert fork_map(lambda x: x, []) == []

    def test_power_qos_sweep_matches_a_serial_sweep(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        spread = run_power_qos("swish++", Scale.TINY)
        use_cpus(monkeypatch, 1)
        assert run_power_qos("swish++", Scale.TINY) == spread

    def test_tradeoff_matches_a_serial_run(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        spread = run_tradeoff("bodytrack", Scale.TINY)
        use_cpus(monkeypatch, 1)
        assert run_tradeoff("bodytrack", Scale.TINY) == spread
