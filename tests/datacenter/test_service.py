"""Tests for the datacenter service application's request synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import WorkTracker
from repro.datacenter import ServiceApp, request_stream
from repro.tracing.variables import AddressSpace


BLOCK = 16
"""Requests per seeded block, as the request contract fixes it."""


def reference_job(seed, index, items):
    """The request ``request_stream`` promises: row ``index % 16`` of one
    ``default_rng`` substream per (seed, index // 16)."""
    block, row = divmod(index, BLOCK)
    rng = np.random.default_rng((seed, block))
    return list(rng.uniform(1.0, 10.0, size=(BLOCK, items))[row])


class TestRequestStream:
    @pytest.mark.parametrize("seed", [0, 1, 90, 700, 2**31 - 1])
    def test_equals_default_rng_substreams(self, seed):
        make_job = request_stream(seed=seed)
        for index in range(1000):
            assert make_job(index) == reference_job(seed, index, 5)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        index=st.integers(min_value=0, max_value=2**40),
        items=st.integers(min_value=1, max_value=12),
    )
    def test_equals_default_rng_for_any_seed(self, seed, index, items):
        job = request_stream(seed=seed, items_per_request=items)(index)
        assert job == reference_job(seed, index, items)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        items=st.integers(min_value=1, max_value=12),
        base=st.integers(min_value=0, max_value=2**40),
        offsets=st.lists(
            st.integers(min_value=0, max_value=3 * BLOCK), min_size=1, max_size=40
        ),
    )
    def test_any_order_is_a_pure_function_of_the_index(
        self, seed, items, base, offsets
    ):
        """Indices in any order, repeated and across block boundaries, as
        checkpoint restore and migration ask for them: one factory and a
        fresh one (a resumed process) both give the oracle's request."""
        make_job = request_stream(seed=seed, items_per_request=items)
        for offset in offsets:
            index = base + offset
            expected = reference_job(seed, index, items)
            job = make_job(index)
            assert job == expected
            assert request_stream(seed=seed, items_per_request=items)(index) == expected
            assert type(job) is list and len(job) == items
            assert all(type(value) is float for value in job)
            # A caller may change the job it was given; later calls, for
            # this index too, must not see it.
            job[0] = -1.0

    def test_returns_python_floats(self):
        job = request_stream(seed=3, items_per_request=7)(11)
        assert len(job) == 7
        assert all(type(value) is float for value in job)
        assert all(1.0 <= value < 10.0 for value in job)

    def test_rejects_empty_requests(self):
        with pytest.raises(ValueError):
            request_stream(seed=1, items_per_request=0)


class TestBatchProcess:
    def test_matches_per_item_process_item(self):
        """The bulk twin equals per-item calls float for float."""
        app = ServiceApp()
        items = request_stream(seed=5, items_per_request=9)(3)
        space = AddressSpace()
        app.initialize(app.default_configuration(), space)
        per_item = [app.process_item(item, space, WorkTracker()) for item in items]
        outputs, work = app.batch_process(items, space, WorkTracker())
        assert outputs.tolist() == [result.output for result in per_item]
        assert all(result.work == work for result in per_item)
