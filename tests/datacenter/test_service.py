"""Tests for the datacenter service application's request synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import request_stream


def reference_job(seed, index, items):
    """The request ``request_stream`` promises: one ``default_rng``
    substream per (seed, index)."""
    rng = np.random.default_rng((seed, index))
    return list(rng.uniform(1.0, 10.0, size=items))


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

    def test_returns_python_floats(self):
        job = request_stream(seed=3, items_per_request=7)(11)
        assert len(job) == 7
        assert all(type(value) is float for value in job)
        assert all(1.0 <= value < 10.0 for value in job)

    def test_rejects_empty_requests(self):
        with pytest.raises(ValueError):
            request_stream(seed=1, items_per_request=0)
