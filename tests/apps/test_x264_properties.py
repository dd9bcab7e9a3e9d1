"""Property-based tests on the encoder's transform/entropy invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.x264 import (
    BLOCK,
    block_bits,
    encode_block,
    forward_transform,
    golomb_bits,
    inverse_transform,
)
from repro.apps.x264.motion import _HADAMARD, ReferencePlanes, _sample_patch


def blocks():
    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda seed: np.random.default_rng(seed).uniform(
            -64.0, 64.0, size=(BLOCK, BLOCK)
        )
    )


class TestTransformProperties:
    @given(block=blocks())
    @settings(max_examples=25, deadline=None)
    def test_dct_preserves_energy(self, block):
        """Orthonormal DCT: Parseval's identity holds."""
        coefficients = forward_transform(block)
        assert np.sum(block**2) == pytest.approx(np.sum(coefficients**2))

    @given(block=blocks())
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_identity(self, block):
        assert np.allclose(inverse_transform(forward_transform(block)), block)

    @given(block=blocks(), qstep=st.floats(min_value=0.5, max_value=32.0))
    @settings(max_examples=25, deadline=None)
    def test_coarser_quantization_never_costs_more_bits(self, block, qstep):
        _, bits_fine, _ = encode_block(block, qstep)
        _, bits_coarse, _ = encode_block(block, qstep * 2.0)
        assert bits_coarse <= bits_fine

    def test_hadamard_is_orthogonal(self):
        product = _HADAMARD @ _HADAMARD.T
        assert np.allclose(product, 8.0 * np.eye(8))


class TestGolombProperties:
    @given(value=st.integers(min_value=-10_000, max_value=10_000))
    def test_bits_positive_and_odd(self, value):
        bits = golomb_bits(value)
        assert bits >= 1
        assert bits % 2 == 1

    @given(value=st.integers(min_value=1, max_value=10_000))
    def test_sign_symmetric_within_one_level(self, value):
        assert abs(golomb_bits(value) - golomb_bits(-value)) <= 2

    @given(value=st.integers(min_value=-(2**80), max_value=2**80))
    def test_length_matches_codeword_definition(self, value):
        """Length 2k + 1 where 2**k <= mapped + 1 < 2**(k + 1), at any size."""
        mapped = 2 * value - 1 if value > 0 else -2 * value
        k = (golomb_bits(value) - 1) // 2
        assert 2**k <= mapped + 1 < 2 ** (k + 1)

    @given(value=st.integers(min_value=0, max_value=10_000))
    def test_monotone_in_magnitude(self, value):
        assert golomb_bits(value + 1) >= golomb_bits(value)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scale=st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_block_bits_bounded_below_by_terminator(self, seed, scale):
        rng = np.random.default_rng(seed)
        levels = np.round(rng.normal(0, scale, size=(BLOCK, BLOCK))).astype(
            np.int32
        )
        assert block_bits(levels) >= 2


class TestSamplePatch:
    def test_integer_offsets_slice_exactly(self):
        rng = np.random.default_rng(3)
        frame = rng.uniform(0, 255, size=(32, 32))
        patch = _sample_patch(frame, 4.0, 5.0, 8)
        assert np.array_equal(patch, frame[4:12, 5:13])

    def test_half_offsets_average_neighbours(self):
        frame = np.arange(64, dtype=float).reshape(8, 8)
        patch = _sample_patch(frame, 0.0, 0.5, 4)
        expected = 0.5 * (frame[:4, 0:4] + frame[:4, 1:5])
        assert np.allclose(patch, expected)

    @given(
        y=st.floats(min_value=-5.0, max_value=30.0),
        x=st.floats(min_value=-5.0, max_value=30.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_clipping_keeps_patch_in_bounds(self, y, x):
        frame = np.random.default_rng(1).uniform(0, 255, size=(32, 32))
        patch = _sample_patch(frame, y, x, 8)
        assert patch.shape == (8, 8)
        assert frame.min() - 1e-9 <= patch.min()
        assert patch.max() <= frame.max() + 1e-9


class TestReferencePlanes:
    @given(
        height=st.integers(min_value=8, max_value=21),
        width=st.integers(min_value=8, max_value=21),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_quarter_pel_patch_is_bitwise_the_sampled_patch(
        self, height, width, seed
    ):
        """All quarter-pel positions, from two pels before the top-left
        edge to two past the last row and column (clipped)."""
        frame = np.random.default_rng(seed).uniform(
            -300.0, 300.0, size=(height, width)
        )
        planes = ReferencePlanes(frame)
        for qy in range(-8, 4 * (height - 8) + 9):
            for qx in range(-8, 4 * (width - 8) + 9):
                y, x = qy / 4, qx / 4
                assert np.array_equal(
                    planes.patch(y, x), _sample_patch(frame, y, x, 8)
                ), (y, x)

    def test_integer_positions_are_views_of_the_frame(self):
        frame = np.random.default_rng(4).uniform(0, 255, size=(16, 24))
        patch = ReferencePlanes(frame).patch(3, 16.0)
        assert np.shares_memory(patch, frame)
        assert np.array_equal(patch, frame[3:11, 16:24])
