"""Property-based tests on the encoder's transform/entropy invariants
and on the lock-step motion search."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.x264 import (
    BLOCK,
    ZIGZAG,
    block_bits,
    encode_block,
    estimate_motion,
    forward_transform,
    golomb_bits,
    inverse_transform,
    search_blocks,
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

    @pytest.mark.parametrize("subme", range(1, 8))
    def test_prepare_fills_every_phase_the_subme_reads(self, subme):
        """A search at subme 1 scores whole pels, at 2-3 half pels and at
        4+ quarter pels; after ``prepare(subme)`` every such patch is the
        sampled patch, and none needs a plane ``prepare`` left empty."""
        height, width = 16, 24
        frame = np.random.default_rng(subme).uniform(0.0, 255.0, (height, width))
        planes = ReferencePlanes(frame)
        planes.prepare(subme)
        filled = planes._filled
        step = 4 if subme == 1 else 2 if subme <= 3 else 1
        for qy in range(-8, 4 * (height - 8) + 9, step):
            for qx in range(-8, 4 * (width - 8) + 9, step):
                y, x = qy / 4, qx / 4
                assert np.array_equal(
                    planes.patch(y, x), _sample_patch(frame, y, x, 8)
                ), (y, x)
        assert planes._filled == filled

    def test_integer_positions_are_views_of_the_frame(self):
        frame = np.random.default_rng(4).uniform(0, 255, size=(16, 24))
        patch = ReferencePlanes(frame).patch(3, 16.0)
        assert np.shares_memory(patch, frame)
        assert np.array_equal(patch, frame[3:11, 16:24])


def _scalar_block_bits(levels: np.ndarray) -> int:
    """Zigzag run-length bits of one block, one Python int at a time."""

    def golomb(value: int) -> int:
        mapped = 2 * value - 1 if value > 0 else -2 * value
        return 2 * (mapped + 1).bit_length() - 1

    bits = 0
    run = 0
    for index in ZIGZAG.tolist():
        level = int(levels[index // BLOCK, index % BLOCK])
        if level == 0:
            run += 1
            continue
        bits += golomb(run) + golomb(level)
        run = 0
    return bits + golomb(0) + 1


INT32_MAX = 2**31 - 1

level_stacks = arrays(
    np.int32,
    st.tuples(st.integers(1, 6), st.just(BLOCK), st.just(BLOCK)),
    elements=st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.integers(-INT32_MAX, INT32_MAX),
    ),
)


class TestStackedBlockBits:
    @given(levels=level_stacks)
    @example(levels=np.zeros((3, BLOCK, BLOCK), dtype=np.int32))
    @example(levels=np.ones((2, BLOCK, BLOCK), dtype=np.int32))
    @example(levels=np.full((1, BLOCK, BLOCK), INT32_MAX, dtype=np.int32))
    @example(levels=np.full((1, BLOCK, BLOCK), -INT32_MAX, dtype=np.int32))
    @example(
        levels=np.stack(
            [
                np.zeros((BLOCK, BLOCK), dtype=np.int32),
                np.where(
                    np.arange(BLOCK * BLOCK).reshape(BLOCK, BLOCK) % 2,
                    INT32_MAX,
                    -INT32_MAX,
                ).astype(np.int32),
            ]
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_bits_equal_the_scalar_oracle(self, levels):
        stacked = block_bits(levels)
        assert stacked.shape == levels.shape[:1]
        expected = [_scalar_block_bits(block) for block in levels]
        assert stacked.tolist() == expected
        assert [block_bits(block) for block in levels] == expected


SIDES = st.sampled_from([8, 16, 24, 32, 40, 48])


def _search_inputs(height, width, seed, reference_count):
    """A frame that moves by a fraction of a pel against its references."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 255.0, size=(height, width))
    texture = (base + np.roll(base, 1, axis=0) + np.roll(base, 1, axis=1)) / 3.0
    shift = tuple(int(v) for v in rng.integers(-3, 4, size=2))
    moved = np.roll(texture, shift, axis=(0, 1))
    frame = 0.5 * (moved + np.roll(moved, 1, axis=1)) + rng.normal(
        0.0, 2.0, size=(height, width)
    )
    references = [
        ReferencePlanes(np.roll(texture, (k, -k), axis=(0, 1)))
        for k in range(reference_count)
    ]
    return frame, references


class TestLockStepSearch:
    @given(
        height=SIDES,
        width=SIDES,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        reference_count=st.integers(1, 3),
        subme=st.integers(1, 7),
        merange=st.integers(1, 12),
        ref_count=st.integers(1, 4),
        picks=st.lists(st.integers(0, 35), min_size=1, max_size=36, unique=True),
    )
    @example(
        height=8, width=8, seed=0, reference_count=1,
        subme=7, merange=1, ref_count=1, picks=[0],
    )
    @example(
        height=48, width=32, seed=3, reference_count=3,
        subme=7, merange=8, ref_count=3, picks=[23, 0, 5, 17, 11],
    )
    @settings(max_examples=50, deadline=None)
    def test_each_lane_is_its_one_lane_search(
        self, height, width, seed, reference_count, subme, merange, ref_count, picks
    ):
        """Any subset of a frame's blocks, in any order: each block's
        batched result is bit for bit the one it gets searched alone."""
        frame, references = _search_inputs(height, width, seed, reference_count)
        positions = [
            (y, x) for y in range(0, height, BLOCK) for x in range(0, width, BLOCK)
        ]
        chosen = list(dict.fromkeys(pick % len(positions) for pick in picks))
        block_ys = [positions[index][0] for index in chosen]
        block_xs = [positions[index][1] for index in chosen]
        blocks = [
            frame[y : y + BLOCK, x : x + BLOCK] for y, x in zip(block_ys, block_xs)
        ]
        field = search_blocks(
            blocks, references, block_ys, block_xs, merange, subme, ref_count
        )
        lanes = enumerate(zip(blocks, block_ys, block_xs))
        for lane, (block, block_y, block_x) in lanes:
            alone = estimate_motion(
                block, references, block_y, block_x,
                merange=merange, subme=subme, ref_count=ref_count,
            )
            assert float(field.mv_y[lane]).hex() == float(alone.mv_y).hex()
            assert float(field.mv_x[lane]).hex() == float(alone.mv_x).hex()
            assert int(field.ref_index[lane]) == alone.ref_index
            assert float(field.cost[lane]).hex() == float(alone.cost).hex()
            assert float(field.work[lane]).hex() == float(alone.work).hex()
            assert np.array_equal(field.prediction[lane], alone.prediction)
