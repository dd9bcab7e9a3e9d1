"""Tests for the x264 benchmark (video encoder)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.base import run_job
from repro.apps.x264 import (
    BLOCK,
    Encoder,
    ReferencePlanes,
    SUBME_PROFILES,
    X264App,
    ZIGZAG,
    block_bits,
    encode_block,
    estimate_motion,
    forward_transform,
    golomb_bits,
    inverse_transform,
    psnr,
    synthesize_video,
)
from repro.core.calibration import calibrate
from repro.core.knobs import KnobSpace, Parameter


class TestTransform:
    def test_dct_roundtrip_is_exact(self):
        rng = np.random.default_rng(1)
        block = rng.uniform(0, 255, size=(BLOCK, BLOCK))
        assert np.allclose(inverse_transform(forward_transform(block)), block)

    def test_zigzag_is_a_permutation(self):
        assert sorted(ZIGZAG.tolist()) == list(range(BLOCK * BLOCK))

    def test_zigzag_starts_at_dc_and_walks_antidiagonals(self):
        assert ZIGZAG[0] == 0
        assert set(ZIGZAG[:3].tolist()) == {0, 1, 8}

    def test_golomb_bits_known_values(self):
        # value 0 -> mapped 0 -> 1 bit; value 1 -> mapped 1 -> 3 bits.
        assert golomb_bits(0) == 1
        assert golomb_bits(1) == 3
        assert golomb_bits(-1) == 3
        assert golomb_bits(2) == 5

    def test_golomb_bits_exact_for_large_magnitudes(self):
        # mapped + 1 = 2**53 - 1 has floor(log2) 52, but a float log2
        # rounds it up to 53.0.
        assert golomb_bits(-(2**52 - 1)) == 105
        assert golomb_bits(2**52) == 107

    def test_flat_block_costs_few_bits(self):
        flat = np.zeros((BLOCK, BLOCK), dtype=np.int32)
        textured = np.arange(64, dtype=np.int32).reshape(8, 8) - 32
        assert block_bits(flat) < block_bits(textured)

    def test_coarser_quantizer_fewer_bits_more_error(self):
        rng = np.random.default_rng(2)
        residual = rng.normal(0, 12, size=(BLOCK, BLOCK))
        recon_fine, bits_fine, _ = encode_block(residual, qstep=2.0)
        recon_coarse, bits_coarse, _ = encode_block(residual, qstep=16.0)
        assert bits_coarse < bits_fine
        err_fine = np.mean((recon_fine - residual) ** 2)
        err_coarse = np.mean((recon_coarse - residual) ** 2)
        assert err_fine < err_coarse

    @given(qstep=st.floats(min_value=1.0, max_value=32.0))
    @settings(max_examples=15, deadline=None)
    def test_reconstruction_error_bounded_by_quantizer(self, qstep):
        rng = np.random.default_rng(3)
        residual = rng.normal(0, 10, size=(BLOCK, BLOCK))
        recon, _, _ = encode_block(residual, qstep)
        # Orthonormal DCT: max spatial error <= qstep/2 * 8 (all coefs off
        # by half a step, worst case).
        assert np.max(np.abs(recon - residual)) <= qstep * 4.0 + 1e-9

    def test_invalid_qstep_rejected(self):
        with pytest.raises(ValueError):
            encode_block(np.zeros((8, 8)), qstep=0.0)


def planes(*frames):
    return [ReferencePlanes(frame) for frame in frames]


class TestMotionEstimation:
    def make_pair(self, shift):
        rng = np.random.default_rng(5)
        reference = rng.uniform(0, 255, size=(32, 32))
        frame = np.roll(reference, shift, axis=(0, 1))
        return frame, reference

    def test_recovers_known_integer_shift(self):
        frame, reference = self.make_pair((2, -3))
        block = frame[8:16, 8:16]
        estimate = estimate_motion(
            block, planes(reference), 8, 8, merange=4, subme=1, ref_count=1
        )
        assert (estimate.mv_y, estimate.mv_x) == (-2, 3)
        assert estimate.cost == pytest.approx(0.0)

    def test_merange_too_small_misses_motion(self):
        frame, reference = self.make_pair((6, 0))
        block = frame[8:16, 8:16]
        found = estimate_motion(
            block, planes(reference), 8, 8, merange=8, subme=1, ref_count=1
        )
        missed = estimate_motion(
            block, planes(reference), 8, 8, merange=2, subme=1, ref_count=1
        )
        assert found.cost < missed.cost

    def test_subpel_refinement_improves_cost(self):
        rng = np.random.default_rng(7)
        reference = rng.uniform(0, 255, size=(32, 32))
        # Half-pel shifted target: average of neighbours.
        shifted = 0.5 * (reference[:, :-1] + reference[:, 1:])
        block = shifted[8:16, 8:16]
        integer = estimate_motion(
            block, planes(reference), 8, 8, merange=4, subme=1, ref_count=1
        )
        refined = estimate_motion(
            block, planes(reference), 8, 8, merange=4, subme=3, ref_count=1
        )
        assert refined.cost < integer.cost

    def test_work_grows_with_subme(self):
        frame, reference = self.make_pair((1, 1))
        block = frame[8:16, 8:16]
        works = [
            estimate_motion(
                block, planes(reference), 8, 8, merange=4, subme=s, ref_count=1
            ).work
            for s in (1, 3, 5, 7)
        ]
        assert all(b >= a for a, b in zip(works, works[1:]))

    def test_work_grows_with_merange_and_ref(self):
        frame, reference = self.make_pair((1, 1))
        block = frame[8:16, 8:16]
        refs = [reference, np.roll(reference, 1, axis=0)]
        small = estimate_motion(block, planes(*refs), 8, 8, merange=2, subme=1, ref_count=1)
        large = estimate_motion(block, planes(*refs), 8, 8, merange=8, subme=1, ref_count=2)
        assert large.work > 2.0 * small.work

    def test_more_references_never_hurt_cost(self):
        frame, reference = self.make_pair((2, 2))
        other = np.roll(reference, (4, 4), axis=(0, 1))
        block = frame[8:16, 8:16]
        one = estimate_motion(block, planes(other, reference), 8, 8, 4, 1, ref_count=1)
        two = estimate_motion(block, planes(other, reference), 8, 8, 4, 1, ref_count=2)
        assert two.cost <= one.cost

    def test_subme_profiles_are_monotone_in_effort(self):
        iters = [
            (p.half_pel_iterations + p.quarter_pel_iterations)
            for p in (SUBME_PROFILES[level] for level in range(1, 8))
        ]
        assert all(b >= a for a, b in zip(iters, iters[1:]))

    def test_invalid_arguments_rejected(self):
        block = np.zeros((8, 8))
        reference = np.zeros((32, 32))
        with pytest.raises(ValueError):
            estimate_motion(block, planes(reference), 0, 0, merange=0, subme=1, ref_count=1)
        with pytest.raises(ValueError):
            estimate_motion(block, planes(reference), 0, 0, merange=2, subme=9, ref_count=1)
        with pytest.raises(ValueError):
            estimate_motion(block, planes(reference), 0, 0, merange=2, subme=1, ref_count=0)
        with pytest.raises(ValueError):
            estimate_motion(block, [], 0, 0, merange=2, subme=1, ref_count=1)


class TestEncoder:
    def test_first_frame_is_intra(self):
        video = synthesize_video("v", frames=3, seed=1)
        encoder = Encoder()
        stats = encoder.encode_frame(video.frames[0], subme=1, merange=2, ref=1)
        assert stats.frame_type == "I"
        stats2 = encoder.encode_frame(video.frames[1], subme=1, merange=2, ref=1)
        assert stats2.frame_type == "P"

    def test_reconstruction_quality_reasonable(self):
        video = synthesize_video("v", frames=4, seed=2)
        encoder = Encoder(qstep=6.0)
        for t in range(4):
            stats = encoder.encode_frame(video.frames[t], subme=5, merange=4, ref=2)
            assert stats.psnr_db > 30.0

    def test_p_frames_cheaper_than_intra_in_bits(self):
        video = synthesize_video("v", frames=4, seed=3)
        encoder = Encoder()
        intra = encoder.encode_frame(video.frames[0], subme=5, merange=4, ref=2)
        inter = encoder.encode_frame(video.frames[1], subme=5, merange=4, ref=2)
        assert inter.bits < intra.bits

    def test_better_search_fewer_bits(self):
        """More ME effort -> better prediction -> smaller residual bits."""
        video = synthesize_video("v", frames=8, seed=4)

        def total_bits(subme, merange, ref):
            encoder = Encoder()
            return sum(
                encoder.encode_frame(f, subme=subme, merange=merange, ref=ref).bits
                for f in video.frames
            )

        assert total_bits(7, 8, 3) < total_bits(1, 1, 1)

    def test_reset_forces_intra(self):
        video = synthesize_video("v", frames=2, seed=5)
        encoder = Encoder()
        encoder.encode_frame(video.frames[0], subme=1, merange=1, ref=1)
        encoder.reset()
        stats = encoder.encode_frame(video.frames[1], subme=1, merange=1, ref=1)
        assert stats.frame_type == "I"

    def test_odd_dimensions_rejected(self):
        encoder = Encoder()
        with pytest.raises(ValueError):
            encoder.encode_frame(np.zeros((20, 20)), subme=1, merange=1, ref=1)

    def test_psnr_of_identical_is_capped(self):
        frame = np.full((8, 8), 128.0)
        assert psnr(frame, frame) == 100.0


class TestApp:
    def test_default_configuration(self):
        config = X264App.default_configuration()
        assert config == {"subme": 7, "merange": 8, "ref": 3}

    def test_run_job_outputs_psnr_bits_per_frame(self):
        video = synthesize_video("v", frames=5, seed=6)
        outputs, work, _ = run_job(
            X264App(), {"subme": 2, "merange": 2, "ref": 1}, video
        )
        assert len(outputs) == 5
        for psnr_db, bits in outputs:
            assert psnr_db > 20.0 and bits > 0
        assert work > 0

    def test_calibration_shape_matches_paper(self):
        """Max speedup in the paper's ~4.5x ballpark with small QoS loss."""
        video = synthesize_video("v", frames=8, seed=7)
        space = KnobSpace(
            (
                Parameter("subme", (1, 7), 7),
                Parameter("merange", (1, 8), 8),
                Parameter("ref", (1, 3), 3),
            )
        )
        result = calibrate(X264App, [video], knob_space=space)
        fastest = max(result.points, key=lambda p: p.speedup)
        assert 2.0 < fastest.speedup < 9.0
        assert 0.0 < fastest.qos_loss < 0.3
