"""The block-based video encoder (paper Section 4.2).

A real (if compact) H.264-style encoder: intra frames use per-block DC
prediction; inter frames motion-compensate each 8x8 block from up to
``ref`` reconstructed reference frames found by the knob-controlled
motion search, transform-code the residual, count entropy bits, and
reconstruct the frame into the reference list so coding error propagates
exactly as in a closed-loop encoder.  Each reconstructed frame is
interpolated into its quarter-pel planes once, when it joins the list.
A frame is coded in lock-step: one motion search over all its blocks
(:func:`~repro.apps.x264.motion.search_blocks`) and one transform pass
over the stack of their residuals, since no block depends on another
block of the same frame.  PSNR is measured against the source (the job
of the paper's H.264 reference decoder) and bitrate is the total
entropy-size estimate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.apps.x264.motion import ReferencePlanes, check_knobs, search_blocks
from repro.apps.x264.transform import (
    BLOCK,
    encode_block,
    golomb_bits,
    golomb_lengths,
)

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
    return float(10.0 * np.log10(255.0**2 / mse))


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
        """Encode one frame with the given knob values.

        Raises:
            ValueError: A knob is out of range (checked on every frame,
                intra ones included), the frame's sides are not positive
                multiples of the block size, or a pixel is NaN, infinite or
                outside the luma range [0, 255].
        """
        check_knobs(merange, subme, ref)
        frame = np.asarray(frame, dtype=np.float64)
        height, width = frame.shape
        if not height or not width or height % BLOCK or width % BLOCK:
            raise ValueError(
                f"frame dimensions must be positive multiples of {BLOCK}, "
                f"got {frame.shape}"
            )
        low, high = float(frame.min()), float(frame.max())
        if not 0.0 <= low <= high <= 255.0:  # NaN fails every comparison
            if not np.isfinite(frame).all():
                raise ValueError("frame pixels must be finite")
            raise ValueError(
                f"frame pixels must lie in [0, 255], got [{low!r}, {high!r}]"
            )
        intra = not self._references
        rows, cols = height // BLOCK, width // BLOCK
        # (rows * cols, 8, 8): the blocks in raster order.
        tiles = frame.reshape(rows, BLOCK, cols, BLOCK).swapaxes(1, 2)
        block_ys = [BLOCK * row for row in range(rows) for _ in range(cols)]
        block_xs = [BLOCK * col for _ in range(rows) for col in range(cols)]
        blocks = [
            frame[y : y + BLOCK, x : x + BLOCK] for y, x in zip(block_ys, block_xs)
        ]
        total_work = _FRAME_OVERHEAD_WORK

        if intra:
            # One mean per frame view: a mean over the stacked tiles sums
            # in another order and rounds differently.
            means = np.array([np.mean(block) for block in blocks])
            prediction = np.broadcast_to(
                means[:, None, None], (len(blocks), BLOCK, BLOCK)
            )
            mv_bits = 2 * golomb_bits(0) * len(blocks)
        else:
            field = search_blocks(
                blocks, list(self._references), block_ys, block_xs,
                merange=merange, subme=subme, ref_count=ref,
            )
            prediction = field.prediction
            total_work += float(field.work.sum())
            mv_bits = int(
                (
                    golomb_lengths(np.rint(4 * field.mv_y))
                    + golomb_lengths(np.rint(4 * field.mv_x))
                    + golomb_lengths(field.ref_index)
                ).sum()
            )
        residuals = tiles.reshape(-1, BLOCK, BLOCK) - prediction
        decoded, bits, work = encode_block(residuals, self.qstep)
        total_work += work + len(blocks) * _BLOCK_PIPELINE_WORK
        total_bits = int(bits.sum()) + mv_bits + len(blocks) * _HEADER_BITS_PER_BLOCK
        reconstructed = (
            np.clip(prediction + decoded, 0.0, 255.0)
            .reshape(rows, cols, BLOCK, BLOCK)
            .swapaxes(1, 2)
            .reshape(height, width)
        )

        self._references.appendleft(ReferencePlanes(reconstructed))
        return FrameStats(
            psnr_db=psnr(frame, reconstructed),
            bits=total_bits,
            work=total_work,
            frame_type="I" if intra else "P",
        )
