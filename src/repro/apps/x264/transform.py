"""Transform, quantization, and entropy-size model (H.264-style).

The residual path of the encoder: 8x8 orthonormal DCT, uniform
quantization with a dead zone, zigzag run-length scanning with
exponential-Golomb size accounting (the bit count an entropy coder of
the CAVLC family would produce, without materializing the bitstream),
and exact reconstruction (dequantize + inverse DCT) so the encoder's
reference frames contain true coding error.
"""

from __future__ import annotations

import operator

import numpy as np
from scipy.fft import dctn, idctn

__all__ = [
    "BLOCK",
    "ZIGZAG",
    "forward_transform",
    "inverse_transform",
    "quantize",
    "dequantize",
    "golomb_bits",
    "block_bits",
    "encode_block",
]

BLOCK = 8
"""Transform block size."""


def _zigzag_order(n: int) -> np.ndarray:
    """Indices visiting an n x n block in zigzag (anti-diagonal) order."""
    order = sorted(
        ((i, j) for i in range(n) for j in range(n)),
        key=lambda ij: (ij[0] + ij[1], ij[1] if (ij[0] + ij[1]) % 2 else ij[0]),
    )
    return np.array([i * n + j for i, j in order])


ZIGZAG = _zigzag_order(BLOCK)
"""Zigzag scan order for an 8x8 block."""


def forward_transform(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DCT-II of one 8x8 block."""
    return dctn(block, norm="ortho")


def inverse_transform(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_transform`."""
    return idctn(coefficients, norm="ortho")


def quantize(coefficients: np.ndarray, qstep: float) -> np.ndarray:
    """Uniform dead-zone quantizer: levels = round(coef / qstep)."""
    if qstep <= 0:
        raise ValueError(f"quantizer step must be positive, got {qstep!r}")
    return np.round(coefficients / qstep).astype(np.int32)


def dequantize(levels: np.ndarray, qstep: float) -> np.ndarray:
    """Reconstruction: coef = level * qstep."""
    return levels.astype(np.float64) * qstep


def golomb_bits(value: int) -> int:
    """Bits to code ``value`` with signed exponential-Golomb.

    Signed mapping: 0 -> 0, 1 -> 1, -1 -> 2, 2 -> 3, ... then the
    unsigned Exp-Golomb length ``2 * floor(log2(v + 1)) + 1``.
    """
    value = operator.index(value)
    mapped = 2 * value - 1 if value > 0 else -2 * value
    # floor(log2(mapped + 1)) exactly, for ints of any size.
    return 2 * (mapped + 1).bit_length() - 1


def block_bits(levels: np.ndarray) -> int:
    """Entropy-size estimate of one quantized 8x8 block.

    Zigzag run-length coding: each nonzero level costs the Golomb length
    of the preceding zero-run plus the Golomb length of the level; a
    terminator closes the block.
    """
    scanned = levels.ravel()[ZIGZAG]
    bits = 0
    run = 0
    for level in scanned.tolist():
        if level == 0:
            run += 1
            continue
        bits += golomb_bits(run) + golomb_bits(int(level))
        run = 0
    bits += golomb_bits(0) + 1  # end-of-block marker
    return bits


def encode_block(
    residual: np.ndarray, qstep: float
) -> tuple[np.ndarray, int, float]:
    """Transform-code one residual block.

    Returns:
        ``(reconstructed_residual, bits, work)`` — the decoded residual
        the reference frame will contain, the entropy-size estimate, and
        the abstract work units of the transform/quantize/entropy stage.
    """
    coefficients = forward_transform(residual)
    levels = quantize(coefficients, qstep)
    bits = block_bits(levels)
    reconstructed = inverse_transform(dequantize(levels, qstep))
    # 2 transforms (~6 ops per point each) + quantizer + scan per point.
    work = residual.size * (2 * 6.0 + 2.0)
    return reconstructed, bits, work
