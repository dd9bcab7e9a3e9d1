"""Transform, quantization, and entropy-size model (H.264-style).

The residual path of the encoder: 8x8 orthonormal DCT, uniform
quantization with a dead zone, zigzag run-length scanning with
exponential-Golomb size accounting (the bit count an entropy coder of
the CAVLC family would produce, without materializing the bitstream),
and exact reconstruction (dequantize + inverse DCT) so the encoder's
reference frames contain true coding error.

Every stage takes one ``8 x 8`` block or a ``(B, 8, 8)`` stack of them:
the encoder codes a whole frame's residuals in one pass.  A stacked
transform gives each block the same bits as transforming it alone, and
the stacked bit counts are exact integers.
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
    "golomb_lengths",
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
    """Orthonormal 2D DCT-II of each 8x8 block (the last two axes)."""
    return dctn(block, axes=(-2, -1), norm="ortho")


def inverse_transform(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_transform`."""
    return idctn(coefficients, axes=(-2, -1), norm="ortho")


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


def golomb_lengths(values: np.ndarray) -> np.ndarray:
    """:func:`golomb_bits` of each element, as an integer array.

    The signed mapping makes the length ``2 * bit_length(|value|) + 1``
    (``mapped + 1`` is ``2|value|`` or ``2|value| + 1``), and ``frexp``'s
    exponent is that bit length, exactly for ``|value| < 2**53``.
    """
    return 2 * np.frexp(np.asarray(values, dtype=np.float64))[1] + 1


_POSITIONS = np.arange(BLOCK * BLOCK)
_END_OF_BLOCK_BITS = golomb_bits(0) + 1


def block_bits(levels: np.ndarray) -> int | np.ndarray:
    """Entropy-size estimate of one quantized 8x8 block, or of each in a stack.

    Zigzag run-length coding: each nonzero level costs the Golomb length
    of the preceding zero-run plus the Golomb length of the level; a
    terminator closes the block.

    Returns:
        An ``int`` for one ``(8, 8)`` block; an ``int64`` array of shape
        ``levels.shape[:-2]`` for a stack.
    """
    levels = np.asarray(levels)
    scanned = levels.reshape(-1, BLOCK * BLOCK)[:, ZIGZAG]
    nonzero = scanned != 0
    # The last nonzero position at or before each position (-1 if none);
    # the zero-run before position p ends at the last nonzero before p.
    last = np.maximum.accumulate(np.where(nonzero, _POSITIONS, -1), axis=1)
    previous = np.concatenate((np.full((len(scanned), 1), -1), last[:, :-1]), axis=1)
    runs = _POSITIONS - previous - 1
    symbols = np.where(nonzero, golomb_lengths(runs) + golomb_lengths(scanned), 0)
    bits = symbols.sum(axis=1) + _END_OF_BLOCK_BITS
    if levels.ndim == 2:
        return int(bits[0])
    return bits.reshape(levels.shape[:-2])


def encode_block(
    residual: np.ndarray, qstep: float
) -> tuple[np.ndarray, int | np.ndarray, float]:
    """Transform-code one residual block, or each block of a stack.

    Returns:
        ``(reconstructed_residual, bits, work)`` — the decoded residual
        the reference frame will contain, the entropy-size estimate
        (per block, as :func:`block_bits` returns it), and the abstract
        work units of the transform/quantize/entropy stage, in total.
    """
    coefficients = forward_transform(residual)
    levels = quantize(coefficients, qstep)
    bits = block_bits(levels)
    reconstructed = inverse_transform(dequantize(levels, qstep))
    # 2 transforms (~6 ops per point each) + quantizer + scan per point.
    work = residual.size * (2 * 6.0 + 2.0)
    return reconstructed, bits, work
