"""x264 — block-based H.264-style video encoding (Section 4.2)."""

from repro.apps.x264.app import (
    MERANGE_VALUES,
    REF_VALUES,
    SUBME_VALUES,
    X264App,
)
from repro.apps.x264.encoder import Encoder, FrameStats, psnr
from repro.apps.x264.frames import Video, synthesize_video
from repro.apps.x264.motion import (
    SUBME_PROFILES,
    MotionEstimate,
    MotionField,
    ReferencePlanes,
    SubmeProfile,
    check_knobs,
    estimate_motion,
    search_blocks,
)
from repro.apps.x264.transform import (
    BLOCK,
    ZIGZAG,
    block_bits,
    dequantize,
    encode_block,
    forward_transform,
    golomb_bits,
    golomb_lengths,
    inverse_transform,
    quantize,
)

__all__ = [
    "X264App",
    "SUBME_VALUES",
    "MERANGE_VALUES",
    "REF_VALUES",
    "Encoder",
    "FrameStats",
    "psnr",
    "Video",
    "synthesize_video",
    "estimate_motion",
    "search_blocks",
    "check_knobs",
    "MotionEstimate",
    "MotionField",
    "ReferencePlanes",
    "SubmeProfile",
    "SUBME_PROFILES",
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
