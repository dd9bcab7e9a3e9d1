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
    ReferencePlanes,
    SubmeProfile,
    estimate_motion,
)
from repro.apps.x264.transform import (
    BLOCK,
    ZIGZAG,
    block_bits,
    dequantize,
    encode_block,
    forward_transform,
    golomb_bits,
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
    "MotionEstimate",
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
    "block_bits",
    "encode_block",
]
