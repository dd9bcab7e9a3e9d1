"""Pinned x264 kernel outputs, bit for bit.

The digests below were recorded from the search that bilinearly sampled
every candidate on demand, before reference frames were interpolated
into quarter-pel planes and the sub-pel walk was memoized.  Both are
pure speed-ups, so the encoder must keep reproducing every float exactly
(compared as ``float.hex()``): PSNR, bits and modelled work per frame,
and each motion estimate's vector, reference, cost and work.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.apps.x264 import Encoder, ReferencePlanes, estimate_motion
from repro.experiments.common import Scale
from repro.experiments.registry import get_spec

ENCODE_DIGESTS = {
    # (subme, merange, ref): SHA-256 of [(psnr.hex(), bits, work.hex())] per frame
    (1, 1, 1): "f53d565e53c96b62e73f41fbf798bcd79aefbf80b77b1771081a4d0ddc505dd0",
    (1, 1, 3): "65c25d3a3c76d012a71a8cb4f265c3d0cc32ff6e633b6577bac6396171561729",
    (1, 8, 1): "b9818472858c6a523aff14ca49af18687c62cc44442bb113652e9f133e1880df",
    (1, 8, 3): "675994599ab5c6936e266d6dd8538aac607a0d9a2604e188143274b102f42366",
    (4, 1, 1): "bcd92fc9caa1c6a8e998a4e2a3a889a957f055810de7300e2e1d4fe73c766c32",
    (4, 1, 3): "e769f5c5153659ce68033e76718eb93ba656c2103fcfd9f2ef15ae745a56dcc6",
    (4, 8, 1): "b1bbb5628a33c8ed4da27494c2510f4b816b3db73cbbcd402f40cff2939d19b4",
    (4, 8, 3): "8e21709c55769dc659ee4c0bcaab18b18fd1eaba1b737763f53e77bcb6ed957b",
    (7, 1, 1): "fa26eb533a049826fdf6b44ed6ad8eb2d679f72a7f7a8c5af3ee4168f3f5503d",
    (7, 1, 3): "a67bfdd880c69a7be70ff9227f1b2766ec28d73421d8e982ee18e148d40b1d42",
    (7, 8, 1): "c58a27c9877e8d739b646c59c9e0719e788ab86e746bc7e4733f0b6bdc607eaf",
    (7, 8, 3): "6b2a2d94485a6837376c717812f54d1d3e5c43df008566ead099c3f8a93ceb8f",
}

MOTION_DIGESTS = {
    # fixture: SHA-256 of {"by,bx/merange-subme-ref_count":
    #   (mv_y.hex(), mv_x.hex(), ref_index, cost.hex(), work.hex())}
    "shift(2, -3)": "872ebbbf9cac11d9d2b814b43292aa459dcbfeea064630e40081506e330f8b37",
    "shift(6, 0)": "6c03fff89c7eeca7bea7a3426eed0ecb4311944c69aa61f8f20f2aa10f699fad",
    "shift(1, 1)": "c193b1026879bbb7ebb1ad08d95a8163c3e9e3a548cf205a7fe1164940b4c12b",
    "shift(2, 2)": "934b398b73d9d64610141866aceebe75fd7d1c71475f400f6868db801a311df6",
    "halfpel": "b56d603a4c3e0e82126b854ba04de27fb1e08b34aa5ce2675bffd93d7ef4c70e",
}


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _motion_fixtures() -> dict[str, tuple[np.ndarray, list[np.ndarray]]]:
    """The frames of ``test_x264.py``'s motion tests, with three references."""
    fixtures = {}
    for shift in ((2, -3), (6, 0), (1, 1), (2, 2)):
        reference = np.random.default_rng(5).uniform(0, 255, size=(32, 32))
        frame = np.roll(reference, shift, axis=(0, 1))
        fixtures[f"shift{shift}"] = (
            frame,
            [
                reference,
                np.roll(reference, 1, axis=0),
                np.roll(reference, (4, 4), axis=(0, 1)),
            ],
        )
    reference = np.random.default_rng(7).uniform(0, 255, size=(32, 32))
    shifted = 0.5 * (reference[:, :-1] + reference[:, 1:])
    fixtures["halfpel"] = (shifted, [reference])
    return fixtures


@pytest.mark.parametrize("knobs", sorted(ENCODE_DIGESTS))
def test_encoder_outputs_are_pinned(knobs):
    subme, merange, ref = knobs
    video = get_spec("x264").training_jobs(Scale.TINY)[0]
    encoder = Encoder()
    records = []
    for frame in video.frames:
        stats = encoder.encode_frame(frame, subme=subme, merange=merange, ref=ref)
        records.append([float(stats.psnr_db).hex(), stats.bits, float(stats.work).hex()])
    assert _digest(records) == ENCODE_DIGESTS[knobs]


@pytest.mark.parametrize("name", sorted(MOTION_DIGESTS))
def test_motion_estimates_are_pinned(name):
    frame, references = _motion_fixtures()[name]
    planes = [ReferencePlanes(reference) for reference in references]
    height, width = frame.shape
    records = {}
    # Interior, top-left corner, bottom-right-most block, top edge.
    for block_y, block_x in ((8, 8), (0, 0), (height - 8, width // 8 * 8 - 8), (0, 16)):
        block = frame[block_y : block_y + 8, block_x : block_x + 8]
        for merange in (1, 2, 4, 8):
            for subme in range(1, 8):
                for ref_count in (1, 3):
                    estimate = estimate_motion(
                        block, planes, block_y, block_x,
                        merange=merange, subme=subme, ref_count=ref_count,
                    )
                    records[f"{block_y},{block_x}/{merange}-{subme}-{ref_count}"] = [
                        float(estimate.mv_y).hex(),
                        float(estimate.mv_x).hex(),
                        estimate.ref_index,
                        float(estimate.cost).hex(),
                        float(estimate.work).hex(),
                    ]
    assert _digest(records) == MOTION_DIGESTS[name]
