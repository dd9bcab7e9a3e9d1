"""Motion estimation (paper Section 4.2).

The three x264 dynamic knobs live here:

* ``merange`` — the integer full-search radius around the block position;
* ``ref`` — how many previous reconstructed frames are searched;
* ``subme`` — the sub-pixel refinement effort: higher levels run more
  half-pel and quarter-pel refinement iterations and (at 6+) switch the
  refinement cost metric from SAD to the more faithful (and costlier)
  Hadamard SATD.

Reference frames are interpolated once: :class:`ReferencePlanes` holds a
reconstructed frame with its 15 fractional quarter-pel planes, built when
the encoder adds the frame to its reference list (as x264 runs its
half-pel filter once per frame).  Motion vectors are always multiples of
a quarter pel, so every candidate the search scores is a slice of one
plane, bit-identical to bilinearly sampling the frame at that position.
The greedy sub-pel walk also remembers each position it has scored for
a block and reference, and looks a revisit up instead of re-scoring it.

Every candidate evaluation is counted as work (``block pixels`` units per
SAD, double for SATD), which is what makes the knobs performance knobs.
Work is the modelled encoder's cost, so it is charged per evaluation,
looked up or not: the planes and the memo make the simulation faster
but leave the knobs' modelled cost range (Figure 5b, ~4.5x) unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.apps.x264.transform import BLOCK

__all__ = [
    "SubmeProfile",
    "SUBME_PROFILES",
    "MotionEstimate",
    "ReferencePlanes",
    "estimate_motion",
]


@dataclass(frozen=True)
class SubmeProfile:
    """Refinement schedule implied by one subme level.

    Attributes:
        half_pel_iterations: Half-pel refinement rounds (8 candidates each).
        quarter_pel_iterations: Quarter-pel rounds after half-pel.
        use_satd: Use Hadamard SATD for sub-pel costs (2x work per
            candidate, better decisions).
    """

    half_pel_iterations: int
    quarter_pel_iterations: int
    use_satd: bool


SUBME_PROFILES: dict[int, SubmeProfile] = {
    1: SubmeProfile(0, 0, False),
    2: SubmeProfile(1, 0, False),
    3: SubmeProfile(2, 0, False),
    4: SubmeProfile(2, 1, False),
    5: SubmeProfile(2, 2, False),
    6: SubmeProfile(2, 2, True),
    7: SubmeProfile(3, 3, True),
}
"""x264's subme 1-7, mapped to concrete refinement schedules."""


@dataclass(frozen=True)
class MotionEstimate:
    """Result of motion search for one block.

    Attributes:
        mv_y: Vertical motion (pixels; quarter-pel resolution).
        mv_x: Horizontal motion.
        ref_index: Which reference frame won.
        cost: Matching cost of the winner (SAD or SATD units).
        work: Work units spent searching.
        prediction: The winning predicted block.
    """

    mv_y: float
    mv_x: float
    ref_index: int
    cost: float
    work: float
    prediction: np.ndarray


def _sad(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).sum())


_HADAMARD = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, -1, 1, -1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, -1, -1, 1, 1, -1, -1, 1],
        [1, 1, 1, 1, -1, -1, -1, -1],
        [1, -1, 1, -1, -1, 1, -1, 1],
        [1, 1, -1, -1, -1, -1, 1, 1],
        [1, -1, -1, 1, -1, 1, 1, -1],
    ],
    dtype=np.float64,
)


def _satd(a: np.ndarray, b: np.ndarray) -> float:
    difference = a - b
    transformed = _HADAMARD @ difference @ _HADAMARD.T
    return float(np.abs(transformed).sum() / 8.0)


def _sample_patch(frame: np.ndarray, y: float, x: float, size: int) -> np.ndarray:
    """Bilinearly sample a ``size x size`` patch at fractional (y, x).

    The reference definition that :meth:`ReferencePlanes.patch` must
    reproduce bit for bit; the search itself reads the planes.
    """
    height, width = frame.shape
    y = float(np.clip(y, 0.0, height - size))
    x = float(np.clip(x, 0.0, width - size))
    y0, x0 = int(np.floor(y)), int(np.floor(x))
    fy, fx = y - y0, x - x0
    y1 = min(y0 + 1, height - size)
    x1 = min(x0 + 1, width - size)
    p00 = frame[y0 : y0 + size, x0 : x0 + size]
    if fy == 0.0 and fx == 0.0:
        return p00
    p01 = frame[y0 : y0 + size, x1 : x1 + size]
    p10 = frame[y1 : y1 + size, x0 : x0 + size]
    p11 = frame[y1 : y1 + size, x1 : x1 + size]
    return (
        (1 - fy) * (1 - fx) * p00
        + (1 - fy) * fx * p01
        + fy * (1 - fx) * p10
        + fy * fx * p11
    )


_QUARTERS = (0.0, 0.25, 0.5, 0.75)


class ReferencePlanes:
    """A reference frame interpolated at every quarter-pel phase.

    Plane ``(fy, fx)`` holds, at ``(r, c)``, the bilinear sample of the
    frame at ``(r + fy, c + fx)``, computed with :func:`_sample_patch`'s
    exact expression and term order, so each element is the same IEEE
    result.  The shifted copies replicate the last row and column; a
    replicated value only reaches a patch with weight 0, because a patch
    that covers the last row is clipped to ``fy == 0`` (and one that
    covers the last column to ``fx == 0``).

    Args:
        frame: The reconstructed reference frame.
    """

    __slots__ = ("frame", "_max_y", "_max_x", "_planes")

    def __init__(self, frame: np.ndarray) -> None:
        height, width = frame.shape
        self.frame = frame
        self._max_y = height - BLOCK
        self._max_x = width - BLOCK
        p01 = np.concatenate((frame[:, 1:], frame[:, -1:]), axis=1)
        p10 = np.concatenate((frame[1:], frame[-1:]), axis=0)
        p11 = np.concatenate((p01[1:], p01[-1:]), axis=0)
        self._planes: dict[tuple[float, float], np.ndarray] = {}
        for fy in _QUARTERS:
            for fx in _QUARTERS:
                self._planes[fy, fx] = (
                    frame
                    if fy == 0.0 and fx == 0.0
                    else (1 - fy) * (1 - fx) * frame
                    + (1 - fy) * fx * p01
                    + fy * (1 - fx) * p10
                    + fy * fx * p11
                )

    def patch(self, y: float, x: float) -> np.ndarray:
        """The block-sized patch at quarter-pel (y, x), clipped to the frame.

        Equal, element for element, to ``_sample_patch(frame, y, x, BLOCK)``.
        """
        y = min(max(y, 0.0), self._max_y)
        x = min(max(x, 0.0), self._max_x)
        y0, x0 = int(y), int(x)
        plane = self._planes[y - y0, x - x0]
        return plane[y0 : y0 + BLOCK, x0 : x0 + BLOCK]


def _integer_search(
    block: np.ndarray,
    reference: np.ndarray,
    block_y: int,
    block_x: int,
    merange: int,
) -> tuple[int, int, float, float]:
    """Exhaustive integer-pel search; returns (mv_y, mv_x, sad, work)."""
    size = block.shape[0]
    height, width = reference.shape
    top = max(0, block_y - merange)
    left = max(0, block_x - merange)
    bottom = min(height, block_y + merange + size)
    right = min(width, block_x + merange + size)
    window = reference[top:bottom, left:right]
    candidates = sliding_window_view(window, (size, size))
    sads = np.sum(
        np.abs(candidates - block[None, None, :, :]), axis=(2, 3)
    )
    best_flat = int(np.argmin(sads))
    rows = sads.shape[1]
    best_y, best_x = divmod(best_flat, rows)
    mv_y = (top + best_y) - block_y
    mv_x = (left + best_x) - block_x
    work = float(sads.size * block.size)
    return mv_y, mv_x, float(sads[best_y, best_x]), work


def _refine(
    block: np.ndarray,
    reference: ReferencePlanes,
    block_y: int,
    block_x: int,
    mv_y: float,
    mv_x: float,
    cost: float,
    step: float,
    iterations: int,
    use_satd: bool,
    scored: dict[tuple[float, float, bool], float],
) -> tuple[float, float, float, float]:
    """Iterative 8-neighbour sub-pel refinement at the given step size.

    ``scored`` maps each (y, x, metric) already evaluated for this block
    and reference to its cost; a revisit is looked up rather than
    re-scored, but still charged as one evaluation.
    """
    metric = _satd if use_satd else _sad
    work_per_eval = block.size * (2.0 if use_satd else 1.0)

    def evaluate(y: float, x: float) -> float:
        key = (y, x, use_satd)
        candidate_cost = scored.get(key)
        if candidate_cost is None:
            candidate_cost = scored[key] = metric(block, reference.patch(y, x))
        return candidate_cost

    work = 0.0
    if use_satd:
        # Re-evaluate the incumbent under the refinement metric.
        cost = evaluate(block_y + mv_y, block_x + mv_x)
        work += work_per_eval
    for _ in range(iterations):
        improved = False
        for dy in (-step, 0.0, step):
            for dx in (-step, 0.0, step):
                if dy == 0.0 and dx == 0.0:
                    continue
                candidate_cost = evaluate(block_y + mv_y + dy, block_x + mv_x + dx)
                work += work_per_eval
                if candidate_cost < cost:
                    cost = candidate_cost
                    mv_y += dy
                    mv_x += dx
                    improved = True
        if not improved:
            break
    return mv_y, mv_x, cost, work


def estimate_motion(
    block: np.ndarray,
    references: list[ReferencePlanes],
    block_y: int,
    block_x: int,
    merange: int,
    subme: int,
    ref_count: int,
) -> MotionEstimate:
    """Search ``ref_count`` references for the best prediction of ``block``.

    Args:
        block: The 8x8 source block.
        references: Interpolated reference frames, most recent first.
        block_y: Block's top row in the frame.
        block_x: Block's left column.
        merange: Integer search radius (knob).
        subme: Sub-pixel effort level 1-7 (knob).
        ref_count: Maximum reference frames to search (knob).
    """
    if merange < 1:
        raise ValueError(f"merange must be >= 1, got {merange!r}")
    if subme not in SUBME_PROFILES:
        raise ValueError(f"subme must be in 1..7, got {subme!r}")
    if ref_count < 1:
        raise ValueError(f"ref must be >= 1, got {ref_count!r}")
    if not references:
        raise ValueError("motion estimation needs at least one reference frame")
    profile = SUBME_PROFILES[subme]
    best: MotionEstimate | None = None
    total_work = 0.0
    for ref_index, reference in enumerate(references[:ref_count]):
        mv_y, mv_x, cost, work = _integer_search(
            block, reference.frame, block_y, block_x, merange
        )
        total_work += work
        scored: dict[tuple[float, float, bool], float] = {}
        if profile.half_pel_iterations:
            mv_y, mv_x, cost, extra = _refine(
                block, reference, block_y, block_x,
                float(mv_y), float(mv_x), cost,
                step=0.5,
                iterations=profile.half_pel_iterations,
                use_satd=profile.use_satd,
                scored=scored,
            )
            total_work += extra
        if profile.quarter_pel_iterations:
            mv_y, mv_x, cost, extra = _refine(
                block, reference, block_y, block_x,
                float(mv_y), float(mv_x), cost,
                step=0.25,
                iterations=profile.quarter_pel_iterations,
                use_satd=profile.use_satd,
                scored=scored,
            )
            total_work += extra
        if best is None or cost < best.cost:
            best = MotionEstimate(
                mv_y=float(mv_y),
                mv_x=float(mv_x),
                ref_index=ref_index,
                cost=cost,
                work=0.0,
                prediction=reference.patch(block_y + mv_y, block_x + mv_x),
            )
    assert best is not None
    return MotionEstimate(
        mv_y=best.mv_y,
        mv_x=best.mv_x,
        ref_index=best.ref_index,
        cost=best.cost,
        work=total_work,
        prediction=best.prediction,
    )
