"""Motion estimation (paper Section 4.2).

The three x264 dynamic knobs live here:

* ``merange`` — the integer full-search radius around the block position;
* ``ref`` — how many previous reconstructed frames are searched;
* ``subme`` — the sub-pixel refinement effort: higher levels run more
  half-pel and quarter-pel refinement iterations and (at 6+) switch the
  refinement cost metric from SAD to the more faithful (and costlier)
  Hadamard SATD.

Reference frames are interpolated once: :class:`ReferencePlanes` holds a
reconstructed frame with its quarter-pel planes as one ``(16, H, W)``
stack (as x264 runs its half-pel filter once per frame).  A plane is
filled on the first search that can read it: subme 1 scores only integer
positions, subme 2-3 also half-pel ones, and subme 4+ every quarter-pel
phase; the knobs may change between frames, so a reference is filled up
to the highest subme that has searched it.  Motion vectors are always
multiples of a quarter pel, so every candidate the search scores is a
slice of one plane, bit-identical to bilinearly sampling the frame at
that position.

A frame is searched in lock-step (:func:`search_blocks`).  Motion search
reads only earlier reconstructed frames, so the blocks of one frame are
independent, and every (block, reference) pair is one lane of a single
sub-pel walk: for each of the 8 neighbour offsets, in order, one gathered
batch of candidates is scored and the lanes that strictly improve move
at once, mid-iteration.  A lane stops on its own when a full iteration
does not improve it, and each block keeps the first reference with the
lowest cost.  Nothing is memoized: a lane scores each candidate it
visits.  :func:`estimate_motion` is the one-lane call of the same search.

The integer full search stays one call per lane, because its bytes are
tied to numpy's reduction order.  numpy sums the strided
``(rows, cols, 8, 8)`` temporary in an order that depends on its layout,
and that order is part of the pinned results: block (8, 24) of the TINY
x264 training video's frame 1, searched against frame 0 as reconstructed
at knobs (subme, merange, ref) = (4, 8, 1), has the integer SAD
``376.4067695828929``, while a contiguous ``.sum()`` of the same patch
gives ``376.4067695828928``.  The sub-pel costs are contiguous sums of
one ``8 x 8`` difference each, batched or not.

Every candidate evaluation is counted as work (``block pixels`` units per
SAD, double for SATD), which is what makes the knobs performance knobs.
Work is the modelled encoder's cost, so batching the search leaves the
knobs' modelled cost range (Figure 5b, ~4.5x) unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.apps.x264.transform import BLOCK

__all__ = [
    "SubmeProfile",
    "SUBME_PROFILES",
    "MotionEstimate",
    "MotionField",
    "ReferencePlanes",
    "check_knobs",
    "search_blocks",
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


@dataclass(frozen=True)
class MotionField:
    """Result of motion search for a set of blocks, one entry per block.

    Attributes:
        mv_y: ``(B,)`` vertical motion (pixels; quarter-pel resolution).
        mv_x: ``(B,)`` horizontal motion.
        ref_index: ``(B,)`` which reference frame won.
        cost: ``(B,)`` matching cost of the winner (SAD or SATD units).
        work: ``(B,)`` work units spent searching.
        prediction: ``(B, 8, 8)`` winning predicted blocks.
    """

    mv_y: np.ndarray
    mv_x: np.ndarray
    ref_index: np.ndarray
    cost: np.ndarray
    work: np.ndarray
    prediction: np.ndarray


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


_QUARTERS = np.array([0.0, 0.25, 0.5, 0.75])
# Plane k = 4 * qy + qx holds phase (fy, fx) = (qy / 4, qx / 4); plane 0 is
# the frame.  The bilinear weights of planes 1-15, as _sample_patch forms
# them.
_FY = np.repeat(_QUARTERS, 4)[1:, None, None]
_FX = np.tile(_QUARTERS, 4)[1:, None, None]
_WEIGHTS = ((1 - _FY) * (1 - _FX), (1 - _FY) * _FX, _FY * (1 - _FX), _FY * _FX)

_HALF_PELS = np.array([2, 8, 10])
_HALF_PEL_WEIGHTS = tuple(weight[_HALF_PELS - 1] for weight in _WEIGHTS)
_PHASE_LEVEL = tuple(
    0 if k == 0 else 1 if k in _HALF_PELS else 2 for k in range(16)
)
"""The fill level that holds each plane: 0 the frame, 1 the half-pel
planes and 2 every plane."""


class ReferencePlanes:
    """A reference frame interpolated at every quarter-pel phase.

    ``planes[4 * qy + qx]`` holds, at ``(r, c)``, the bilinear sample of
    the frame at ``(r + qy / 4, c + qx / 4)``, computed with
    :func:`_sample_patch`'s exact expression and term order, so each
    element is the same IEEE result.  The shifted copies replicate the
    last row and column; a replicated value only reaches a patch with
    weight 0, because a patch that covers the last row is clipped to
    ``fy == 0`` (and one that covers the last column to ``fx == 0``).

    Only plane 0 (the frame) is filled at construction; :meth:`prepare`
    fills the planes a subme level reads, and a plane not yet filled
    holds arbitrary values.

    Args:
        frame: The reconstructed reference frame.
    """

    __slots__ = ("frame", "planes", "_filled", "_windows", "_max_y", "_max_x")

    def __init__(self, frame: np.ndarray) -> None:
        height, width = frame.shape
        self.frame = frame
        self._max_y = height - BLOCK
        self._max_x = width - BLOCK
        # Every block-sized window of the frame, as a read-only view (what
        # sliding_window_view builds, without its argument checking).
        self._windows = as_strided(
            frame,
            shape=(height - BLOCK + 1, width - BLOCK + 1, BLOCK, BLOCK),
            strides=frame.strides * 2,
            writeable=False,
        )
        self.planes = np.empty((16, height, width))
        self.planes[0] = frame
        self._filled = 0

    def prepare(self, subme: int) -> None:
        """Fill every plane a search at ``subme`` can read."""
        profile = SUBME_PROFILES[subme]
        # A walk's positions stay even in quarter pels until its first
        # quarter-pel step.
        if profile.quarter_pel_iterations:
            self._fill(2)
        elif profile.half_pel_iterations:
            self._fill(1)

    def _fill(self, level: int) -> None:
        if level <= self._filled:
            return
        frame = self.frame
        p01 = np.concatenate((frame[:, 1:], frame[:, -1:]), axis=1)
        p10 = np.concatenate((frame[1:], frame[-1:]), axis=0)
        p11 = np.concatenate((p01[1:], p01[-1:]), axis=0)
        if level == 2:
            # Every fractional plane, in place; a half-pel plane filled
            # earlier gets the same values again.
            weights, fractional = _WEIGHTS, self.planes[1:]
        else:
            weights, fractional = _HALF_PEL_WEIGHTS, np.empty((3,) + frame.shape)
        w00, w01, w10, w11 = weights
        # w00 * frame + w01 * p01 + w10 * p10 + w11 * p11, added left to
        # right as _sample_patch adds them.
        np.multiply(w00, frame, out=fractional)
        fractional += w01 * p01
        fractional += w10 * p10
        fractional += w11 * p11
        if level == 1:
            self.planes[_HALF_PELS] = fractional
        self._filled = level

    def patch(self, y: float, x: float) -> np.ndarray:
        """The block-sized patch at quarter-pel (y, x), clipped to the frame.

        Equal, element for element, to ``_sample_patch(frame, y, x, BLOCK)``;
        an integer position is a view of the frame itself.  A phase not yet
        filled is filled first.
        """
        y = min(max(y, 0.0), self._max_y)
        x = min(max(x, 0.0), self._max_x)
        y0, x0 = int(y), int(x)
        phase = int(16 * (y - y0) + 4 * (x - x0))
        if not phase:
            source = self.frame
        else:
            self._fill(_PHASE_LEVEL[phase])
            source = self.planes[phase]
        return source[y0 : y0 + BLOCK, x0 : x0 + BLOCK]


def check_knobs(merange: int, subme: int, ref_count: int) -> None:
    """Raise ``ValueError`` unless the three motion-search knobs are valid."""
    if merange < 1:
        raise ValueError(f"merange must be >= 1, got {merange!r}")
    if subme not in SUBME_PROFILES:
        raise ValueError(f"subme must be in 1..7, got {subme!r}")
    if ref_count < 1:
        raise ValueError(f"ref must be >= 1, got {ref_count!r}")


def _integer_search(
    block: np.ndarray,
    reference: ReferencePlanes,
    block_y: int,
    block_x: int,
    merange: int,
) -> tuple[int, int, float, float]:
    """Exhaustive integer-pel search; returns (mv_y, mv_x, sad, work).

    numpy sums the strided temporary in an order set by its layout, and
    that order is part of the pinned bytes (see the module docstring), so
    the SADs are this expression exactly, one lane at a time.
    """
    height, width = reference.frame.shape
    top = max(0, block_y - merange)
    left = max(0, block_x - merange)
    bottom = min(height, block_y + merange + BLOCK) - BLOCK + 1
    right = min(width, block_x + merange + BLOCK) - BLOCK + 1
    candidates = reference._windows[top:bottom, left:right]
    sads = np.add.reduce(np.abs(candidates - block[None, None, :, :]), axis=(2, 3))
    best_y, best_x = divmod(int(sads.argmin()), sads.shape[1])
    work = float(sads.size * block.size)
    sad = float(sads[best_y, best_x])
    return top + best_y - block_y, left + best_x - block_x, sad, work


_NEIGHBOURS = tuple(
    (dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx
)
"""The 8 refinement offsets, in units of the step, in scan order."""


def _reach(profile: SubmeProfile) -> int:
    """How far (quarter pels) a sub-pel walk can score from its start.

    An iteration moves a lane at most 3 steps along each axis (only 3 of
    the 8 offsets share a sign), and scores nothing further out.
    """
    return 3 * (2 * profile.half_pel_iterations + profile.quarter_pel_iterations)


class _Lanes:
    """Gather geometry of one lock-step search.

    Lane ``b * R + r`` is block ``b`` against reference ``r``.  A lane's
    position is one integer, its index into ``starts``: reference ``r``'s
    table of ``(qy + reach, qx + reach)``, quarter-pel rows by columns,
    each entry the flat offset of that clipped position's patch.  The
    walk never scores beyond its reach, so a move is one addition.
    """

    def __init__(
        self,
        blocks: np.ndarray,
        references: Sequence[ReferencePlanes],
        reach: int,
    ) -> None:
        count = len(references)
        _, height, width = references[0].planes.shape
        plane_size = height * width
        self.flat = np.stack([reference.planes for reference in references]).ravel()
        self.offsets = (
            np.arange(BLOCK)[:, None] * width + np.arange(BLOCK)[None, :]
        ).ravel()
        self.reach = reach
        rows = np.arange(-reach, 4 * (height - BLOCK) + reach + 1)
        rows = np.minimum(np.maximum(rows, 0), 4 * (height - BLOCK))
        cols = np.arange(-reach, 4 * (width - BLOCK) + reach + 1)
        cols = np.minimum(np.maximum(cols, 0), 4 * (width - BLOCK))
        self.row_stride = cols.size
        self.reference_stride = rows.size * cols.size
        self.starts = (
            (16 * plane_size * np.arange(count))[:, None, None]
            + (4 * (rows & 3) * plane_size + (rows >> 2) * width)[None, :, None]
            + ((cols & 3) * plane_size + (cols >> 2))[None, None, :]
        ).ravel()
        self.sources = np.repeat(blocks.reshape(-1, BLOCK * BLOCK), count, axis=0)

    def position(
        self, reference: np.ndarray, qy: np.ndarray, qx: np.ndarray
    ) -> np.ndarray:
        """Lane positions of quarter-pel (qy, qx) in ``reference``."""
        return (
            reference * self.reference_stride
            + (qy + self.reach) * self.row_stride
            + (qx + self.reach)
        )

    def quarter_pels(self, position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The quarter-pel (qy, qx) of lane positions."""
        qy, qx = np.divmod(position % self.reference_stride, self.row_stride)
        return qy - self.reach, qx - self.reach

    def patches(self, position: np.ndarray) -> np.ndarray:
        """``(n, 64)`` patches at lane positions."""
        return self.flat[self.starts[position][:, None] + self.offsets]

    def costs(
        self, sources: np.ndarray, position: np.ndarray, use_satd: bool
    ) -> np.ndarray:
        """Sub-pel cost of each source block against the patch at its position."""
        difference = sources - self.patches(position)
        if not use_satd:
            return np.add.reduce(np.abs(difference), axis=1)
        transformed = _HADAMARD @ difference.reshape(-1, BLOCK, BLOCK) @ _HADAMARD.T
        magnitudes = np.abs(transformed).reshape(-1, BLOCK * BLOCK)
        return np.add.reduce(magnitudes, axis=1) / 8.0


def search_blocks(
    blocks: Sequence[np.ndarray],
    references: Sequence[ReferencePlanes],
    block_ys: Sequence[int],
    block_xs: Sequence[int],
    merange: int,
    subme: int,
    ref_count: int,
) -> MotionField:
    """Search ``ref_count`` references for every block, in lock-step.

    Each block's result is the one :func:`estimate_motion` gives it alone,
    bit for bit: lanes never read each other's state.

    Args:
        blocks: The 8x8 source blocks.
        references: Interpolated reference frames, most recent first.
        block_ys: Each block's top row in the frame.
        block_xs: Each block's left column.
        merange: Integer search radius (knob).
        subme: Sub-pixel effort level 1-7 (knob).
        ref_count: Maximum reference frames to search (knob).
    """
    check_knobs(merange, subme, ref_count)
    if not references:
        raise ValueError("motion estimation needs at least one reference frame")
    if not len(blocks):
        raise ValueError("motion estimation needs at least one block")
    profile = SUBME_PROFILES[subme]
    searched = references[:ref_count]
    for reference in searched:
        reference.prepare(subme)
    count = len(searched)
    block_count = len(blocks)
    lanes = _Lanes(np.array(blocks, dtype=np.float64), searched, _reach(profile))

    found = [
        _integer_search(block, reference, block_y, block_x, merange)
        for block, block_y, block_x in zip(blocks, block_ys, block_xs)
        for reference in searched
    ]
    mv_y, mv_x, cost, work = (np.array(column) for column in zip(*found))
    origin_y = 4 * np.repeat(np.asarray(block_ys, dtype=np.int64), count)
    origin_x = 4 * np.repeat(np.asarray(block_xs, dtype=np.int64), count)
    reference_of = np.tile(np.arange(count), block_count)
    position = lanes.position(reference_of, origin_y + 4 * mv_y, origin_x + 4 * mv_x)

    work_per_eval = BLOCK * BLOCK * (2.0 if profile.use_satd else 1.0)
    rescored = False
    for step, iterations in (
        (2, profile.half_pel_iterations),
        (1, profile.quarter_pel_iterations),
    ):
        if not iterations:
            continue
        if profile.use_satd:
            # Score the incumbent under the refinement metric (once: a
            # later stage's incumbent already carries that metric's cost).
            if not rescored:
                cost = lanes.costs(lanes.sources, position, use_satd=True)
                rescored = True
            work += work_per_eval
        moves = [step * (dy * lanes.row_stride + dx) for dy, dx in _NEIGHBOURS]
        active = np.arange(block_count * count)
        for _ in range(iterations):
            sources = lanes.sources[active]
            lane_position, lane_cost = position[active], cost[active]
            improved = np.zeros(active.size, dtype=bool)
            for move in moves:
                candidate_position = lane_position + move
                candidate = lanes.costs(sources, candidate_position, profile.use_satd)
                # Strictly better candidates move their lane at once.
                better = candidate < lane_cost
                lane_position = np.where(better, candidate_position, lane_position)
                lane_cost = np.where(better, candidate, lane_cost)
                improved |= better
            position[active], cost[active] = lane_position, lane_cost
            work[active] += len(moves) * work_per_eval
            active = active[improved]
            if not active.size:
                break

    # Each block keeps the first reference with the lowest cost.
    by_reference = cost.reshape(block_count, count)
    best = np.zeros(block_count, dtype=np.int64)
    best_cost = by_reference[:, 0].copy()
    for index in range(1, count):
        better = by_reference[:, index] < best_cost
        best[better] = index
        best_cost[better] = by_reference[better, index]
    winners = np.arange(block_count) * count + best
    qy, qx = lanes.quarter_pels(position[winners])
    return MotionField(
        mv_y=(qy - origin_y[winners]) / 4,
        mv_x=(qx - origin_x[winners]) / 4,
        ref_index=best,
        cost=best_cost,
        work=work.reshape(block_count, count).sum(axis=1),
        prediction=lanes.patches(position[winners]).reshape(block_count, BLOCK, BLOCK),
    )


def estimate_motion(
    block: np.ndarray,
    references: Sequence[ReferencePlanes],
    block_y: int,
    block_x: int,
    merange: int,
    subme: int,
    ref_count: int,
) -> MotionEstimate:
    """Search ``ref_count`` references for the best prediction of ``block``.

    The one-lane call of :func:`search_blocks`.

    Args:
        block: The 8x8 source block.
        references: Interpolated reference frames, most recent first.
        block_y: Block's top row in the frame.
        block_x: Block's left column.
        merange: Integer search radius (knob).
        subme: Sub-pixel effort level 1-7 (knob).
        ref_count: Maximum reference frames to search (knob).
    """
    field = search_blocks(
        [block], references, [block_y], [block_x], merange, subme, ref_count
    )
    return MotionEstimate(
        mv_y=float(field.mv_y[0]),
        mv_x=float(field.mv_x[0]),
        ref_index=int(field.ref_index[0]),
        cost=float(field.cost[0]),
        work=float(field.work[0]),
        prediction=field.prediction[0],
    )
