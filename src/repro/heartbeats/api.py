"""Application Heartbeats (Hoffmann et al., ICAC 2010).

The feedback substrate PowerDial builds on.  An application registers a
heartbeat monitor, declares a target heart-rate window, and calls
:meth:`HeartbeatMonitor.heartbeat` once per unit of useful work (one loop
iteration of the main control loop).  Observers — the PowerDial controller,
experiment harnesses — read instantaneous and windowed heart rates.

Timestamps come from a :class:`~repro.hardware.clock.VirtualClock` so that
heart rates reflect simulated execution time, exactly as the real API
reflects wall-clock time.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.hardware.clock import VirtualClock

__all__ = [
    "HeartbeatRecord",
    "HeartbeatMonitor",
    "HeartbeatError",
    "HeartbeatWindowState",
]


class HeartbeatError(RuntimeError):
    """Raised for invalid heartbeat API usage."""


class HeartbeatRecord(NamedTuple):
    """One emitted heartbeat (an immutable record, cheap to build).

    Attributes:
        sequence: Monotonically increasing beat number, starting at 0.
        timestamp: Virtual time at which the beat was emitted.
        tag: Optional application-supplied label (e.g. frame number).
    """

    sequence: int
    timestamp: float
    tag: object | None = None


@dataclass(frozen=True)
class HeartbeatWindowState:
    """A monitor's rate-window state, detached for warm handoff.

    Everything a *new* monitor needs to continue another monitor's
    sliding-window statistics without a cold restart: the live
    migration path (:meth:`~repro.core.runtime.PowerDialRuntime.
    snapshot`) ships this between hosts.  Plain floats and tuples, so
    it pickles across process boundaries.

    Attributes:
        count: Beats the source monitor had emitted.
        last_timestamp: Timestamp of the source's last beat (None when
            it never beat) — lets the first beat after a restore close
            its interval, provided the destination clock has reached
            that instant.
        intervals: The sliding window's beat intervals, oldest first.
        window_sum: The source's *running* interval sum — carried
            verbatim (not recomputed) so restored rate queries
            reproduce the source's floats exactly.
    """

    count: int
    last_timestamp: float | None
    intervals: tuple[float, ...]
    window_sum: float


class HeartbeatMonitor:
    """Registry and rate statistics for one application's heartbeats.

    Mirrors the Application Heartbeats API surface used by the paper:
    ``register`` (construction), ``heartbeat``, current/window/global rate
    queries, and min/max target rates.

    Args:
        clock: Source of timestamps.
        window_size: Number of most recent beat *intervals* in the sliding
            window (the paper and [35] use 20).
        min_target_rate: Minimum desired heart rate in beats/second.
        max_target_rate: Maximum desired heart rate in beats/second.
    """

    def __init__(
        self,
        clock: VirtualClock,
        window_size: int = 20,
        min_target_rate: float | None = None,
        max_target_rate: float | None = None,
    ) -> None:
        if window_size < 1:
            raise HeartbeatError(f"window_size must be >= 1, got {window_size!r}")
        self._clock = clock
        self._window_size = window_size
        # The beat log, kept as plain columns rather than one record per
        # beat: every local beat's timestamp, and the tags of the beats
        # that were given one (local index -> tag).  :attr:`records`
        # rebuilds the records on demand.
        self._times: list[float] = []
        self._tags: dict[int, object] = {}
        # Sequence offset of the first locally emitted beat: 0 normally,
        # the carried-over beat count after restore_window(), so beat
        # numbering continues across a warm handoff.
        self._base = 0
        self._intervals: deque[float] = deque(maxlen=window_size)
        # Running sum of the window's intervals, maintained incrementally
        # so the per-beat rate queries are O(1) instead of O(window).
        self._window_sum = 0.0
        self.set_targets(min_target_rate, max_target_rate)

    # ------------------------------------------------------------------
    # Targets
    # ------------------------------------------------------------------
    def set_targets(
        self, min_rate: float | None, max_rate: float | None
    ) -> None:
        """Declare the desired heart-rate window.

        Either bound may be ``None`` (unconstrained).  The paper's
        experiments set both to the measured baseline rate.
        """
        if min_rate is not None and min_rate <= 0:
            raise HeartbeatError(f"min target rate must be positive, got {min_rate!r}")
        if max_rate is not None and max_rate <= 0:
            raise HeartbeatError(f"max target rate must be positive, got {max_rate!r}")
        if min_rate is not None and max_rate is not None and min_rate > max_rate:
            raise HeartbeatError(
                f"min target {min_rate!r} exceeds max target {max_rate!r}"
            )
        self._min_target = min_rate
        self._max_target = max_rate

    @property
    def min_target_rate(self) -> float | None:
        """Minimum desired heart rate (beats/second), if declared."""
        return self._min_target

    @property
    def max_target_rate(self) -> float | None:
        """Maximum desired heart rate (beats/second), if declared."""
        return self._max_target

    @property
    def target_rate(self) -> float | None:
        """Midpoint of the target window (the controller's setpoint ``g``)."""
        if self._min_target is None and self._max_target is None:
            return None
        if self._min_target is None:
            return self._max_target
        if self._max_target is None:
            return self._min_target
        return 0.5 * (self._min_target + self._max_target)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def heartbeat(self, tag: object | None = None) -> HeartbeatRecord:
        """Emit one heartbeat at the current virtual time."""
        now = self._clock.now
        times = self._times
        local = len(times)
        if local:
            interval = now - times[-1]
            if interval < 0:
                raise HeartbeatError("heartbeat timestamps went backwards")
            intervals = self._intervals
            if len(intervals) == self._window_size:
                self._window_sum -= intervals[0]
            intervals.append(interval)
            self._window_sum += interval
        if tag is not None:
            self._tags[local] = tag
        times.append(now)
        return HeartbeatRecord(self._base + local, now, tag)

    def commit_run(
        self, timestamps: Sequence[float]
    ) -> tuple[int, list[float | None]]:
        """Emit a run of heartbeats at precomputed timestamps, in one call.

        The bulk twin of :meth:`heartbeat`.  It has no caller in the
        package; the repository benchmark's tracer (``perfbench/trace.py``)
        still patches it by name.  The caller has already computed the
        exact clock values successive beats would observe, and this
        method reproduces — float for float — the window state that the
        same number of sequential :meth:`heartbeat` calls would leave
        behind (the interval recurrence runs in emission order on the
        same running ``window_sum``).

        Returns ``(first_sequence, window_rates)``: the sequence number
        of the run's first beat, and one :meth:`window_rate` value per
        beat, observed *after* that beat (``None`` while no interval
        exists or the window duration is non-positive).

        The per-beat log is collapsed to a single trailing untagged
        beat (the same trick :meth:`restore_window`
        uses), so :attr:`count`, the next interval, and
        :meth:`export_window` are exact while :attr:`records` and
        :meth:`global_rate` only see the collapsed history.  The commit
        is atomic: a backwards timestamp raises before any state
        changes.
        """
        n = len(timestamps)
        if n == 0:
            return self.count, []
        window_size = self._window_size
        last = self._times[-1] if self._times else None
        if last is not None and n >= 8 and len(self._intervals) == window_size:
            bulk = self._commit_run_filled(timestamps, last, n)
            if bulk is not None:
                return bulk
        if not isinstance(timestamps, list):
            # Normalize ndarray/tuple input so the recurrence below runs
            # on Python floats, like per-beat heartbeat() calls would.
            timestamps = [float(t) for t in timestamps]
        intervals = deque(self._intervals, maxlen=window_size)
        window_sum = self._window_sum
        rates: list[float | None] = []
        for now in timestamps:
            if last is not None:
                interval = now - last
                if interval < 0:
                    raise HeartbeatError("heartbeat timestamps went backwards")
                if len(intervals) == window_size:
                    window_sum -= intervals[0]
                intervals.append(interval)
                window_sum += interval
            last = now
            if intervals and window_sum > 0.0:
                rates.append(len(intervals) / window_sum)
            else:
                rates.append(None)
        first = self._base + len(self._times)
        self._base = first + n - 1
        self._times = [timestamps[-1]]
        self._tags = {}
        self._intervals = intervals
        self._window_sum = window_sum
        return first, rates

    def _commit_run_filled(
        self, timestamps: Sequence[float], last: float, n: int
    ) -> tuple[int, list[float | None]] | None:
        """Vectorized :meth:`commit_run` for the filled-window steady state.

        With the interval window already full, every beat performs the
        same three-operation recurrence — evict the oldest interval, add
        the newest, read ``window_size / window_sum`` — so the whole run
        unrolls into one strictly sequential ``np.add.accumulate`` over
        the interleaved ``(-evicted, +appended)`` stream, seeded with the
        current ``window_sum``.  Each chain element is the identical IEEE
        binary add the scalar loop would execute (``x - old`` equals
        ``x + (-old)`` bit for bit), so the emitted rates and the final
        window state match the loop exactly.  Returns ``None`` — leaving
        all state untouched — when any intermediate window sum is
        non-positive, which the loop handles with per-beat ``None``
        rates.
        """
        window_size = self._window_size
        ts = np.asarray(timestamps, dtype=float)
        # The eviction stream is simply the interval stream delayed by
        # ``window_size``: pool = [existing window | new intervals].
        pool = np.empty(window_size + n)
        pool[:window_size] = self._intervals
        news = pool[window_size:]
        news[0] = ts[0] - last
        if n > 1:
            np.subtract(ts[1:], ts[:-1], out=news[1:])
        if float(news.min()) < 0.0:
            raise HeartbeatError("heartbeat timestamps went backwards")
        chain = np.empty(2 * n + 1)
        chain[0] = self._window_sum
        np.negative(pool[:n], out=chain[1::2])
        chain[2::2] = news
        np.add.accumulate(chain, out=chain)
        sums = chain[2::2]
        if float(sums.min()) <= 0.0:
            return None
        rates = (window_size / sums).tolist()
        first = self._base + len(self._times)
        self._base = first + n - 1
        self._times = [float(ts[-1])]
        self._tags = {}
        self._intervals = deque(pool[n:].tolist(), maxlen=window_size)
        self._window_sum = float(chain[-1])
        return first, rates

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total number of beats emitted (carried-over beats included)."""
        return self._base + len(self._times)

    @property
    def records(self) -> list[HeartbeatRecord]:
        """All emitted heartbeat records, rebuilt from the beat log."""
        base, tags = self._base, self._tags
        return [
            HeartbeatRecord(base + index, timestamp, tags.get(index))
            for index, timestamp in enumerate(self._times)
        ]

    @property
    def window_size(self) -> int:
        """Sliding window length (in intervals)."""
        return self._window_size

    def last_interval(self) -> float | None:
        """Seconds between the two most recent beats, if any."""
        if not self._intervals:
            return None
        return self._intervals[-1]

    def instant_rate(self) -> float | None:
        """Instantaneous heart rate: 1 / last interval."""
        interval = self.last_interval()
        if interval is None or interval == 0.0:
            return None
        return 1.0 / interval

    def window_rate(self) -> float | None:
        """Heart rate over the sliding window (beats/second).

        Computed as the window beat count divided by the window duration —
        equivalently the reciprocal of the mean interval.  Returns ``None``
        until at least one interval exists.  O(1): the window duration is
        maintained as a running sum as beats arrive.
        """
        if not self._intervals:
            return None
        total = self._window_sum
        if total <= 0.0:
            return None
        return len(self._intervals) / total

    def global_rate(self) -> float | None:
        """Average rate over the whole execution so far."""
        times = self._times
        if len(times) < 2:
            return None
        span = times[-1] - times[0]
        if span == 0.0:
            return None
        return (len(times) - 1) / span

    def window_mean_interval(self) -> float | None:
        """Mean of the window's beat intervals (the paper's 'sliding mean
        of the last twenty times between heartbeats').  O(1) via the
        running window sum."""
        if not self._intervals:
            return None
        return self._window_sum / len(self._intervals)

    def reset(self) -> None:
        """Forget all beats, carried-over ones included (targets are
        preserved)."""
        self._times.clear()
        self._tags.clear()
        self._base = 0
        self._intervals.clear()
        self._window_sum = 0.0

    # ------------------------------------------------------------------
    # Warm handoff
    # ------------------------------------------------------------------
    def export_window(self) -> HeartbeatWindowState:
        """Detach the rate-window state for a warm handoff.

        The returned :class:`HeartbeatWindowState` carries the beat
        count, the last beat's timestamp, and the sliding window with
        its *running* sum, so a monitor restored from it continues the
        windowed statistics float-for-float.
        """
        return HeartbeatWindowState(
            count=self.count,
            last_timestamp=self._times[-1] if self._times else None,
            intervals=tuple(self._intervals),
            window_sum=self._window_sum,
        )

    def restore_window(self, state: HeartbeatWindowState) -> None:
        """Continue another monitor's window on this (fresh) monitor.

        Beat numbering resumes at ``state.count``; the sliding window
        and its running sum are adopted verbatim.  When the carried
        last-beat timestamp is not in this clock's future, it is
        replayed as the previous beat so the first local beat closes
        its interval exactly as an unmigrated run would; otherwise
        (the source ran ahead of this clock, e.g. a migration drain)
        the first local beat starts a fresh interval.  Only valid on a
        monitor that has not yet beaten; targets are untouched.
        """
        if self._times or self._base:
            raise HeartbeatError(
                "restore_window requires a fresh monitor (beats already "
                "emitted)"
            )
        if len(state.intervals) > self._window_size:
            raise HeartbeatError(
                f"carried window of {len(state.intervals)} intervals does "
                f"not fit a window_size={self._window_size} monitor"
            )
        if state.count <= 0:
            return
        if (
            state.last_timestamp is not None
            and state.last_timestamp <= self._clock.now
        ):
            self._base = state.count - 1
            self._times.append(state.last_timestamp)
        else:
            self._base = state.count
        self._intervals = deque(state.intervals, maxlen=self._window_size)
        self._window_sum = state.window_sum
