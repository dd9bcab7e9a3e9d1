"""Typed, byte-stable delta codec for the shard barrier plane.

The sharded backend's barrier-protocol v2 (:mod:`repro.datacenter.
shard`) moves bulk barrier state through preallocated
``multiprocessing.shared_memory`` segments instead of pickling whole
snapshots over pipes.  This module is the wire format of those
segments: fixed-width little-endian records, one codec shared by the
worker (encode) and coordinator (decode) sides, with zero pickling on
the hot path.

Three record types cross the barrier plane:

* **tenant records** — the dynamic fields of one
  :class:`~repro.datacenter.controlplane.actions.TenantView`
  (placement, queue depth, SLA shortfall, billing-ledger counters,
  finished flag) keyed by the tenant's binding index.  The static
  fields (name, weight) never change, so both sides hold them in
  tables and a record is a *full snapshot of the dynamic fields* —
  applying any record sequence ending in the current one reproduces
  the in-process view bit-for-bit, which is what makes the deltas
  composable (ARCHITECTURE.md invariant 10).
* **score records** — one machine's weighted SLA-shortfall demand
  (the per-machine aggregate a hierarchical arbiter consumes), keyed
  by machine index.
* **cap records** — one machine's applied cap in watts, keyed by
  machine index (the downstream half of the barrier).

"Delta" means *which* keys get records, never lossy field diffs:
a sender ships a record exactly when its packed bytes differ from the
bytes it last shipped for that key, so the receiver's resident table
is always bitwise equal to the sender's current state.  Encoding is
canonical (struct-packed, no hashing, no compression), so the same
values always produce the same bytes — byte-stable across processes,
runs, and platforms of the same endianness convention (the format
pins little-endian explicitly).

Every segment starts with a :data:`HEADER` — ``(seq, count)`` — where
``seq`` is the barrier ordinal (1-based; a freshly zeroed segment
reads ``seq == 0``, i.e. "nothing published") and ``count`` is the
number of records that follow.  Writers publish payload first and the
header's ``seq`` word last, so a reader that observes the expected
``seq`` is guaranteed a complete payload.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from repro.datacenter.controlplane.actions import TenantView

__all__ = [
    "CAP_RECORD",
    "HEADER",
    "SCORE_RECORD",
    "TENANT_RECORD",
    "decode_cap_records",
    "decode_score_records",
    "decode_tenant_records",
    "encode_cap_record",
    "encode_score_record",
    "encode_tenant_record",
    "publish",
    "read_header",
]

HEADER = struct.Struct("<qq")
"""Segment header: ``(seq, count)``; ``seq`` is written last."""

TENANT_RECORD = struct.Struct("<iiqq?ddd")
"""One tenant-view delta: ``(binding_index, machine_index,
pending_jobs, steps, finished, sla_shortfall, energy_joules,
busy_seconds)`` — every dynamic :class:`TenantView` field, exact."""

SCORE_RECORD = struct.Struct("<id")
"""One machine-demand delta: ``(machine_index, weighted_shortfall)``."""

CAP_RECORD = struct.Struct("<id")
"""One applied-cap delta: ``(machine_index, cap_watts)``."""


def encode_tenant_record(binding_index: int, view: TenantView) -> bytes:
    """Pack one tenant view's dynamic fields into its wire record.

    Ints and bools pack exactly; floats pack as IEEE-754 doubles, so
    decoding reproduces every field bit-for-bit.  The static fields
    (``name``, ``weight``) are supplied from resident tables at decode
    time — they are immutable per binding index for the whole run.
    """
    return TENANT_RECORD.pack(
        binding_index,
        view.machine_index,
        view.pending_jobs,
        view.steps,
        view.finished,
        view.sla_shortfall,
        view.energy_joules,
        view.busy_seconds,
    )


def decode_tenant_records(
    buffer,
    count: int,
    names: Sequence[str],
    weights: Sequence[float],
) -> list[tuple[int, TenantView]]:
    """Unpack ``count`` tenant records into full :class:`TenantView`\\ s.

    ``names``/``weights`` are the static per-binding tables both sides
    hold.  Returns ``(binding_index, view)`` pairs in wire order;
    applying them over the receiver's resident table (last write per
    index wins) reproduces the sender's views bit-for-bit.
    """
    views: list[tuple[int, TenantView]] = []
    offset = HEADER.size
    for _ in range(count):
        (
            binding_index,
            machine_index,
            pending_jobs,
            steps,
            finished,
            sla_shortfall,
            energy_joules,
            busy_seconds,
        ) = TENANT_RECORD.unpack_from(buffer, offset)
        offset += TENANT_RECORD.size
        views.append(
            (
                binding_index,
                TenantView(
                    name=names[binding_index],
                    machine_index=machine_index,
                    weight=weights[binding_index],
                    sla_shortfall=sla_shortfall,
                    pending_jobs=pending_jobs,
                    finished=finished,
                    energy_joules=energy_joules,
                    busy_seconds=busy_seconds,
                    steps=steps,
                ),
            )
        )
    return views


def encode_score_record(machine_index: int, score: float) -> bytes:
    """Pack one machine's weighted-shortfall demand record."""
    return SCORE_RECORD.pack(machine_index, score)


def decode_score_records(buffer, count: int) -> list[tuple[int, float]]:
    """Unpack ``count`` score records as ``(machine_index, score)``."""
    return list(
        SCORE_RECORD.iter_unpack(
            bytes(buffer[HEADER.size : HEADER.size + count * SCORE_RECORD.size])
        )
    )


def encode_cap_record(machine_index: int, cap_watts: float) -> bytes:
    """Pack one machine's applied-cap record."""
    return CAP_RECORD.pack(machine_index, cap_watts)


def decode_cap_records(buffer, count: int) -> list[tuple[int, float]]:
    """Unpack ``count`` cap records as ``(machine_index, cap_watts)``."""
    return list(
        CAP_RECORD.iter_unpack(
            bytes(buffer[HEADER.size : HEADER.size + count * CAP_RECORD.size])
        )
    )


def publish(buffer, seq: int, records: Iterable[bytes]) -> int:
    """Write ``records`` then the header into ``buffer``; return count.

    The payload and the header's ``count`` word land before the ``seq``
    word: a reader that checks ``seq`` therefore never observes a
    half-published barrier.  Returns the record count written.
    """
    offset = HEADER.size
    count = 0
    for record in records:
        end = offset + len(record)
        buffer[offset:end] = record
        offset = end
        count += 1
    # count first, seq last — seq is the ready flag.
    buffer[8:16] = struct.pack("<q", count)
    buffer[0:8] = struct.pack("<q", seq)
    return count


def read_header(buffer) -> tuple[int, int]:
    """Read ``(seq, count)`` from a segment's header."""
    return HEADER.unpack_from(buffer, 0)
