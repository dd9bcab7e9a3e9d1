"""Property tests for the shard barrier-plane delta codec.

The codec's contract (ARCHITECTURE.md invariant 10) has three legs:

* **byte-stable** — the same values always pack to the same bytes, so
  "did it change?" is decidable by byte comparison alone;
* **round-trip exact** — decode(encode(x)) reproduces every field
  bit-for-bit (IEEE-754 doubles included, ``-0.0`` and all);
* **composable** — records are full snapshots of the dynamic fields,
  so applying *any* record sequence over a resident table leaves the
  table equal to applying only the last record per key, which is what
  lets senders ship only changed keys.

All three are checked with hypothesis over the full value domain the
engine can produce (finite floats, 64-bit counters, arbitrary
interleavings of keys).
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import deltas
from repro.datacenter.controlplane.actions import TenantView

N_BINDINGS = 8
NAMES = [f"tenant-{i}" for i in range(N_BINDINGS)]
WEIGHTS = [1.0 + 0.25 * i for i in range(N_BINDINGS)]

finite = st.floats(allow_nan=False, allow_infinity=False)
nonneg = st.floats(
    allow_nan=False, allow_infinity=False, min_value=0.0
)
counter = st.integers(min_value=0, max_value=2**62)
machine_index = st.integers(min_value=0, max_value=2**31 - 2)


@st.composite
def tenant_updates(draw):
    """One ``(binding_index, TenantView)`` pair with coherent statics."""
    bindex = draw(st.integers(min_value=0, max_value=N_BINDINGS - 1))
    view = TenantView(
        name=NAMES[bindex],
        machine_index=draw(machine_index),
        weight=WEIGHTS[bindex],
        sla_shortfall=draw(nonneg),
        pending_jobs=draw(counter),
        finished=draw(st.booleans()),
        energy_joules=draw(finite),
        busy_seconds=draw(finite),
        steps=draw(counter),
    )
    return bindex, view


def published(records):
    """Round ``records`` through a freshly zeroed segment buffer."""
    buffer = bytearray(
        deltas.HEADER.size + sum(len(r) for r in records)
    )
    count = deltas.publish(buffer, 1, records)
    assert deltas.read_header(buffer) == (1, count)
    return buffer, count


def bits(value: float) -> int:
    """The raw IEEE-754 representation (distinguishes -0.0 from 0.0)."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


class TestTenantRecords:
    @given(tenant_updates())
    @settings(deadline=None)
    def test_round_trip_reproduces_view_bit_for_bit(self, update):
        bindex, view = update
        record = deltas.encode_tenant_record(bindex, view)
        buffer, count = published([record])
        [(got_index, got)] = deltas.decode_tenant_records(
            buffer, count, NAMES, WEIGHTS
        )
        assert got_index == bindex
        assert got == view
        # Bitwise, not just ==: re-encoding the decoded view must give
        # back the original record (so the receiver's byte-compare
        # baseline is exact, -0.0 vs 0.0 included).
        assert deltas.encode_tenant_record(got_index, got) == record

    @given(tenant_updates())
    @settings(deadline=None)
    def test_encoding_is_byte_stable(self, update):
        bindex, view = update
        assert deltas.encode_tenant_record(
            bindex, view
        ) == deltas.encode_tenant_record(bindex, view)

    @given(st.lists(tenant_updates(), min_size=1, max_size=24))
    @settings(deadline=None)
    def test_record_sequences_compose(self, updates):
        # Applying the full interleaved sequence over a resident table
        # must equal applying only each key's final record — the
        # invariant that makes shipping only changed keys lossless.
        replayed: dict[int, TenantView] = {}
        records = [
            deltas.encode_tenant_record(bindex, view)
            for bindex, view in updates
        ]
        buffer, count = published(records)
        for bindex, view in deltas.decode_tenant_records(
            buffer, count, NAMES, WEIGHTS
        ):
            replayed[bindex] = view
        last_only = {bindex: view for bindex, view in updates}
        assert replayed == last_only


class TestCapRecords:
    @given(machine_index, finite)
    @settings(deadline=None)
    def test_cap_round_trip_is_exact(self, index, watts):
        record = deltas.encode_cap_record(index, watts)
        buffer, count = published([record])
        [(got_index, got)] = deltas.decode_cap_records(buffer, count)
        assert got_index == index
        assert bits(got) == bits(watts)


class TestPublish:
    @given(
        st.lists(st.tuples(machine_index, finite), max_size=6),
        st.lists(st.tuples(machine_index, finite), max_size=6),
    )
    @settings(deadline=None)
    def test_republish_overwrites_header_and_payload(self, first, second):
        # A segment is reused every barrier: the header must always
        # describe the latest publish, and a shorter second payload
        # must not leak stale trailing records into the decode.
        size = deltas.HEADER.size + 6 * deltas.CAP_RECORD.size
        buffer = bytearray(size)
        deltas.publish(
            buffer,
            1,
            [deltas.encode_cap_record(i, w) for i, w in first],
        )
        count = deltas.publish(
            buffer,
            2,
            [deltas.encode_cap_record(i, w) for i, w in second],
        )
        assert deltas.read_header(buffer) == (2, len(second))
        decoded = deltas.decode_cap_records(buffer, count)
        assert [(i, bits(w)) for i, w in decoded] == [
            (i, bits(w)) for i, w in second
        ]

    def test_fresh_segment_reads_seq_zero(self):
        buffer = bytearray(deltas.HEADER.size)
        assert deltas.read_header(buffer) == (0, 0)
