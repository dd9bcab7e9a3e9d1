"""Deterministic run journals: record, replay, resume, and audit runs.

Every control barrier of a journaled run appends one NDJSON record —
the policy's raw actions, the applied budget/caps/migrations/failures,
and a full cluster checkpoint (warm runtime snapshots, arrival-stream
cursors, per-barrier billing ledger deltas) — under a header that
captures the complete scenario config, RNG seeds included.  That makes
the journal a *sufficient statistic* for the run (ARCHITECTURE.md
invariant 7): :func:`~repro.datacenter.journal.replay.replay`
re-executes it byte-identically with zero other inputs,
:func:`~repro.datacenter.journal.replay.resume` finishes a crashed run
with the journaled prefix attested barrier-by-barrier, and the chaos
scenarios lean on the same checkpoints to rebuild a dead machine's
tenants on survivors.

Module map:

* :mod:`~repro.datacenter.journal.codec` — the one versioned JSON
  codec every serialized control-plane object goes through (journal
  records, ``--bill`` output); canonical bytes, one schema read from
  the records' field annotations, and decode errors that name the
  offending field.
* :mod:`~repro.datacenter.journal.writer` — the append-only,
  per-line-flushed NDJSON writer and destination validation
  (:func:`~repro.datacenter.journal.writer.prepare_journal_path`).
* :mod:`~repro.datacenter.journal.reader` — journal parsing into typed
  :class:`~repro.datacenter.checkpoint.BarrierRecord`\\ s — the same
  record the engine keeps per barrier — with crash-torn final lines
  tolerated.
* :mod:`~repro.datacenter.journal.replay` — the three consumers:
  ``replay()``, ``resume()``, and the ``journaled_run()`` recorder,
  plus the header check that rebuilds a run from its scenario.
"""

from repro.datacenter.checkpoint import BarrierRecord
from repro.datacenter.journal.codec import (
    CODEC_VERSION,
    JournalDecodeError,
    JournalError,
    canonical_json,
    decode_barrier,
    decode_record,
    encode_barrier,
    encode_record,
)
from repro.datacenter.journal.reader import Journal, read_journal
from repro.datacenter.journal.replay import (
    ReplayPolicy,
    build_engine_from_header,
    journaled_run,
    replay,
    result_payload,
    resume,
)
from repro.datacenter.journal.writer import (
    JOURNAL_SCHEMA_VERSION,
    JournalWriter,
    prepare_journal_path,
)

__all__ = [
    "CODEC_VERSION",
    "JOURNAL_SCHEMA_VERSION",
    "JournalDecodeError",
    "JournalError",
    "JournalWriter",
    "BarrierRecord",
    "Journal",
    "ReplayPolicy",
    "build_engine_from_header",
    "canonical_json",
    "decode_barrier",
    "decode_record",
    "encode_barrier",
    "encode_record",
    "journaled_run",
    "prepare_journal_path",
    "read_journal",
    "replay",
    "result_payload",
    "resume",
]
