"""Read a run journal back into typed records.

Each barrier line decodes, through the codec's one annotation-driven
schema (:func:`~repro.datacenter.journal.codec.decode_barrier`), into
the same :class:`~repro.datacenter.checkpoint.BarrierRecord` the
engine kept for that barrier, plus the checkpoints the engine does not
keep.  The header's ``journal_schema`` and ``codec`` versions must be
the ones this build reads.

Line-by-line NDJSON parsing with errors that name the journal path,
the line number, the record kind and the field — a truncated *final*
line (the classic crash artifact: the process died mid-write) is
tolerated and dropped, since by construction everything before it is
complete.

One reader loop serves every consumer, and each decodes only what it
reads.  By default every record is decoded and validated, the
per-barrier tenant and machine checkpoints included, which is what
:func:`~repro.datacenter.journal.replay.resume` attests against.
``checkpoints=False`` (what
:func:`~repro.datacenter.journal.replay.replay` reads, since it
re-executes actions and compares results) still checks the header,
every line, the barrier order, every barrier field outside the
checkpoints and the result, and that each barrier's ``tenants`` and
``machines`` are lists, but leaves the checkpoint entries undecoded: a
malformed checkpoint is reported by the default read, not by that one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.datacenter.checkpoint import BarrierRecord, TenantCheckpoint
from repro.datacenter.journal.codec import (
    CODEC_VERSION,
    JournalDecodeError,
    decode_barrier,
)
from repro.datacenter.journal.writer import JOURNAL_SCHEMA_VERSION

__all__ = ["Journal", "read_journal"]


@dataclass(frozen=True)
class Journal:
    """A fully parsed run journal.

    Attributes:
        path: Where it was read from.
        header: The raw header record (scenario config, versions,
            backend provenance).
        barriers: Every complete barrier record, in time order.
        result: The canonical result payload, or None if the run never
            completed (a crash artifact — resume material).
    """

    path: str
    header: dict[str, Any]
    barriers: tuple[BarrierRecord, ...]
    result: dict[str, Any] | None = field(default=None)

    @property
    def complete(self) -> bool:
        """Whether the journaled run ran to completion."""
        return self.result is not None


def read_journal(path: str, checkpoints: bool = True) -> Journal:
    """Parse a journal file into a :class:`Journal`.

    Raises :class:`~repro.datacenter.journal.codec.JournalDecodeError`
    naming the path, line, and record kind for malformed content; a
    truncated final line is dropped as a crash artifact.  With
    ``checkpoints=False`` each barrier's tenant and machine
    checkpoints are left undecoded (its ``tenants`` and ``machines``
    are None), so a malformed checkpoint entry goes unreported.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        raise JournalDecodeError(f"cannot read journal: {error}", path)

    header: dict[str, Any] | None = None
    barriers: list[BarrierRecord] = []
    previous: dict[str, TenantCheckpoint] = {}
    result: dict[str, Any] | None = None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{number}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines):
                break  # torn final write from a crash; drop it
            raise JournalDecodeError("line is not valid JSON", where) from None
        if not isinstance(record, dict):
            raise JournalDecodeError(
                f"expected a JSON object, got {record!r}", where
            )
        kind = record.get("kind")
        if kind == "header":
            where = f"{where} (header record)"
            if header is not None:
                raise JournalDecodeError("duplicate header record", where)
            for key, supported in (
                ("journal_schema", JOURNAL_SCHEMA_VERSION),
                ("codec", CODEC_VERSION),
            ):
                version = record.get(key)
                if type(version) is not int or version != supported:
                    raise JournalDecodeError(
                        f"{key} {version!r} != supported {supported}", where
                    )
            header = record
        elif kind == "barrier":
            if header is None:
                raise JournalDecodeError(
                    "barrier record before the header", where
                )
            where = f"{where} (barrier record)"
            barrier = decode_barrier(record, previous, where, checkpoints)
            if barrier.index != len(barriers):
                raise JournalDecodeError(
                    f"barrier index {barrier.index!r} out of order "
                    f"(expected {len(barriers)})",
                    where,
                )
            barriers.append(barrier)
            previous = barrier.tenants or {}
        elif kind == "result":
            if result is not None:
                raise JournalDecodeError("duplicate result record", where)
            result = record.get("payload")
            if not isinstance(result, dict):
                raise JournalDecodeError(
                    "result record has no payload object", where
                )
        else:
            raise JournalDecodeError(
                f"unknown record kind {kind!r}", where
            )
    if header is None:
        raise JournalDecodeError("no header record", path)
    return Journal(
        path=path,
        header=header,
        barriers=tuple(barriers),
        result=result,
    )
