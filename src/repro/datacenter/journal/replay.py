"""Re-execute, resume, and verify runs from their journals.

Three consumers of :func:`~repro.datacenter.journal.reader.read_journal`
live here:

* :func:`replay` — rebuild the engine from the journal header's
  scenario config (zero other inputs), re-issue the journaled actions
  at every barrier, and assert the fresh
  :class:`~repro.datacenter.engine.DatacenterResult` matches the
  journaled one byte for byte (invariant 7: every run is a pure
  function of its journal).  It vouches for the actions and the
  result, and pays only for those: it reads the journal without
  decoding checkpoints (a malformed checkpoint entry is not its to
  report), and the engine captures fresh checkpoints only at the
  barriers whose actions hold a ``FailMachine``, where a replayed
  failure restores from them.
* :func:`resume` — finish a run whose journal ends mid-run (a crash
  left no ``result`` record).  It decodes and validates the whole
  journal, checkpoints included.  Unless it records a fresh journal,
  the run captures checkpoints only where something reads them: at the
  last journaled barrier, which it attests, and at the live stack's
  failure instants.  The scenario re-executes under the *live* policy
  with every journaled barrier attested: the re-decided actions must
  match the journal's raw actions, and at the last journaled barrier
  the freshly captured cluster checkpoint — warm
  :class:`~repro.core.runtime.RuntimeSnapshot`\\ s included — must
  match the journaled one, proving the run passed through exactly the
  state the crash interrupted.
* :func:`journaled_run` — the recording half: attach a writer, run
  (a journaled run captures every barrier), and append the canonical
  result record that :func:`replay` verifies against.

The header's ``scenario`` section names its builder
(:data:`SCENARIO_BUILDER`) and the module that defines it
(:data:`SCENARIO_MODULE`); :func:`build_engine_from_header` checks
both, then rebuilds the run from the embedded config through that
module's :class:`~repro.experiments.datacenter.Scenario`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

from repro.datacenter.controlplane.actions import FailMachine
from repro.datacenter.engine import DatacenterEngine, DatacenterResult
from repro.datacenter.journal.codec import (
    JournalDecodeError,
    JournalError,
    canonical_json,
    encode_record,
    encode_tenant_checkpoint,
)
from repro.datacenter.journal.reader import Journal, read_journal
from repro.datacenter.journal.writer import JournalWriter

__all__ = [
    "SCENARIO_BUILDER",
    "SCENARIO_MODULE",
    "build_engine_from_header",
    "ReplayPolicy",
    "result_payload",
    "journaled_run",
    "replay",
    "resume",
]

SCENARIO_BUILDER = "datacenter-experiment"
"""The builder name every journal header's scenario section records."""

SCENARIO_MODULE = "repro.experiments.datacenter"
"""The module defining :data:`SCENARIO_BUILDER`'s ``Scenario``."""


def build_engine_from_header(
    header: Mapping[str, Any],
    where: str,
    backend: str | None = None,
    workers: int | None = None,
) -> DatacenterEngine:
    """Rebuild a journaled run's engine from its header alone.

    The scenario section must name :data:`SCENARIO_BUILDER` and
    :data:`SCENARIO_MODULE`; its config is rebuilt through that
    module's ``Scenario``.  A malformed section or config raises
    :class:`~repro.datacenter.journal.codec.JournalDecodeError` naming
    ``where`` (the header's ``path:line``).  ``backend``/``workers``
    override the recorded ones — replay is backend-independent by
    construction, so any backend must reproduce the same result.
    """
    scenario = header.get("scenario")
    if not isinstance(scenario, Mapping):
        raise JournalDecodeError(
            "journal header has no scenario section; cannot rebuild the run",
            where,
        )
    for key, expected in (
        ("builder", SCENARIO_BUILDER),
        ("module", SCENARIO_MODULE),
    ):
        if scenario.get(key) != expected:
            raise JournalDecodeError(
                f"journal header's scenario {key} is "
                f"{scenario.get(key)!r}; expected {expected!r}",
                where,
            )
    # Imported here: the experiments layer sits above the journal.
    from repro.experiments.datacenter import Scenario, ScenarioError

    try:
        spec = Scenario.from_config(scenario.get("config"))
    except ScenarioError as error:
        raise JournalDecodeError(str(error), where) from None
    return spec.build(backend if backend is not None else "serial", workers)


class ReplayPolicy:
    """A control policy that re-issues a journal's recorded actions.

    Replaces the live policy during :func:`replay`: at every barrier it
    returns exactly the raw actions the journal recorded, after
    asserting the barrier arrived at the journaled instant.  Its
    ``failure_times`` are the journaled barriers whose actions hold a
    ``FailMachine``, so the engine captures checkpoints at exactly
    those barriers — a replayed failure restores its victims from the
    same-barrier checkpoints just as the recorded run did — and at no
    other.
    """

    def __init__(self, journal: Journal) -> None:
        self._journal = journal
        self._cursor = 0
        self.failure_times = frozenset(
            barrier.time
            for barrier in journal.barriers
            if any(isinstance(a, FailMachine) for a in barrier.actions)
        )

    def initial_budget_watts(self) -> float | None:
        """The recorded initial budget."""
        return self._journal.header.get("initial_budget_watts")

    def barrier_times(self, horizon: float) -> tuple[float, ...]:
        """Every journaled barrier instant (time zero is implicit)."""
        return tuple(
            barrier.time
            for barrier in self._journal.barriers
            if barrier.time > 0.0
        )

    def decide(self, view) -> list:
        """Return the journaled actions for the next barrier."""
        barriers = self._journal.barriers
        if self._cursor >= len(barriers):
            raise JournalError(
                f"replay reached barrier {self._cursor} at t={view.time!r} "
                f"but the journal records only {len(barriers)} barriers"
            )
        barrier = barriers[self._cursor]
        if view.time != barrier.time:
            raise JournalError(
                f"replay barrier {self._cursor} arrived at t={view.time!r} "
                f"but the journal records t={barrier.time!r}"
            )
        self._cursor += 1
        return list(barrier.actions)


def _hex(value: float | None) -> str:
    """Lossless float token for the sample digest (None-safe)."""
    return "none" if value is None else float(value).hex()


class _HexMemo(dict):
    """:func:`_hex` tokens by value, each distinct value formatted once.

    Zeros are never stored: ``0.0 == -0.0`` share one key but not one
    token.  Neither is NaN, which equals no key (not even itself).
    """

    def __missing__(self, value: float | None) -> str:
        token = _hex(value)
        if value == value and value != 0:
            self[value] = token
        return token


def _samples_digest(result: DatacenterResult) -> str:
    """SHA-256 over every run's per-heartbeat samples, by run name.

    Each run contributes ``name|energy|elapsed`` and then one
    ``beat|time|rate|performance|gain|speedup|frequency`` line per
    beat, each value as its :func:`_hex` token.  The lines are built
    column by column, and each run's bytes go to the (streaming) hash
    in one update, so the digest is the same as hashing one line at a
    time.  The five value columns repeat their floats (a rate window,
    a knob table, a P-state table), so they share one memo across every
    run; the time column's timestamps almost never repeat, so it is
    formatted directly, past a memo that would only miss.
    """
    digest = hashlib.sha256()
    token = _HexMemo().__getitem__
    for name in sorted(result.run_results):
        run = result.run_results[name]
        columns = run.columns
        rows = zip(
            map(str, columns.beat),
            map(_hex, columns.time),
            *(
                map(token, column)
                for column in (
                    columns.window_rate,
                    columns.normalized_performance,
                    columns.knob_gain,
                    columns.commanded_speedup,
                    columns.frequency_ghz,
                )
            ),
        )
        lines = [f"{name}|{_hex(run.energy_joules)}|{_hex(run.elapsed)}"]
        lines.extend(map("|".join, rows))
        lines.append("")
        digest.update("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()


def result_payload(result: DatacenterResult) -> dict[str, Any]:
    """A :class:`DatacenterResult` as the canonical JSON result record.

    Every record is encoded through the shared codec; the
    per-heartbeat run samples (thousands of floats per tenant) are
    folded into a SHA-256 digest over their exact ``float.hex`` forms
    (:func:`_samples_digest`), so the record stays small while still
    pinning every sample bit.
    """
    return {
        "bills": [encode_record(bill) for bill in result.bills],
        "tenant_reports": [
            encode_record(report) for report in result.tenant_reports
        ],
        "cap_history": [
            [time, list(caps)] for time, caps in result.cap_history
        ],
        "budget_history": [
            [time, watts] for time, watts in result.budget_history
        ],
        "migrations": [encode_record(record) for record in result.migrations],
        "failures": [encode_record(record) for record in result.failures],
        "faults": [encode_record(record) for record in result.faults],
        "retries": [encode_record(record) for record in result.retries],
        "idle_energy_joules": list(result.idle_energy_joules),
        "machine_mean_power": list(result.machine_mean_power),
        "total_energy_joules": result.total_energy_joules,
        "makespan": result.makespan,
        "budget_watts": result.budget_watts,
        "samples_digest": _samples_digest(result),
    }


def journaled_run(engine: DatacenterEngine, writer: JournalWriter):
    """Run ``engine`` with ``writer`` attached and record the result.

    The recording half of the replay contract: barrier records stream
    out as the run executes, and the closing ``result`` record pins the
    canonical payload :func:`replay` verifies against.
    """
    engine.journal = writer
    result = engine.run()
    writer.write_record({"kind": "result", "payload": result_payload(result)})
    return result


def _diff_payloads(
    fresh: Mapping[str, Any], recorded: Mapping[str, Any]
) -> str:
    """Name the first result field whose canonical bytes differ."""
    for key in sorted(set(fresh) | set(recorded)):
        if canonical_json(fresh.get(key)) != canonical_json(recorded.get(key)):
            return key
    return "<none>"


def replay(
    path: str,
    backend: str | None = None,
    workers: int | None = None,
) -> DatacenterResult:
    """Re-execute a journaled run and assert byte-exact reproduction.

    The engine is rebuilt from the journal header's scenario config
    (no other inputs), driven by a :class:`ReplayPolicy` that re-issues
    the recorded actions, and the fresh result's canonical payload is
    compared byte-for-byte against the journal's ``result`` record —
    raising :class:`~repro.datacenter.journal.codec.JournalError`
    naming the first differing field on any mismatch.  ``backend``
    defaults to serial regardless of how the run was recorded; parity
    across backends means any choice must reproduce the same bytes.
    """
    journal = read_journal(path, checkpoints=False)
    if not journal.complete:
        raise JournalError(
            f"journal {path!r} records an interrupted run (no result "
            "record); use resume() to finish it"
        )
    engine = build_engine_from_header(
        journal.header, f"{path}:1 (header record)", backend, workers
    )
    engine.policy = ReplayPolicy(journal)
    result = engine.run()
    payload = result_payload(result)
    if canonical_json(payload) != canonical_json(journal.result):
        raise JournalError(
            f"replay of {path!r} diverged from the journaled result: "
            f"field {_diff_payloads(payload, journal.result)!r} differs"
        )
    return result


class _AttestingPolicy:
    """The live policy, with every journaled barrier cross-checked.

    Used by :func:`resume`: barriers within the journaled prefix must
    re-decide exactly the recorded raw actions (control decisions are
    pure functions of the view, so any divergence means the scenario
    config and the journal disagree), and at the last journaled barrier
    the freshly captured tenant checkpoints must byte-match the
    journaled ones — warm runtime snapshots included.

    Its ``failure_times`` — the last journaled barrier plus the live
    stack's failure instants — are the barriers it or the live stack
    reads checkpoints at.  A live stack that may fail a machine at any
    barrier names none, and ``may_fail_machines`` then has the engine
    capture every one.
    """

    may_fail_machines = True

    def __init__(self, inner, journal: Journal) -> None:
        self._inner = inner
        self._journal = journal
        self._cursor = 0
        self._engine: DatacenterEngine | None = None

    @property
    def failure_times(self) -> frozenset[float] | None:
        """The attested crash barrier and the live failure instants."""
        live = getattr(self._inner, "failure_times", None)
        if live is None:
            if getattr(self._inner, "may_fail_machines", False):
                return None
            live = ()
        attested = (barrier.time for barrier in self._journal.barriers[-1:])
        return frozenset(live).union(attested)

    def attach(self, engine: DatacenterEngine) -> None:
        """Give the attestor the engine whose checkpoints it verifies."""
        self._engine = engine

    def initial_budget_watts(self) -> float | None:
        """Delegates to the live policy."""
        return self._inner.initial_budget_watts()

    def barrier_times(self, horizon: float):
        """Delegates to the live policy."""
        return self._inner.barrier_times(horizon)

    @property
    def attested_barriers(self) -> int:
        """How many journaled barriers have been verified so far."""
        return min(self._cursor, len(self._journal.barriers))

    def decide(self, view) -> list:
        """Live decision, attested against the journal's prefix."""
        actions = list(self._inner.decide(view))
        barriers = self._journal.barriers
        if self._cursor < len(barriers):
            barrier = barriers[self._cursor]
            if view.time != barrier.time:
                raise JournalError(
                    f"resume: live barrier {self._cursor} arrived at "
                    f"t={view.time!r} but the journal records "
                    f"t={barrier.time!r}"
                )
            live = [encode_record(action) for action in actions]
            recorded = [encode_record(action) for action in barrier.actions]
            if canonical_json(live) != canonical_json(recorded):
                raise JournalError(
                    f"resume: the live policy diverged from the journal at "
                    f"barrier {self._cursor} (t={view.time!r}); the journal "
                    "does not belong to this scenario config"
                )
            if self._cursor == len(barriers) - 1:
                self._attest_checkpoints(barrier)
        self._cursor += 1
        return actions

    def _attest_checkpoints(self, barrier) -> None:
        """Byte-compare live cluster state against the crash barrier."""
        engine = self._engine
        if engine is None or engine._last_checkpoints is None:
            raise JournalError(
                "resume: no live checkpoints to attest against the journal "
                "(engine not checkpointing?)"
            )
        for name, recorded in barrier.tenants.items():
            fresh = engine._last_checkpoints.get(name)
            if fresh is None:
                raise JournalError(
                    f"resume: journaled tenant {name!r} is missing from the "
                    "live run"
                )
            if canonical_json(encode_tenant_checkpoint(fresh)) != (
                canonical_json(encode_tenant_checkpoint(recorded))
            ):
                raise JournalError(
                    f"resume: tenant {name!r}'s live state at the crash "
                    f"barrier (t={barrier.time!r}) does not match the "
                    "journaled checkpoint"
                )


def resume(
    path: str,
    backend: str | None = None,
    workers: int | None = None,
    journal_path: str | None = None,
) -> DatacenterResult:
    """Finish a crashed run from its journal, attesting the prefix.

    The scenario re-executes deterministically under its *live* policy
    (rebuilt from the journal header's config, chaos seeds included);
    every barrier the journal recorded is attested — re-decided actions
    must match the recorded ones, and the cluster checkpoint at the
    last journaled barrier must byte-match the journal's, warm runtime
    snapshots included — before the run continues past the crash point
    to completion.  Because re-execution is exact, the resumed result's
    bills are identical to what the uncrashed run would have produced,
    and billing conservation holds to the usual tolerance.

    ``journal_path`` optionally records a fresh, complete journal of
    the resumed run (it may equal ``path`` only on filesystems where
    the old journal has been fully read first — it has: reading happens
    before the writer truncates).
    """
    journal = read_journal(path)
    engine = build_engine_from_header(
        journal.header, f"{path}:1 (header record)", backend, workers
    )
    if journal_path is not None:
        engine.journal = JournalWriter(
            journal_path,
            {
                key: value
                for key, value in journal.header.items()
                if key not in ("kind", "journal_schema", "codec")
            },
        )
    try:
        attestor = _AttestingPolicy(engine.policy, journal)
        attestor.attach(engine)
        engine.policy = attestor
        result = engine.run()
        if attestor.attested_barriers < len(journal.barriers):
            raise JournalError(
                f"resume: the live run held {attestor.attested_barriers} "
                f"barriers but the journal records {len(journal.barriers)} "
                "— the scenario config does not match the journal"
            )
        if engine.journal is not None:
            engine.journal.write_record(
                {"kind": "result", "payload": result_payload(result)}
            )
        return result
    finally:
        if engine.journal is not None:
            engine.journal.close()
