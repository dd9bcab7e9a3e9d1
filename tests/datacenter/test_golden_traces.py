"""Golden-trace corpus: replays pinned to committed bills.

Each journal under ``tests/data/golden/`` is a frozen, seeded run
(including one faulted run and one with a warm migration).  Replaying
it must reproduce the journaled result byte-exactly (``replay`` raises
otherwise) and render bills that match the committed
``<name>.bills.json`` byte for byte, with or without the engine's
``step_mode="batched"`` keyword.  If a change moves
these on purpose, regenerate the corpus with
``PYTHONPATH=src python tests/data/golden/regenerate.py`` and commit
the diff.
"""

import pytest

from repro.datacenter.journal.reader import read_journal
from repro.datacenter.journal.replay import replay
from repro.experiments.datacenter import format_replay_bills
from tests.data.golden.regenerate import (
    GOLDEN_NAMES,
    bills_path,
    journal_path,
)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_corpus_is_complete(name):
    assert journal_path(name).is_file()
    assert bills_path(name).is_file()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_replay_matches_committed_bills(name):
    """replay() reproduces the committed bytes."""
    result = replay(str(journal_path(name)))
    expected = bills_path(name).read_text()
    assert format_replay_bills(result) == expected


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_batched_replay_matches_committed_bills(name, batched_step_mode):
    """Replayed with ``step_mode="batched"``: the same committed bytes."""
    built = batched_step_mode()
    result = replay(str(journal_path(name)))
    assert built
    expected = bills_path(name).read_text()
    assert format_replay_bills(result) == expected


def test_corpus_covers_migration_and_faults():
    """The corpus guarantees a warm migration and faulted runs exist."""
    migrating = read_journal(str(journal_path("migrating")))
    assert migrating.result["migrations"]
    chaos = read_journal(str(journal_path("chaos")))
    assert chaos.result["failures"]
    grayfail = read_journal(str(journal_path("grayfail")))
    assert grayfail.result["faults"]
