"""The benchmark's four seed-1 result digests are pinned.

A digest is the SHA-256 of every simulated statistic of one workload
run (``perfbench/workloads.py``), so a pinned digest means a change
moved no result byte.  Each workload runs once, in a fresh interpreter,
through the benchmark's own single-repetition entry point
(``perfbench/worker.py``); about 15 s in all, so the test is ``slow``
and CI runs it as its own step.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SEED_1_DIGESTS = {
    "fleet-scalar": "00d1d8d2f3c96d40339d27cc5877ef40145c17be306f3e96490591c6ed2d81a0",
    "scale-sharded": "4354675df4c09c356f3a65f187a98bfaf8e8898376a6b2ecc8007c037296d24b",
    "journal-faults": "a34ae372b324c78781d7a9732551bedc0a5e686816f26ec61da903323f6d0c10",
    "paper-powercap": "1e2de82d056cfdf4040497924a17375a7c869a4faf7c9de3649f322facdfb2b1",
}


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(SEED_1_DIGESTS))
def test_seed_1_result_digest(workload):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    assert record["ok"], record["failures"]
    assert record["digest"] == SEED_1_DIGESTS[workload]
