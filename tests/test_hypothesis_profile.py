"""The suite loads with ``HYPOTHESIS_PROFILE`` set but blank.

``tests/conftest.py`` picks the hypothesis profile at import, so a bad
value fails the whole run before a test is collected.  The check runs
pytest in a fresh interpreter, because this process loaded its profile
long ago.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_collects_with_a_blank_profile():
    env = dict(os.environ, HYPOTHESIS_PROFILE="")
    env["PYTHONPATH"] = str(ROOT / "src")
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only", "-q",
            "-p", "no:cacheprovider", "tests/datacenter/test_service.py",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
