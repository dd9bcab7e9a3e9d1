"""Entry points import only the layers they run.

Importing the datacenter stack, or running a datacenter CLI subcommand,
must not load scipy or a paper application: x264 alone brings in
``scipy.fft``, and no datacenter scenario calls it.  A paper app's
package loads on first use of its registry spec instead.  And a
benchmark workload's timed ``run()`` must import nothing new, so no
import cost (numpy's lazy ``numpy.ma``, say) lands inside it.

Each check runs in a fresh interpreter: in the test process, modules
that other tests imported would hide a regression.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PAPER_APPS = ("x264", "swish", "bodytrack", "swaptions")

REPORT_HEAVY = """
import json, sys
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[0] == "scipy"
    or name.split(".")[:3] in [["repro", "apps", app] for app in {apps!r}]
)
print(json.dumps(heavy))
"""


def run_fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter; return its last line, decoded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def heavy_modules_after(code: str) -> list[str]:
    """scipy and paper-app modules loaded once ``code`` has run."""
    report = REPORT_HEAVY.format(apps=PAPER_APPS)
    return run_fresh(textwrap.dedent(code) + report)


def test_datacenter_imports_load_no_paper_app():
    assert heavy_modules_after(
        """
        import repro.datacenter
        import repro.datacenter.journal
        import repro.experiments.datacenter
        import repro.experiments.registry
        """
    ) == []


def test_datacenter_cli_loads_no_paper_app():
    assert heavy_modules_after(
        """
        import contextlib, io, runpy, sys
        sys.argv = ["repro.experiments", "datacenter", "--help"]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("repro.experiments", run_name="__main__")
            except SystemExit as stop:
                assert stop.code == 0, stop.code
        """
    ) == []


def test_package_exports_resolve_on_first_access():
    loaded = run_fresh(
        """
        import json, sys
        from repro.experiments.common import Scale
        before = "repro.experiments.tradeoff" in sys.modules
        from repro.experiments import run_tradeoff
        after = "repro.experiments.tradeoff" in sys.modules
        print(json.dumps([before, after, run_tradeoff.__module__]))
        """
    )
    assert loaded == [False, True, "repro.experiments.tradeoff"]


@pytest.mark.parametrize("package", ["swaptions", "bodytrack", "swish"])
def test_a_spec_imports_only_its_own_app(package):
    name = "swish++" if package == "swish" else package
    heavy = heavy_modules_after(
        f"""
        from repro.experiments.common import Scale
        from repro.experiments.registry import get_spec
        get_spec({name!r}).app_factory(Scale.TINY)
        """
    )
    assert heavy
    assert {module.split(".")[2] for module in heavy} == {package}


def test_building_x264_loads_x264_and_scipy():
    heavy = heavy_modules_after(
        """
        from repro.experiments import Scale, built_system
        built_system("x264", Scale.TINY)
        """
    )
    assert "scipy.fft" in heavy
    assert "repro.apps.x264" in heavy
    assert not [m for m in heavy if m.startswith("repro.apps.swish")]


@pytest.mark.parametrize(
    "workload, expected",
    [
        ("fleet-scalar", []),
        ("journal-faults", []),
        # Starting the worker processes imports the fork launcher.
        ("scale-sharded", ["multiprocessing.popen_fork"]),
    ],
)
def test_timed_run_imports_nothing(workload, expected):
    imported = run_fresh(
        f"""
        import dataclasses, json, sys, tempfile
        from perfbench import workloads

        size = dataclasses.replace(
            workloads.FULL,
            fleet_machines=4,
            scale_machines=8,
            scale_rate=0.4,
            journal_machines=4,
            horizon=30.0,
        )
        with tempfile.TemporaryDirectory() as workdir:
            prepared = workloads.SETUPS[{workload!r}](
                1, size=size, workdir=workdir
            )
            before = set(sys.modules)
            prepared.run()
            print(json.dumps(sorted(set(sys.modules) - before)))
        """
    )
    assert imported == expected
