"""Drift tests tying the docs/ tree to the code it documents.

The scenario cookbook quotes the experiment catalog's help lines and
the CLI builds its subparsers from the same table, so these tests make
"CLI and docs can't drift" an enforced property instead of a hope.
"""

from pathlib import Path

from repro.experiments.__main__ import build_parser
from repro.experiments.catalog import ARTIFACTS, PER_APP_ARTIFACTS

REPO = Path(__file__).parent.parent
DOCS = REPO / "docs"


def test_docs_tree_exists():
    for name in ("ARCHITECTURE.md", "SCENARIOS.md", "BENCH.md"):
        assert (DOCS / name).is_file(), f"docs/{name} is missing"


class TestScenarioCookbook:
    def test_every_artifact_has_a_recipe(self):
        cookbook = (DOCS / "SCENARIOS.md").read_text()
        for name in ARTIFACTS:
            assert f"python -m repro.experiments {name}" in cookbook, (
                f"docs/SCENARIOS.md has no runnable recipe for {name!r}"
            )

    def test_cookbook_quotes_catalog_help_verbatim(self):
        cookbook = (DOCS / "SCENARIOS.md").read_text()
        for info in ARTIFACTS.values():
            assert info.help in cookbook, (
                f"docs/SCENARIOS.md does not quote the CLI help line for "
                f"{info.name!r}: {info.help!r}"
            )

    def test_cookbook_names_paper_artifacts(self):
        cookbook = (DOCS / "SCENARIOS.md").read_text()
        for ref in ("Table 1", "Table 2", "Figure 5", "Figure 8"):
            assert ref in cookbook


class TestCliHelp:
    def test_every_subcommand_has_nonempty_help(self):
        for info in ARTIFACTS.values():
            assert info.help.strip(), f"{info.name} has an empty help line"
            assert info.paper_ref.strip()

    def test_parser_lists_every_artifact(self):
        listing = build_parser().format_help()
        for name in ARTIFACTS:
            assert name in listing

    def test_per_app_artifacts_accept_app_flag(self):
        parser = build_parser()
        for name in ARTIFACTS:
            args = [name, "--scale", "tiny"]
            if name in PER_APP_ARTIFACTS:
                args += ["--app", "x264"]
            if name == "replay":
                # --journal is required for replay; any path parses.
                args += ["--journal", "run.ndjson"]
            parsed = parser.parse_args(args)
            assert parsed.artifact == name


class TestBenchDoc:
    def test_bench_doc_covers_schema_fields(self):
        text = (DOCS / "BENCH.md").read_text()
        for field in (
            "python tools/perf_gate.py",
            "tools/perf_baseline.json",
            "BENCHMARK.json",
            "fresh > base × (1 + bound)",
            "fresh < base × (1 − bound)",
            "cp perf-gate.json tools/perf_baseline.json",
            "Baselines are per interpreter",
        ):
            assert field in text, f"docs/BENCH.md does not document {field!r}"


def test_readme_links_the_docs_tree():
    readme = (REPO / "README.md").read_text()
    for target in ("docs/ARCHITECTURE.md", "docs/SCENARIOS.md", "docs/BENCH.md"):
        assert target in readme
