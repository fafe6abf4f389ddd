"""Unit tests for tools/check_doc_links.py's structural checks.

The link/anchor checks are exercised against the real tree by
tests/test_docs_and_api.py; these tests build tiny synthetic repos under
``tmp_path`` to pin the structural checks: orphaned-docs detection,
harness-subcommand validation, and counter validation against the
``SERVE_COUNTERS``, ``CAMPAIGN_COUNTER_LEAVES`` and
``DIST_COUNTER_LEAVES`` tuples.
"""

import importlib.util
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_doc_links.py"

spec = importlib.util.spec_from_file_location("check_doc_links", CHECKER)
checker = importlib.util.module_from_spec(spec)
sys.modules["check_doc_links"] = checker
spec.loader.exec_module(checker)


#: the synthetic counter tuples the counter tests parse, by file under
#: ``src/repro`` (note the parenthesized comment — the real serve
#: manifest has those too)
COUNTER_SRC = {
    "serve/metrics.py": (
        "SERVE_COUNTERS = (\n"
        "    # slo counters (service level)\n"
        '    "serve.slo.completed",\n'
        '    "serve.tenant[*].submits",\n'
        '    "serve.tenant[*].cache.hits",\n'
        '    "serve.wire.frames_in",\n'
        ")\n"
    ),
    "harness/runner.py": (
        "CAMPAIGN_COUNTER_LEAVES = (\n"
        '    "cells", "torn",\n'
        '    "adaptive_timeouts",\n'
        ")\n"
    ),
    "harness/dist.py": (
        "DIST_COUNTER_LEAVES = (\n"
        '    "leases", "steals",\n'
        ")\n"
    ),
}


def make_repo(tmp_path, readme="# Repo\n", docs=None, harness_src=True,
              metrics_src=False):
    """A minimal repo tree: README.md, docs/*.md, and (optionally) the
    harness sources and the counter tuples the textual checks parse
    (``metrics_src``: True for every tuple, or a list of the files of
    ``COUNTER_SRC`` to write)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "README.md").write_text(readme)
    (tmp_path / "docs").mkdir()
    for name, text in (docs or {}).items():
        (tmp_path / "docs" / name).write_text(text)
    if harness_src:
        pkg = tmp_path / "src" / "repro" / "harness"
        pkg.mkdir(parents=True)
        (pkg / "__main__.py").write_text(
            'SUBCOMMANDS = (\n    "trace",\n    "sweep",\n)\n'
        )
        (pkg / "experiments.py").write_text(
            'ALL_EXPERIMENTS = {\n    "fig10": run_fig10,\n'
            '    "table2": run_table2,\n}\n'
        )
    if metrics_src is True:
        metrics_src = list(COUNTER_SRC)
    for rel in metrics_src or ():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(COUNTER_SRC[rel])
    return tmp_path


def each_repo(tmp_path, readmes, **kwargs):
    """One fresh repo per README text of ``readmes``."""
    for i, readme in enumerate(readmes):
        yield make_repo(tmp_path / str(i), readme=readme, **kwargs)


class TestOrphanDetection:
    def test_linked_doc_is_not_orphaned(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme="# Repo\n\nSee [arch](docs/ARCH.md).\n",
            docs={"ARCH.md": "# Arch\n"},
        )
        assert checker.orphaned_docs(root) == []

    def test_unlinked_doc_is_orphaned(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme="# Repo\n\nSee [arch](docs/ARCH.md).\n",
            docs={"ARCH.md": "# Arch\n", "LOST.md": "# Lost\n"},
        )
        orphans = checker.orphaned_docs(root)
        assert [p.name for p in orphans] == ["LOST.md"]
        assert checker.main([str(root)]) == 1

    def test_transitive_links_count(self, tmp_path):
        """Reachability is transitive: README -> A -> B keeps B alive."""
        root = make_repo(
            tmp_path,
            readme="# Repo\n\nSee [a](docs/A.md).\n",
            docs={
                "A.md": "# A\n\nAnd [b](B.md).\n",
                "B.md": "# B\n",
            },
        )
        assert checker.orphaned_docs(root) == []

    def test_link_inside_code_fence_does_not_count(self, tmp_path):
        """A fenced ``[x](y)`` snippet is not a real link; a doc only
        'linked' that way is still an orphan."""
        root = make_repo(
            tmp_path,
            readme="# Repo\n\n```\n[a](docs/A.md)\n```\n",
            docs={"A.md": "# A\n"},
        )
        assert [p.name for p in checker.orphaned_docs(root)] == ["A.md"]


class TestHarnessCommandValidation:
    def test_known_set_is_parsed_textually(self, tmp_path):
        root = make_repo(tmp_path)
        known = checker.known_subcommands(root)
        # SUBCOMMANDS + ALL_EXPERIMENTS keys + the extra dispatch targets
        assert known == {"trace", "sweep", "fig10", "table2",
                         "all", "table1", "diagrams"}

    def test_valid_commands_pass(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme=(
                "# Repo\n\n```\npython -m repro.harness sweep lbm\n"
                "python -m repro.harness fig10 --quick\n"
                "python -m repro.harness --help\n"
                "python -m repro.harness <experiment>\n```\n"
                "Inline `python -m repro.harness trace` too.\n"
            ),
        )
        assert checker.main([str(root)]) == 0

    def test_unknown_subcommand_fails(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme="# Repo\n\n```\npython -m repro.harness frobnicate\n```\n",
        )
        assert checker.main([str(root)]) == 1

    def test_code_fences_are_checked(self, tmp_path):
        """Commands live inside fences — the check must NOT strip them
        the way the link check does."""
        root = make_repo(
            tmp_path,
            readme="# Repo\n\n```sh\npython -m repro.harness nope\n```\n",
        )
        found = list(checker.check_harness_commands(
            root / "README.md", checker.known_subcommands(root)
        ))
        assert len(found) == 1
        assert "nope" in found[0][1]

    def test_missing_source_tree_skips_check(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme="# Repo\n\n```\npython -m repro.harness frobnicate\n```\n",
            harness_src=False,
        )
        assert checker.known_subcommands(root) is None
        assert checker.main([str(root)]) == 0


class TestServeCounterValidation:
    """The counter rule, one rule over every family: each test feeds it
    ``serve.*`` documents and ``harness.campaign.*``/``harness.dist.*``
    ones."""

    def test_manifest_is_parsed_past_comment_parens(self, tmp_path):
        """The tuple parse must span inline comments that contain
        parentheses (the real serve manifest has them); leaves are
        prefixed with their family."""
        root = make_repo(tmp_path, metrics_src=True)
        assert checker.known_counters(root) == {
            "serve": {
                "serve.slo.completed",
                "serve.tenant[*].submits",
                "serve.tenant[*].cache.hits",
                "serve.wire.frames_in",
            },
            "harness.campaign": {
                "harness.campaign.cells",
                "harness.campaign.torn",
                "harness.campaign.adaptive_timeouts",
            },
            "harness.dist": {"harness.dist.leases", "harness.dist.steals"},
        }

    def test_valid_counters_pass(self, tmp_path):
        for root in each_repo(tmp_path, [
            "# Repo\n\nCounted in `serve.slo.completed` and\n"
            "`serve.tenant[t].submits`; see `serve.wire.frames_in`.\n",
            "# Repo\n\n`harness.campaign.torn` counts torn writes;\n"
            "`harness.dist.leases` counts leases.\n",
            # benchmark metrics share the prefix but are not counters
            "# Repo\n\n`harness.isolation.fork_ms.p50` and\n"
            "`harness.runner.cell_s.p50`\n",
        ], metrics_src=True):
            assert checker.main([str(root)]) == 0

    def test_concrete_index_normalizes_to_wildcard(self, tmp_path):
        """``serve.tenant[storm].submits`` in a doc means the manifest's
        ``serve.tenant[*].submits`` slot."""
        root = make_repo(
            tmp_path,
            readme="# Repo\n\n`serve.tenant[storm].submits`\n",
            metrics_src=True,
        )
        assert checker.main([str(root)]) == 0

    def test_brace_shorthand_expands(self, tmp_path):
        for root in each_repo(tmp_path, [
            "# Repo\n\n`serve.tenant[t].{submits,cache.hits}`\n",
            "# Repo\n\n`harness.campaign.{cells,torn}` and\n"
            "`harness.dist.{leases,steals}`\n",
        ], metrics_src=True):
            assert checker.main([str(root)]) == 0

    def test_wildcard_and_namespace_references_pass(self, tmp_path):
        for root in each_repo(tmp_path, [
            "# Repo\n\nAll of `serve.*`; the `serve.wire` family;\n"
            "`serve.tenant[t].cache.*` gauges.\n",
            "# Repo\n\nThe `harness.campaign.*` and `harness.dist.*`\n"
            "rollups.\n",
        ], metrics_src=True):
            assert checker.main([str(root)]) == 0

    def test_unknown_counter_fails(self, tmp_path):
        for root in each_repo(tmp_path, [
            "# Repo\n\nSee `serve.slo.nonexistent`.\n",
            # a leaf the campaign runner no longer registers
            "# Repo\n\nSee `harness.campaign.fallback`.\n",
            "# Repo\n\nSee `harness.dist.nonexistent`.\n",
            "# Repo\n\n`harness.dist.{leases,lease}`\n",
        ], metrics_src=True):
            assert checker.main([str(root)]) == 1

    def test_unknown_counter_in_code_fence_fails(self, tmp_path):
        """Counter names live inside fences and tables — the check must
        NOT strip fences the way the link check does."""
        docs = {
            "frames_inn": "# Repo\n\n```\nserve.wire.frames_inn\n```\n",
            "vectorized": "# Repo\n\n```\nharness.campaign.vectorized\n```\n",
        }
        for name, root in zip(docs, each_repo(tmp_path, docs.values(),
                                              metrics_src=True)):
            found = list(checker.check_counters(
                root / "README.md", checker.known_counters(root)
            ))
            assert len(found) == 1
            assert name in found[0][1]

    def test_module_paths_do_not_match(self, tmp_path):
        """``repro.serve.core`` is a module path, not a counter."""
        for root in each_repo(tmp_path, [
            "# Repo\n\nSee `repro.serve.core` for details.\n",
            "# Repo\n\nSee `repro.harness.dist.DistWorker`.\n",
        ], metrics_src=True):
            assert checker.main([str(root)]) == 0

    def test_filesystem_paths_do_not_match(self, tmp_path):
        """``/tmp/serve.sock`` is a socket path, not a counter."""
        for root in each_repo(tmp_path, [
            "# Repo\n\n```\nserve --socket /tmp/serve.sock\n```\n",
            "# Repo\n\n```\ntail /tmp/harness.dist.log\n```\n",
        ], metrics_src=True):
            assert checker.main([str(root)]) == 0

    def test_missing_manifest_skips_check(self, tmp_path):
        """A family whose tuple is absent is not checked; the others
        still are."""
        for i, (readme, missing) in enumerate([
            ("# Repo\n\n`serve.slo.nonexistent`\n", "serve/metrics.py"),
            ("# Repo\n\n`harness.campaign.fallback`\n",
             "harness/runner.py"),
        ]):
            root = make_repo(tmp_path / str(i), readme=readme, metrics_src=[
                rel for rel in COUNTER_SRC if rel != missing
            ])
            assert len(checker.known_counters(root)) == len(COUNTER_SRC) - 1
            assert checker.main([str(root)]) == 0


class TestRealTree:
    def test_repo_docs_are_clean(self):
        """The shipping tree passes the extended checker end to end."""
        assert checker.main([str(CHECKER.parent.parent)]) == 0
