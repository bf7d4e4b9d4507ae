"""Whole-program analysis behind `repro lint --deep`.

Covers the acceptance gates for the deep pass:

* the shipped tree is deep-clean, with non-trivial closures (the analysis
  is actually resolving calls through the pool/policy seams, not returning
  empty sets);
* deleting a field from the spec fingerprint makes the lint fail (REPRO501);
* adding a ``global`` write to a ``_pool_entry``-reachable function makes
  the lint fail (REPRO601 + REPRO604);
* a warm call-graph cache makes the second deep run extract zero summaries
  while producing identical findings;
* discovery survives symlink loops and unreadable paths (REPRO901 and
  continue).
"""

from __future__ import annotations

import ast
import os
import shutil
from pathlib import Path

import pytest

from repro.devtools import boundary, run_lint
from repro.devtools import deep as deep_mod
from repro.devtools.checker import PARSE_ERROR_RULE, module_name_for
from repro.devtools.deep import build_deep_analysis
from repro.devtools.rules import FileContext, module_directive

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _contexts(root: Path):
    contexts = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        source = path.read_text(encoding="utf-8")
        contexts.append(
            FileContext(
                path=path,
                display_path=str(path),
                module=module_directive(source) or module_name_for(path),
                source=source,
                tree=ast.parse(source),
            )
        )
    return contexts


@pytest.fixture(scope="module")
def repo_analysis():
    return build_deep_analysis(_contexts(SRC))


def _copy_src(tmp_path: Path) -> Path:
    dst = tmp_path / "src"
    shutil.copytree(
        SRC, dst, ignore=shutil.ignore_patterns("__pycache__")
    )
    return dst


class TestRepoClosures:
    """The analysis resolves real seams — closures are non-trivial."""

    def test_repo_is_deep_clean(self):
        report = run_lint([SRC], deep=True)
        assert report.deep
        assert [f.render() for f in report.findings] == []
        assert report.summaries_extracted == report.files_checked > 50

    def test_worker_closure_spans_the_execution_path(self, repo_analysis):
        # _pool_entry -> _execute -> build_setup -> engine: the closure
        # must cross the harness/simulation boundary, not stop at the
        # entry file.
        assert (
            "repro.harness.parallel._pool_entry"
            in repo_analysis.worker_functions
        )
        assert (
            "repro.harness.experiment._execute"
            in repo_analysis.worker_functions
        )
        assert len(repo_analysis.worker_functions) > 50
        for needed in (
            "repro.harness.experiment",
            "repro.harness.baselines",
            "repro.config",
        ):
            assert needed in repo_analysis.worker_modules

    def test_worker_closure_stays_inside_parallel_scope(self, repo_analysis):
        # The repo-clean REPRO604 invariant, stated directly.
        for module in repo_analysis.worker_modules:
            assert boundary.is_parallel_scope(module), module

    def test_bound_method_callbacks_reach_the_sm_loop(self, repo_analysis):
        # The SM schedules its burst loop as a bound-method callback
        # (``events.schedule(t, self._run_fast if self._fast else
        # self._run)``): the loop and everything it calls — fault intake,
        # victim selection — hang off that one argument edge.  Each far
        # fault binds its resolver the same way
        # (``partial(self._resolve_fast, vpn, is_write)``).
        for qual in (
            "repro.engine.sm.StreamingMultiprocessor._run_fast",
            "repro.engine.sm.StreamingMultiprocessor._resolve_fast",
            "repro.engine.sm.StreamingMultiprocessor._resolve",
            "repro.memsim.system.MemorySystem.handle_fault",
            "repro.policies.lru.LRUPolicy.select_victims",
        ):
            assert qual in repo_analysis.worker_functions, qual
            assert qual in repo_analysis.sim_functions, qual

    def test_sim_closure_reaches_the_engine(self, repo_analysis):
        assert any(
            module.startswith("repro.engine")
            for module in repo_analysis.sim_modules
        )
        assert len(repo_analysis.sim_functions) > 50

    def test_fingerprint_closure_and_elisions(self, repo_analysis):
        quals = repo_analysis.fingerprint_functions
        assert "repro.harness.cache.spec_fingerprint" in quals
        assert "repro.harness.cache.config_fingerprint" in quals
        assert "repro.harness.cache._config_payload" in quals
        elided = {site.field for site in repo_analysis.elisions}
        assert elided == set()

    def test_allowlist_parsed_from_cache_module(self, repo_analysis):
        entries = {
            (entry.dataclass_name, entry.field)
            for entry in repo_analysis.allowlist
        }
        assert entries == {("ObsConfig", "*")}
        assert all(
            len(entry.reason) >= 10 for entry in repo_analysis.allowlist
        )

    def test_hashed_classes_cover_the_cached_configs(self, repo_analysis):
        assert {"SimConfig", "RunSpec"} <= set(repo_analysis.hashed_classes)
        sim_config = repo_analysis.hashed_classes["SimConfig"]
        assert sim_config.whole_object
        assert "sm" in sim_config.fields

    def test_sim_config_reads_are_recorded(self, repo_analysis):
        fields_read = {site.field for site in repo_analysis.sim_config_reads}
        assert fields_read  # _execute and friends read spec/config attrs

    def test_registry_seam_collects_registrations(self, repo_analysis):
        # Module-level register()/register_table() calls are aggregated
        # per kind; the workload table rides the existing table: seam.
        registrations = repo_analysis.graph.registrations
        assert {"policy", "prefetcher", "workload"} <= set(registrations)
        assert any(
            "table:repro.workloads.suite" in ref
            for ref in registrations["workload"]
        )

    def test_registry_seam_fans_builders_into_closures(self, repo_analysis):
        # build_setup dispatches through build("policy"/...) — without the
        # registry: seam no builder constructor would be reachable, and
        # determinism/taint coverage would silently shrink.  The ngram
        # prefetcher registers purely through the public API, so its
        # presence here proves the seam resolves plugins too.
        for closure in (
            repo_analysis.sim_functions,
            repo_analysis.worker_functions,
        ):
            assert (
                "repro.prefetch.ngram.NGramPrefetcher.__init__" in closure
            )
            assert "repro.policies.mhpe.MHPEPolicy.__init__" in closure
        for module in (
            "repro.prefetch.ngram",
            "repro.prefetch.tree_neighborhood",
            "repro.policies.hpe",
        ):
            assert module in repo_analysis.sim_modules


class TestAcceptanceFailures:
    """The two mandated failure-mode demonstrations."""

    def test_deleting_hashed_field_fails_deep_lint(self, tmp_path):
        dst = _copy_src(tmp_path)
        cache_py = dst / "repro" / "harness" / "cache.py"
        text = cache_py.read_text(encoding="utf-8")
        marker = "    spec_fields = dataclasses.asdict(spec)\n"
        assert marker in text
        cache_py.write_text(
            text.replace(marker, marker + '    del spec_fields["seed"]\n'),
            encoding="utf-8",
        )
        report = run_lint([dst], deep=True)
        taint = [f for f in report.findings if f.rule == "REPRO501"]
        assert taint, [f.render() for f in report.findings]
        assert any("seed" in f.message for f in taint)
        # The cheap pass stays blind to it — only --deep catches this.
        assert not any(
            f.rule == "REPRO501" for f in run_lint([dst]).findings
        )

    def test_worker_reachable_global_write_fails_deep_lint(self, tmp_path):
        dst = _copy_src(tmp_path)
        warmup = dst / "repro" / "analysis" / "warmup.py"
        warmup.write_text(
            '"""Injected for the test: stateful helper outside '
            'PARALLEL_SCOPE."""\n'
            "_CALLS = 0\n"
            "\n"
            "def bump():\n"
            "    global _CALLS\n"
            "    _CALLS += 1\n"
            "    return _CALLS\n",
            encoding="utf-8",
        )
        parallel_py = dst / "repro" / "harness" / "parallel.py"
        text = parallel_py.read_text(encoding="utf-8")
        marker = "    label = _spec_label(spec)\n"
        assert marker in text
        text = text.replace(marker, "    _warm_bump()\n" + marker, 1)
        text += "\nfrom repro.analysis.warmup import bump as _warm_bump\n"
        parallel_py.write_text(text, encoding="utf-8")

        report = run_lint([dst], deep=True)
        rules = {f.rule for f in report.findings}
        assert "REPRO601" in rules, [f.render() for f in report.findings]
        assert "REPRO604" in rules
        flagged = {
            Path(f.path).name
            for f in report.findings
            if f.rule in {"REPRO601", "REPRO604"}
        }
        assert flagged == {"warmup.py"}  # anchored in the culprit module


    def test_module_dict_write_in_victim_selection_fails_deep_lint(
        self, tmp_path
    ):
        # Victim selection runs in every pool worker, reached only through
        # the SM's bound-method callback; a module-dict write there must
        # be flagged.
        dst = _copy_src(tmp_path)
        lru_py = dst / "repro" / "policies" / "lru.py"
        text = lru_py.read_text(encoding="utf-8")
        exports = '__all__ = ["LRUPolicy"]\n'
        marker = (
            "    def select_victims(self, frames_needed: int, time: int)"
            " -> List[ChunkEntry]:\n"
        )
        assert exports in text and marker in text
        text = text.replace(exports, exports + "\n_SEEN = {}\n")
        text = text.replace(marker, marker + "        _SEEN[frames_needed] = True\n")
        lru_py.write_text(text, encoding="utf-8")

        report = run_lint([dst], deep=True)
        assert [f.rule for f in report.findings] == ["REPRO602"], [
            f.render() for f in report.findings
        ]
        assert Path(report.findings[0].path).parts[-2:] == ("policies", "lru.py")


class TestSummaryCache:
    """Warm deep runs re-extract nothing for unchanged files."""

    def test_warm_run_extracts_zero_summaries(self, tmp_path, monkeypatch):
        cache = tmp_path / "callgraph.json"
        cold = run_lint([SRC], deep=True, callgraph_cache=cache)
        assert cold.summaries_extracted == cold.files_checked > 0
        assert cold.summaries_from_cache == 0
        assert cache.is_file()

        extracted = []
        real = deep_mod.extract_module_summary

        def counting(ctx):
            extracted.append(ctx.module)
            return real(ctx)

        monkeypatch.setattr(deep_mod, "extract_module_summary", counting)
        warm = run_lint([SRC], deep=True, callgraph_cache=cache)
        assert extracted == []  # no file was re-summarised
        assert warm.summaries_extracted == 0
        assert warm.summaries_from_cache == warm.files_checked
        assert warm.files_checked == cold.files_checked
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_invalidation_is_per_file(self, tmp_path):
        dst = _copy_src(tmp_path)
        cache = tmp_path / "callgraph.json"
        cold = run_lint([dst], deep=True, callgraph_cache=cache)
        target = dst / "repro" / "units.py"
        target.write_text(
            target.read_text(encoding="utf-8") + "\n# touched\n",
            encoding="utf-8",
        )
        warm = run_lint([dst], deep=True, callgraph_cache=cache)
        assert warm.summaries_extracted == 1
        assert warm.summaries_from_cache == cold.files_checked - 1

    def test_corrupt_cache_is_advisory_not_fatal(self, tmp_path):
        cache = tmp_path / "callgraph.json"
        cache.write_text("{definitely not json", encoding="utf-8")
        report = run_lint([SRC], deep=True, callgraph_cache=cache)
        assert report.summaries_extracted == report.files_checked
        assert [f.render() for f in report.findings] == []


class TestResilientDiscovery:
    """One bad path yields REPRO901; everything else is still checked."""

    def test_symlink_loop_reported_and_run_continues(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text(
            "# repro-lint: module=repro.engine.x\n"
            "import time\n"
            "t = time.time()\n",
            encoding="utf-8",
        )
        loop = tmp_path / "loop.py"
        loop.symlink_to(loop)
        report = run_lint([tmp_path])
        by_rule = {}
        for finding in report.findings:
            by_rule.setdefault(finding.rule, []).append(finding)
        assert PARSE_ERROR_RULE in by_rule  # the loop itself
        assert "REPRO102" in by_rule  # good.py was still checked
        assert report.files_checked == 1

    def test_broken_symlink_reported_not_fatal(self, tmp_path):
        (tmp_path / "dead.py").symlink_to(tmp_path / "missing.py")
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        report = run_lint([tmp_path])
        assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE]
        assert report.files_checked == 1

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="permission checks do not bind as root"
    )
    def test_unreadable_directory_reported(self, tmp_path):
        locked = tmp_path / "locked"
        locked.mkdir()
        (locked / "hidden.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        locked.chmod(0)
        try:
            report = run_lint([tmp_path])
        finally:
            locked.chmod(0o755)
        assert any(f.rule == PARSE_ERROR_RULE for f in report.findings)
        assert report.files_checked == 1

    def test_deep_mode_survives_a_bad_file(self, tmp_path):
        # A symlink loop must not kill the whole-program pass either.
        (tmp_path / "loop.py").symlink_to(tmp_path / "loop.py")
        (tmp_path / "ok.py").write_text(
            "# repro-lint: module=repro.harness.parallel\n"
            "_SEEN = {}\n"
            "def _pool_entry(spec, config):\n"
            "    _SEEN[spec] = True\n",
            encoding="utf-8",
        )
        report = run_lint([tmp_path], deep=True)
        rules = {f.rule for f in report.findings}
        assert rules == {PARSE_ERROR_RULE, "REPRO602"}


class TestBoundaryDrift:
    """Shrinking PARALLEL_SCOPE reintroduces exactly the drift findings."""

    def test_scope_shrink_is_caught_by_repro604(self, monkeypatch):
        removed = {
            "repro.config",
            "repro.errors",
            "repro.units",
            "repro.harness.baselines",
        }
        shrunk = frozenset(boundary.PARALLEL_SCOPE - removed)
        monkeypatch.setattr(boundary, "PARALLEL_SCOPE", shrunk)
        report = run_lint([SRC], deep=True)
        drifted = {
            finding.message.split("`")[1]
            for finding in report.findings
            if finding.rule == "REPRO604"
        }
        assert drifted == removed
