"""The `repro lint` CLI surface: exit codes, JSON schema, catalogue."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import run_in_c_locale
from repro.cli import build_parser, main
from repro.devtools.findings import JSON_SCHEMA_VERSION

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "tests" / "lint_corpus"

#: A corpus file that is genuinely bad (not the suppression demo).
BAD_SNIPPET = CORPUS / "det_wallclock.py"
CLEAN_SNIPPET = CORPUS / "suppressed_wallclock.py"


class TestParser:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src"]
        assert not args.json

    def test_lint_paths_and_flags(self):
        args = build_parser().parse_args(["lint", "a.py", "b.py", "--json"])
        assert args.paths == ["a.py", "b.py"]
        assert args.json
        assert not args.deep
        assert args.callgraph_cache is None

    def test_lint_deep_flags(self):
        args = build_parser().parse_args(
            ["lint", "--deep", "--callgraph-cache", ".cache/cg.json"]
        )
        assert args.deep
        assert args.callgraph_cache == ".cache/cg.json"


class TestExitCodes:
    def test_clean_file_exits_zero(self):
        assert main(["lint", str(CLEAN_SNIPPET)]) == 0

    def test_findings_exit_one(self):
        assert main(["lint", str(BAD_SNIPPET)]) == 1

    @pytest.mark.parametrize(
        "path", sorted(CORPUS.glob("*.py")), ids=lambda p: p.stem
    )
    def test_every_bad_corpus_snippet_exits_nonzero(self, path):
        # --deep so the whole-program snippets (taint_*/reach_*) fire too;
        # it is a strict superset of the cheap pass for the others.
        expects_findings = bool(
            path.read_text().splitlines()[0].split(":", 1)[1].strip()
        )
        code = main(["lint", "--deep", str(path)])
        assert code == (1 if expects_findings else 0)

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "definitely/not/a/path.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_repo_src_is_clean(self):
        assert main(["lint", str(REPO / "src")]) == 0

    def test_repo_src_is_deep_clean(self):
        # The acceptance gate for --deep: the shipped tree has no taint or
        # reachability findings (pre-existing ones were fixed or allowlisted).
        assert main(["lint", "--deep", str(REPO / "src")]) == 0


class TestLocale:
    def test_repo_src_is_clean_under_c_locale(self):
        # pyproject.toml (read by REPRO401) holds non-ASCII text, so the
        # lint must not decode it with the locale's encoding.
        proc = run_in_c_locale(["-m", "repro", "lint", "src"])
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode == 0, proc.stderr


class TestJsonOutput:
    def test_schema(self, capsys):
        assert main(["lint", "--json", str(BAD_SNIPPET)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_checked"] == 1
        assert isinstance(payload["findings"], list) and payload["findings"]
        finding = payload["findings"][0]
        assert set(finding) == {
            "path", "line", "column", "rule", "message", "fix_hint",
        }
        assert finding["rule"] == "REPRO102"
        assert finding["line"] >= 1 and finding["column"] >= 1

    def test_clean_json(self, capsys):
        assert main(["lint", "--json", str(CLEAN_SNIPPET)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_deep_block_reflects_mode(self, capsys):
        assert main(["lint", "--json", str(CLEAN_SNIPPET)]) == 0
        cheap = json.loads(capsys.readouterr().out)
        assert cheap["deep"] == {
            "enabled": False,
            "summaries_extracted": 0,
            "summaries_from_cache": 0,
        }
        assert main(["lint", "--json", "--deep", str(CLEAN_SNIPPET)]) == 0
        deep = json.loads(capsys.readouterr().out)
        assert deep["deep"]["enabled"] is True
        assert deep["deep"]["summaries_extracted"] == 1


class TestTextOutput:
    def test_findings_rendered_with_location_and_hint(self, capsys):
        main(["lint", str(BAD_SNIPPET)])
        out = capsys.readouterr().out
        assert "det_wallclock.py" in out
        assert "REPRO102" in out
        assert "hint:" in out

    def test_summary_goes_to_stderr(self, capsys):
        main(["lint", str(BAD_SNIPPET)])
        err = capsys.readouterr().err
        assert "finding(s)" in err


class TestListRules:
    def test_catalogue_lists_all_families(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "REPRO101", "REPRO201", "REPRO301", "REPRO401",
            "REPRO501", "REPRO601",
        ):
            assert rule in out
        assert "LINTING.md" in out
