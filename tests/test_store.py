"""Artifact persistence (repro.harness.store)."""

import os

import pytest

from helpers import run_in_c_locale
from repro.errors import ReproError
from repro.harness.figures import FigureResult
from repro.harness.store import atomic_write_text, load_artifact, save_artifact
from repro.harness.tables import TableResult


class TestRoundTrip:
    def test_figure_roundtrip(self, tmp_path):
        fig = FigureResult(
            name="figX",
            description="demo",
            series={"cppe": {"SRD": 2.0, "MVT": None}},
            averages={"cppe (mean)": 2.0},
            notes=["a note"],
        )
        path = save_artifact(fig, tmp_path / "figX.json")
        loaded = load_artifact(path)
        assert isinstance(loaded, FigureResult)
        assert loaded.name == "figX"
        assert loaded.series["cppe"]["SRD"] == 2.0
        assert loaded.series["cppe"]["MVT"] is None
        assert loaded.averages == fig.averages
        assert loaded.notes == ["a note"]

    def test_table_roundtrip(self, tmp_path):
        tab = TableResult(
            name="tabX",
            description="demo",
            headers=["a", "b"],
            rows=[["x", 1], ["y", 2]],
        )
        path = save_artifact(tab, tmp_path / "sub" / "tabX.json")
        loaded = load_artifact(path)
        assert isinstance(loaded, TableResult)
        assert loaded.rows == [["x", 1], ["y", 2]]
        assert loaded.as_dict() == {("x",): 1, ("y",): 2}

    def test_render_survives_roundtrip(self, tmp_path):
        tab = TableResult("t", "d", ["h"], [[1]])
        path = save_artifact(tab, tmp_path / "t.json")
        assert load_artifact(path).render() == tab.render()

    def test_rejects_non_artifact(self, tmp_path):
        with pytest.raises(ReproError):
            save_artifact({"not": "an artifact"}, tmp_path / "x.json")

    def test_rejects_unknown_kind(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "mystery"}')
        with pytest.raises(ReproError):
            load_artifact(p)


class TestAtomicWrites:
    """Regression: artifact writes are atomic and explicitly utf-8.

    The old ``Path.write_text(...)`` path could leave a truncated JSON
    file behind when the process died mid-write, and its byte encoding
    followed the host locale.  ``atomic_write_text`` stages a temp file
    and ``os.replace``s it into place.
    """

    def test_writes_utf8_regardless_of_locale(self, tmp_path):
        target = tmp_path / "note.txt"
        atomic_write_text(target, "µ-benchmark — ✓")
        assert target.read_bytes().decode("utf-8") == "µ-benchmark — ✓"

    def test_no_temp_residue_after_success(self, tmp_path):
        atomic_write_text(tmp_path / "a.json", "{}")
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_creates_parent_directories(self, tmp_path):
        path = atomic_write_text(tmp_path / "deep" / "er" / "a.txt", "x")
        assert path.read_text(encoding="utf-8") == "x"

    def test_interrupted_write_preserves_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "state.json"
        atomic_write_text(target, "old complete content")

        def exploding_replace(src, dst):
            raise OSError("simulated crash at the replace boundary")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_text(target, "new content that never lands")
        monkeypatch.undo()
        # Readers only ever observe the previous complete file...
        assert target.read_text(encoding="utf-8") == "old complete content"
        # ...and the staged temp file is cleaned up.
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_save_artifact_interrupted_keeps_loadable_artifact(
        self, tmp_path, monkeypatch
    ):
        fig = FigureResult("figX", "demo", series={"cppe": {"SRD": 2.0}})
        path = save_artifact(fig, tmp_path / "figX.json")

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            save_artifact(
                FigureResult("figX", "newer", series={}), tmp_path / "figX.json"
            )
        monkeypatch.undo()
        loaded = load_artifact(path)
        assert loaded.description == "demo"  # the complete old artifact

    def test_save_artifact_unicode_roundtrip(self, tmp_path):
        fig = FigureResult(
            "figµ", "naïve → tuned", series={"cppe": {"SRD": 1.0}},
            notes=["±5% error bars"],
        )
        loaded = load_artifact(save_artifact(fig, tmp_path / "figµ.json"))
        assert loaded.name == "figµ"
        assert loaded.description == "naïve → tuned"
        assert loaded.notes == ["±5% error bars"]


class TestDocgen:
    def test_generate_subset(self, tmp_path):
        from repro.harness.docgen import generate

        out = generate(
            tmp_path / "EXP.md",
            scale=0.5,
            json_dir=tmp_path / "json",
            names=["fig3"],
            log=lambda s: None,
        )
        text = out.read_text(encoding="utf-8")
        assert "## fig3" in text
        assert "**Paper:**" in text and "**Measured:**" in text
        assert (tmp_path / "json" / "fig3.json").exists()

    def test_generate_under_c_locale(self, tmp_path):
        # The document's title holds an em-dash: the write must be utf-8
        # whatever the locale, and atomic (no temp file left behind).
        out = tmp_path / "EXP.md"
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.harness.docgen import generate\n"
            "generate(Path(sys.argv[1]), scale=0.5, names=['fig3'],\n"
            "         log=lambda s: None)\n"
        )
        proc = run_in_c_locale(
            ["-c", script, str(out)], REPRO_CACHE_DIR=str(tmp_path / "cache")
        )
        assert proc.returncode == 0, proc.stderr
        text = out.read_text(encoding="utf-8")
        assert text.startswith("# EXPERIMENTS \u2014 paper-reported vs measured")
        assert "## fig3" in text
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "flags,option",
        [(["--retries", "-1"], "--retries"), (["--timeout-s", "0"], "--timeout-s")],
    )
    def test_main_rejects_bad_fault_flags(self, tmp_path, capsys, flags, option):
        from repro.harness.docgen import main

        out = tmp_path / "EXP.md"
        assert main([str(out), "--only", "fig3", *flags]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and option in err
        assert not out.exists()
