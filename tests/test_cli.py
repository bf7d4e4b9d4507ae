"""Command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "SRD"])
        assert args.setup == "cppe"
        assert args.rate == 0.5

    def test_unknown_setup_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "SRD", "--setup", "magic"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "SRD" in out and "Polybench" in out
        assert out.count("\n") >= 24  # 23 apps + header

    def test_run_table_output(self, capsys):
        assert main(["run", "STN", "--rate", "0.5", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "total_cycles" in out
        assert "STN@50%" in out

    def test_run_json_output(self, capsys):
        assert main(
            ["run", "STN", "--rate", "0.5", "--scale", "0.5", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "STN"
        assert payload["total_cycles"] > 0
        assert not payload["crashed"]

    def test_run_with_baseline_speedup(self, capsys):
        assert main(
            ["run", "STN", "--rate", "0.5", "--scale", "0.5",
             "--baseline", "baseline"]
        ) == 0
        assert "speedup over baseline" in capsys.readouterr().out

    def test_run_unlimited_rate(self, capsys):
        assert main(["run", "STN", "--rate", "1.0", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "chunks_evicted      | 0" in out.replace("  ", " ") or "0" in out

    def test_figure_subset(self, capsys):
        assert main(
            ["figure", "fig8", "--apps", "STN", "--scale", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "STN" in out

    def test_table_subset(self, capsys):
        assert main(
            ["table", "table3", "--apps", "STN", "--scale", "1.0"]
        ) == 0
        assert "max untouch" in capsys.readouterr().out


class TestTraceCommand:
    def test_profile_output(self, capsys):
        assert main(["trace", "NW", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "stride" in out and "working set per quarter" in out

    def test_save_trace(self, capsys, tmp_path):
        path = tmp_path / "nw.npz"
        assert main(["trace", "NW", "--scale", "0.25", "--save", str(path)]) == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_output(self, capsys):
        assert main(
            ["sweep", "STN", "--rates", "1.0", "0.5", "--scale", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "slowdown vs capacity" in out
        assert "100%" in out and "50%" in out

    def test_knee_reported(self, capsys):
        assert main(
            ["sweep", "STN", "--rates", "1.0", "0.5", "--scale", "0.5",
             "--knee-threshold", "1.5"]
        ) == 0
        assert "knee" in capsys.readouterr().out


class TestRegenCommand:
    def test_regen_figure_with_cache_dir(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(
            ["regen", "fig3", "--apps", "STN", "--scale", "0.25",
             "--jobs", "1", "--cache-dir", str(cache_dir)]
        ) == 0
        captured = capsys.readouterr()
        assert "fig3" in captured.out
        assert "new simulations" in captured.err
        assert list(cache_dir.glob("*/*.pkl"))  # results persisted

    def test_regen_warm_cache_does_zero_new_simulations(self, capsys, tmp_path):
        from repro.harness.experiment import clear_cache, execution_count

        cache_dir = str(tmp_path / "cache")
        argv = ["regen", "fig3", "--apps", "STN", "--scale", "0.25",
                "--jobs", "1", "--cache-dir", cache_dir]
        assert main(argv) == 0
        capsys.readouterr()
        clear_cache(disk=False)  # simulate a fresh session
        before = execution_count()
        assert main(argv) == 0
        assert execution_count() == before
        assert "0 new simulations" in capsys.readouterr().err

    def test_regen_parallel_table(self, capsys, tmp_path):
        assert main(
            ["regen", "overhead", "--apps", "STN", "NW", "--scale", "0.25",
             "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        assert "overhead" in capsys.readouterr().out

    def test_regen_no_cache(self, capsys, tmp_path):
        assert main(
            ["regen", "fig3", "--apps", "STN", "--scale", "0.25",
             "--jobs", "1", "--no-cache"]
        ) == 0
        assert "fig3" in capsys.readouterr().out

    def test_regen_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["regen", "fig99"])

    def test_lower_case_app_replays_the_upper_case_run(self, capsys, tmp_path):
        from repro.harness.experiment import clear_cache, execution_count

        argv = ["regen", "fig3", "--scale", "0.25", "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache"), "--apps"]
        assert main(argv + ["STN"]) == 0
        capsys.readouterr()
        clear_cache(disk=False)  # simulate a fresh session
        before = execution_count()
        assert main(argv + ["stn"]) == 0
        assert execution_count() == before
        captured = capsys.readouterr()
        assert "0 new simulations" in captured.err
        assert "STN" in captured.out and "stn" not in captured.out


#: Bad input, each with the option its usage error must name.
BAD_ARGVS = [
    (["run", "XYZ"], "app"),
    (["figure", "fig3", "--apps", "XYZ"], "--apps"),
    (["regen", "fig3", "--apps", "XYZ", "--no-cache"], "--apps"),
    (["sweep", "XYZ"], "app"),
    (["shootout", "XYZ"], "app"),
    (["trace", "XYZ"], "app"),
    (["run", "STN", "--rate", "0"], "--rate"),
    (["run", "STN", "--rate", "nan"], "--rate"),
    (["run", "STN", "--rate", "1.5", "--scale", "0.25"], "--rate"),
    (["suite", "--rate", "0"], "--rate"),
    (["sweep", "STN", "--rates", "0"], "--rates"),
    (["sweep", "STN", "--adaptive", "--seed-rates", "1.0", "-0.4"],
     "--seed-rates"),
    (["regen", "fig3", "--apps", "STN", "--scale", "0.25", "--no-cache",
      "-j", "2", "--timeout-s", "0"], "--timeout-s"),
    (["regen", "fig3", "--apps", "STN", "--scale", "0.25", "--no-cache",
      "-j", "2", "--timeout-s", "-5"], "--timeout-s"),
    (["regen", "fig3", "--apps", "STN", "--scale", "0.25", "--no-cache",
      "--retries", "-1"], "--retries"),
    (["regen", "fig3", "--apps", "STN", "--scale", "0.25", "--no-cache",
      "--jobs", "0"], "--jobs"),
    (["shootout", "STN", "--scale", "0.25", "--no-cache", "--jobs", "0"],
     "--jobs"),
    (["run", "STN", "--scale", "0"], "--scale"),
]


@pytest.mark.parametrize(
    "argv,option", BAD_ARGVS, ids=[" ".join(a) for a, _ in BAD_ARGVS]
)
def test_bad_input_is_a_usage_error(argv, option, capsys):
    from repro.harness.experiment import execution_count

    before = execution_count()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith(f"repro {argv[0]}: ") and option in err
    assert "Traceback" not in err
    assert execution_count() == before


class TestCacheCommand:
    def _populate(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        main(["regen", "fig3", "--apps", "STN", "--scale", "0.25",
              "--jobs", "1", "--cache-dir", cache_dir])
        return cache_dir

    def test_stats(self, capsys, tmp_path):
        cache_dir = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 3  # STN x baseline/random/lru-20
        assert stats["bytes"] > 0

    def test_clear(self, capsys, tmp_path):
        cache_dir = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 3" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])
