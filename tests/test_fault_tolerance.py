"""Failure handling in the experiment harness (repro.harness.faults).

Covers the error taxonomy, the deterministic fault-injection hook
(``REPRO_FAULT_PLAN``), and the ``ParallelRunner`` failure paths: a
simulation-level error surfacing as that spec's failure (never a silent
serial re-run — the ``_POOL_ERRORS`` regression), ``keep_going`` per-spec
outcomes with byte-identical surviving results and cache-based resume,
crashed-worker pool retries, hung-worker reaping, and poisoned-result
validation.
"""

import dataclasses
import json
import pickle

import pytest

from repro.config import SimConfig, SMConfig
from repro.errors import (
    HarnessError,
    PoolError,
    ReproError,
    SimulationError,
    WorkerFailure,
    WorkerTimeout,
    classify_failure,
)
from repro.harness import cache as cache_mod
from repro.harness import faults as faults_mod
from repro.harness.cache import serialize_result
from repro.harness.experiment import (
    RunSpec,
    clear_cache,
    execution_count,
    run_matrix,
)
from repro.harness.faults import (
    ENV_FAULT_PLAN,
    FaultPlan,
    FaultRule,
    FaultTolerance,
    SpecOutcome,
    backoff_delay,
    render_failure_summary,
    summarize_outcomes,
)
from repro.harness.parallel import ParallelRunner, _pool_entry

FAST = SimConfig(sm=SMConfig(num_sms=4))

SPECS = [
    RunSpec("STN", "baseline", 0.5, scale=0.25),
    RunSpec("NW", "baseline", 0.5, scale=0.25),
    RunSpec("HIS", "baseline", 0.5, scale=0.25),
]


def payload(result) -> dict:
    return dataclasses.asdict(result)


def set_plan(monkeypatch, *rules: dict) -> None:
    monkeypatch.setenv(ENV_FAULT_PLAN, json.dumps(list(rules)))


def run_clean_serial(specs=SPECS):
    clear_cache(disk=False)
    return run_matrix(specs, config=FAST, cache=None)


class TestTaxonomy:
    def test_classification(self):
        assert classify_failure(RuntimeError("boom")) == "simulation"
        assert classify_failure(OSError("disk")) == "simulation"
        assert classify_failure(SimulationError("state")) == "simulation"
        assert classify_failure(PoolError("pool")) == "harness"
        assert classify_failure(WorkerTimeout("x", 1.0)) == "harness"

    def test_worker_failure_pickles(self):
        failure = WorkerFailure.from_exception(
            "NW@50%/baseline", RuntimeError("boom"), remote_traceback="tb here"
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.label == failure.label
        assert clone.exc_type == "RuntimeError"
        assert clone.kind == "simulation"
        assert clone.remote_traceback == "tb here"
        assert "remote traceback" in str(clone)

    def test_worker_timeout_pickles(self):
        clone = pickle.loads(pickle.dumps(WorkerTimeout("NW@50%", 3.5)))
        assert (clone.label, clone.timeout_s) == ("NW@50%", 3.5)

    def test_hierarchy(self):
        # keep-going callers catch WorkerFailure; "except ReproError"
        # call sites keep working.
        assert issubclass(WorkerFailure, HarnessError)
        assert issubclass(PoolError, HarnessError)
        assert issubclass(HarnessError, ReproError)


class TestFaultPlan:
    def test_from_env_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
        assert FaultPlan.from_env() is None

    def test_bad_json_raises(self):
        with pytest.raises(HarnessError):
            FaultPlan.from_json("not json")
        with pytest.raises(HarnessError):
            FaultPlan.from_json('{"not": "a list"}')
        with pytest.raises(HarnessError):
            FaultPlan.from_json('[{"match": "x", "action": "explode"}]')
        with pytest.raises(HarnessError):
            FaultPlan.from_json('[{"match": "x", "bogus_key": 1}]')

    def test_first_match_wins(self):
        plan = FaultPlan(
            [
                FaultRule(match="NW@", action="corrupt"),
                FaultRule(match="NW", action="hang"),
            ]
        )
        assert plan.rule_for("NW@50%/baseline").action == "corrupt"
        assert plan.rule_for("STN@50%/baseline") is None

    def test_once_flag_fires_once(self, tmp_path):
        rule = FaultRule(
            match="x", action="corrupt", once_flag=str(tmp_path / "flag")
        )
        assert rule.claim() is True
        assert rule.claim() is False

    def test_in_process_crash_degrades_to_raise(self):
        plan = FaultPlan([FaultRule(match="NW", action="crash")])
        with pytest.raises(RuntimeError, match="injected worker crash"):
            plan.apply("NW@50%", allow_hard_exit=False)


class TestOutcomes:
    def test_status_validated(self):
        with pytest.raises(HarnessError):
            SpecOutcome(label="x", status="exploded")

    def test_summarize_last_state_wins(self):
        outcomes = [
            SpecOutcome(label="a", status="failed"),
            SpecOutcome(label="b", status="ok"),
            SpecOutcome(label="a", status="ok", retries=1),
        ]
        final = summarize_outcomes(outcomes)
        assert final["a"].status == "ok"
        assert list(final) == ["a", "b"]

    def test_render_failure_summary(self):
        text = render_failure_summary(
            [
                SpecOutcome(label="a", status="ok"),
                SpecOutcome(
                    label="b",
                    status="failed",
                    retries=1,
                    error=WorkerFailure("b", "RuntimeError", "boom"),
                ),
            ]
        )
        assert "1 ok" in text and "1 failed" in text
        assert "failed: b (RuntimeError: boom) after 1 retry" in text


class TestRunnerValidation:
    def test_jobs_zero_or_negative_raise(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)
        with pytest.raises(ValueError):
            ParallelRunner(jobs=-2)

    def test_duplicate_progress_counts_multiplicity_immediately(self):
        # Regression: duplicates used to flush only in a trailing
        # `while done < total` burst after the batch.  Now progress fires
        # once per *distinct* resolution, advancing by the spec's
        # multiplicity, so `done` never stalls below total mid-batch.
        specs = [SPECS[0], SPECS[0], SPECS[1]]
        seen = []
        clear_cache(disk=False)
        ParallelRunner(
            jobs=2, cache=None, progress=lambda d, t: seen.append((d, t))
        ).run(specs, config=FAST)
        assert len(seen) == 2  # one call per distinct spec, not per copy
        assert seen[-1] == (3, 3)
        dones = [d for d, _ in seen]
        assert dones == sorted(dones) and len(set(dones)) == len(dones)


class TestSimulationFailureSurfaces:
    """The _POOL_ERRORS regression: a worker-raised RuntimeError/OSError is
    a *simulation* failure — labelled, tracebacked, never a fallback."""

    @pytest.mark.parametrize("exc_type", ["RuntimeError", "OSError"])
    def test_worker_error_propagates_with_label_and_traceback(
        self, monkeypatch, exc_type
    ):
        set_plan(
            monkeypatch,
            {"match": "NW@", "action": "raise", "exc_type": exc_type,
             "message": "injected sim bug"},
        )
        clear_cache(disk=False)
        runner = ParallelRunner(jobs=2, cache=None)
        with pytest.raises(WorkerFailure) as excinfo:
            runner.run(SPECS, config=FAST)
        failure = excinfo.value
        assert failure.label == "NW@50%/baseline/x0.25"
        assert failure.exc_type == exc_type
        assert failure.kind == "simulation"
        assert "injected sim bug" in failure.message
        assert "--- remote traceback ---" in str(failure)
        # The crucial bit: the batch did NOT silently re-run serially.
        assert not runner.fell_back_serial
        assert runner.pool_retries == 0

    def test_serial_path_raises_identically(self, monkeypatch):
        set_plan(
            monkeypatch,
            {"match": "NW@", "action": "raise", "message": "injected sim bug"},
        )
        clear_cache(disk=False)
        with pytest.raises(WorkerFailure) as excinfo:
            ParallelRunner(jobs=1, cache=None).run(SPECS, config=FAST)
        assert excinfo.value.label == "NW@50%/baseline/x0.25"
        assert excinfo.value.kind == "simulation"


class TestKeepGoing:
    def test_other_specs_byte_identical_and_cache_untouched_by_failure(
        self, monkeypatch
    ):
        clean = run_clean_serial()
        cache = cache_mod.get_active_cache()
        set_plan(monkeypatch, {"match": "NW@", "action": "raise"})
        ft = FaultTolerance(keep_going=True)
        clear_cache(disk=False)
        results = run_matrix(SPECS, config=FAST, jobs=2, fault_tolerance=ft)
        assert results[SPECS[1].key()] is None
        for spec in (SPECS[0], SPECS[2]):
            assert serialize_result(results[spec.key()]) == serialize_result(
                clean[spec.key()]
            )
        # Only the two successful specs checkpointed; nothing poisoned.
        assert cache.stores == 2
        by_label = summarize_outcomes(ft.outcomes)
        assert by_label["NW@50%/baseline/x0.25"].status == "failed"
        assert by_label["NW@50%/baseline/x0.25"].error.kind == "simulation"
        statuses = sorted(o.status for o in by_label.values())
        assert statuses == ["failed", "ok", "ok"]

    def test_second_invocation_resumes_from_cache(self, monkeypatch):
        cache = cache_mod.get_active_cache()
        set_plan(monkeypatch, {"match": "NW@", "action": "raise"})
        ft = FaultTolerance(keep_going=True)
        run_matrix(SPECS, config=FAST, jobs=2, fault_tolerance=ft)
        assert cache.stores == 2

        # "Next session": fault fixed, in-process memo gone, disk survives.
        monkeypatch.delenv(ENV_FAULT_PLAN)
        clear_cache(disk=False)
        hits_before = cache.hits
        executed_before = execution_count()
        ft2 = FaultTolerance(keep_going=True)
        results = run_matrix(SPECS, config=FAST, fault_tolerance=ft2)
        assert all(results[s.key()] is not None for s in SPECS)
        # Zero re-simulations of the successful specs: both come from disk.
        assert cache.hits - hits_before == 2
        assert cache.stores == 3  # only NW simulated and stored
        assert execution_count() - executed_before == 1
        statuses = sorted(o.status for o in summarize_outcomes(ft2.outcomes).values())
        assert statuses == ["ok", "ok", "ok"]

    def test_serial_and_parallel_outcome_parity(self, monkeypatch):
        set_plan(monkeypatch, {"match": "NW@", "action": "raise"})

        def outcomes_at(jobs):
            clear_cache(disk=False)
            ft = FaultTolerance(keep_going=True)
            results = run_matrix(
                SPECS, config=FAST, cache=None, jobs=jobs, fault_tolerance=ft
            )
            return (
                {s.key(): results[s.key()] is None for s in SPECS},
                {
                    label: o.status
                    for label, o in summarize_outcomes(ft.outcomes).items()
                },
            )

        assert outcomes_at(1) == outcomes_at(2)


class TestCrashedWorker:
    def test_crash_breaks_pool_then_retries_succeed(self, monkeypatch, tmp_path):
        set_plan(
            monkeypatch,
            {"match": "NW@", "action": "crash",
             "once_flag": str(tmp_path / "crash-once")},
        )
        monkeypatch.setattr(faults_mod, "BACKOFF_S", 0.01)
        clear_cache(disk=False)
        ft = FaultTolerance(keep_going=True, retries=2)
        runner = ParallelRunner(jobs=2, cache=None, fault_tolerance=ft)
        results = runner.run(SPECS, config=FAST)
        assert all(r is not None for r in results)
        assert runner.pool_retries >= 1
        by_label = summarize_outcomes(ft.outcomes)
        nw = by_label["NW@50%/baseline/x0.25"]
        assert nw.status == "retried"
        assert nw.retries >= 1

    def test_persistent_crash_falls_back_serial_with_failure(self, monkeypatch):
        # No once_flag: the crash repeats until the retry budget is spent,
        # then the serial fallback degrades it to a raised error (a failed
        # outcome), and the other specs still complete.
        set_plan(monkeypatch, {"match": "NW@", "action": "crash"})
        monkeypatch.setattr(faults_mod, "BACKOFF_S", 0.01)
        clear_cache(disk=False)
        ft = FaultTolerance(keep_going=True, retries=1)
        runner = ParallelRunner(jobs=2, cache=None, fault_tolerance=ft)
        results = runner.run(SPECS, config=FAST)
        assert runner.fell_back_serial
        by_label = summarize_outcomes(ft.outcomes)
        assert by_label["NW@50%/baseline/x0.25"].status == "failed"
        assert [r is None for r in results] == [False, True, False]


class TestHungWorker:
    def test_hang_reaped_as_timed_out(self, monkeypatch):
        set_plan(monkeypatch, {"match": "NW@", "action": "hang", "hang_s": 120})
        monkeypatch.setattr(faults_mod, "BACKOFF_S", 0.01)
        clear_cache(disk=False)
        ft = FaultTolerance(keep_going=True, retries=1, timeout_s=3.0)
        runner = ParallelRunner(jobs=2, cache=None, fault_tolerance=ft)
        results = runner.run(SPECS, config=FAST)
        by_label = summarize_outcomes(ft.outcomes)
        nw = by_label["NW@50%/baseline/x0.25"]
        assert nw.status == "timed_out"
        assert nw.error.exc_type == "WorkerTimeout"
        assert runner.timed_out == 1
        assert [r is None for r in results] == [False, True, False]


class TestPoisonedResult:
    def test_corrupt_payload_rejected_and_kept_out_of_cache(self, monkeypatch):
        cache = cache_mod.get_active_cache()
        set_plan(monkeypatch, {"match": "NW@", "action": "corrupt"})
        clear_cache(disk=False)
        ft = FaultTolerance(keep_going=True)
        runner = ParallelRunner(jobs=2, fault_tolerance=ft)
        results = runner.run(SPECS, config=FAST)
        assert [r is None for r in results] == [False, True, False]
        by_label = summarize_outcomes(ft.outcomes)
        nw = by_label["NW@50%/baseline/x0.25"]
        assert nw.status == "failed"
        assert nw.error.exc_type == "CorruptedResult"
        assert cache.stores == 2  # the garbage payload never reached disk
        # ... and a fresh, fault-free lookup re-simulates NW from scratch.
        monkeypatch.delenv(ENV_FAULT_PLAN)
        clear_cache(disk=False)
        fresh = run_matrix([SPECS[1]], config=FAST)
        assert fresh[SPECS[1].key()] is not None


class TestGuardedEntry:
    def test_pool_entry_never_raises(self, monkeypatch):
        set_plan(monkeypatch, {"match": "NW@", "action": "raise"})
        reply = _pool_entry(SPECS[1], FAST, in_worker=False)
        assert reply.failure is not None
        assert reply.failure.kind == "simulation"
        ok = _pool_entry(SPECS[0], FAST, in_worker=False)
        assert ok.failure is None and ok.payload is not None

    def test_summary_includes_failure_counters(self, monkeypatch):
        set_plan(monkeypatch, {"match": "NW@", "action": "raise"})
        clear_cache(disk=False)
        runner = ParallelRunner(
            jobs=2, cache=None, fault_tolerance=FaultTolerance(keep_going=True)
        )
        runner.run(SPECS, config=FAST)
        summary = runner.summary()
        assert summary["failed"] == 1
        assert summary["timed_out"] == 0
        assert summary["fell_back_serial"] is False


class TestObsIntegration:
    def test_worker_failure_event_and_counter(self, monkeypatch):
        from repro.obs import Observability

        set_plan(monkeypatch, {"match": "NW@", "action": "raise"})
        clear_cache(disk=False)
        obs = Observability.enabled_()
        runner = ParallelRunner(
            jobs=2, cache=None, fault_tolerance=FaultTolerance(keep_going=True)
        )
        runner.run(SPECS, config=FAST, obs=obs)
        events = obs.tracer.of_kind("worker_failure")
        assert len(events) == 1
        assert events[0].args["label"] == "NW@50%/baseline/x0.25"
        assert events[0].args["status"] == "failed"
        snapshot = obs.metrics.snapshot()
        assert snapshot["harness/worker_failures"]["value"] == 1


class TestSweepKeepGoing:
    def test_failed_point_dropped_and_recorded(self, monkeypatch):
        from repro.analysis.sweep import capacity_sweep

        set_plan(monkeypatch, {"match": "STN@50%", "action": "raise"})
        sweep = capacity_sweep(
            "STN", "baseline", rates=(1.0, 0.75, 0.5), scale=0.25,
            fault_tolerance=FaultTolerance(keep_going=True),
        )
        assert sweep.failures == [0.5]
        assert [p.rate for p in sweep.points] == [1.0, 0.75]

    def test_failed_anchor_raises(self, monkeypatch):
        from repro.analysis.sweep import capacity_sweep

        set_plan(monkeypatch, {"match": "STN@unl", "action": "raise"})
        with pytest.raises(HarnessError, match="anchor"):
            capacity_sweep(
                "STN", "baseline", rates=(1.0, 0.5), scale=0.25,
                fault_tolerance=FaultTolerance(keep_going=True),
            )


class TestFigureKeepGoing:
    def test_fig3_failed_app_yields_none_series_entries(self, monkeypatch):
        from repro.harness import figures

        set_plan(monkeypatch, {"match": "NW@", "action": "raise"})
        result = figures.fig3(
            apps=["STN", "NW"], scale=0.25,
            fault_tolerance=FaultTolerance(keep_going=True),
        )
        assert result.series["random"]["NW"] is None
        assert result.series["random"]["STN"] is not None


class TestCliRegen:
    def test_keep_going_exits_1_with_summary(self, monkeypatch, capsys):
        from repro.cli import main

        set_plan(monkeypatch, {"match": "NW@", "action": "raise"})
        code = main(
            ["regen", "fig3", "--apps", "STN", "NW", "--scale", "0.25",
             "--keep-going"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "failure summary:" in err
        assert "NW@50%/baseline/x0.25" in err

    def test_fail_fast_raises_without_keep_going(self, monkeypatch):
        from repro.cli import main

        set_plan(monkeypatch, {"match": "NW@", "action": "raise"})
        # Fault injection is a ParallelRunner contract, so engage the pool.
        with pytest.raises(WorkerFailure):
            main(["regen", "fig3", "--apps", "STN", "NW", "--scale", "0.25",
                  "-j", "2"])


class TestBackoffClamp:
    """Regression: the pool-rebuild backoff schedule is clamped.

    ``BACKOFF_S * 2**(attempt-1)`` used to grow without bound, so a
    generous ``retries`` budget meant a crashing worker could stall the
    runner for minutes between rebuilds.  ``MAX_BACKOFF_S`` caps every
    single sleep.
    """

    @staticmethod
    def set_backoff(monkeypatch, base, cap):
        monkeypatch.setattr(faults_mod, "BACKOFF_S", base)
        monkeypatch.setattr(faults_mod, "MAX_BACKOFF_S", cap)

    def test_exponential_then_clamped(self, monkeypatch):
        self.set_backoff(monkeypatch, 0.05, 0.2)
        delays = [backoff_delay(attempt) for attempt in range(1, 7)]
        assert delays == pytest.approx([0.05, 0.1, 0.2, 0.2, 0.2, 0.2])

    def test_deep_attempt_stays_bounded_at_default(self):
        # Pre-clamp, attempt 20 meant 0.05 * 2**19 ≈ 26214 seconds.
        assert backoff_delay(20) == faults_mod.MAX_BACKOFF_S == 2.0
        assert all(backoff_delay(a) <= 2.0 for a in range(1, 64))

    def test_cap_below_base_applies_immediately(self, monkeypatch):
        self.set_backoff(monkeypatch, 1.0, 0.01)
        assert backoff_delay(1) == pytest.approx(0.01)

    def test_attempts_before_one_sleep_zero(self):
        assert backoff_delay(0) == 0.0
        assert backoff_delay(-3) == 0.0

    def test_zero_cap_disables_sleeping(self, monkeypatch):
        self.set_backoff(monkeypatch, 0.5, 0.0)
        assert all(backoff_delay(a) == 0.0 for a in range(1, 8))

    def test_pool_rebuild_sleeps_are_clamped(self, monkeypatch, tmp_path):
        """The runner's actual sleeps respect the clamp under crash retries."""
        from repro.harness import parallel as parallel_mod

        recorded = []
        monkeypatch.setattr(
            parallel_mod.time, "sleep", lambda s: recorded.append(s)
        )
        set_plan(
            monkeypatch,
            {"match": "STN@", "action": "crash",
             "once_flag": str(tmp_path / "crash-once")},
        )
        self.set_backoff(monkeypatch, 4.0, 0.01)
        ft = FaultTolerance(keep_going=True, retries=2)
        runner = ParallelRunner(jobs=2, cache=None, fault_tolerance=ft)
        runner.run([SPECS[0]], config=FAST)
        assert recorded, "a crashed worker must trigger a backoff sleep"
        assert all(delay <= 0.01 for delay in recorded)
