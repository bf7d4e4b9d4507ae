"""What remains of the experiment service (repro.service), in isolation:

* the JSON wire format — spec parsing and rendering, config overrides,
  and the NDJSON event schema with its validator;
* the job state machine, the priority queue and the snapshot store.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidJobRequest, ServiceError, UnknownJob
from repro.harness.experiment import RunSpec
from repro.service import Job, JobQueue, JobStore
from repro.service.wire import (
    config_from_overrides,
    load_event_schema,
    spec_from_dict,
    spec_to_dict,
    validate_event,
    validate_event_lines,
)

SPEC = {"app": "STN", "setup": "baseline", "oversubscription": 0.5, "scale": 0.25}


# --------------------------------------------------------------------------
# Wire format
# --------------------------------------------------------------------------


class TestWire:
    def test_spec_round_trip(self):
        spec = spec_from_dict(SPEC)
        assert spec == RunSpec("STN", "baseline", 0.5, scale=0.25)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_retired_instances_field_accepted_only_as_one(self):
        # Snapshots and clients from before the multi-GPU scenario was
        # retired send ``instances: 1``; other values are in the invalid
        # specs below.
        assert spec_from_dict({**SPEC, "instances": 1}) == spec_from_dict(SPEC)
        assert "instances" not in spec_to_dict(spec_from_dict(SPEC))

    def test_rate_one_or_more_means_unlimited(self):
        assert spec_from_dict({**SPEC, "oversubscription": 1.0}).oversubscription is None
        assert spec_from_dict({**SPEC, "oversubscription": None}).oversubscription is None

    @pytest.mark.parametrize(
        "bad",
        [
            {**SPEC, "app": "NO-SUCH-APP"},
            {**SPEC, "app": 7},
            {**SPEC, "setup": "no-such-setup"},
            {**SPEC, "oversubscription": -0.5},
            {**SPEC, "oversubscription": "half"},
            {**SPEC, "scale": 0},
            {**SPEC, "seed": 1.5},
            {**SPEC, "instances": 2},
            {**SPEC, "instances": True},
            {**SPEC, "instances": 1.0},
            {**SPEC, "crash_budget_factor": -1},
            {**SPEC, "bogus_field": 1},
            "not an object",
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(InvalidJobRequest):
            spec_from_dict(bad)

    def test_config_overrides_nested(self):
        cfg = config_from_overrides({"sm": {"num_sms": 4}})
        assert cfg is not None and cfg.sm.num_sms == 4
        assert config_from_overrides(None) is None
        assert config_from_overrides({}) is None

    def test_config_overrides_unknown_field_rejected(self):
        with pytest.raises(InvalidJobRequest):
            config_from_overrides({"sm": {"not_a_field": 1}})
        with pytest.raises(InvalidJobRequest):
            config_from_overrides({"warp_drive": True})

    def test_config_overrides_invalid_value_rejected(self):
        with pytest.raises(InvalidJobRequest):
            config_from_overrides({"sm": {"num_sms": -3}})

    def test_validate_event_catches_shape_errors(self):
        schema = load_event_schema()
        good = {"seq": 1, "job": "b-1", "kind": "progress", "ts": 1.0,
                "done": 1, "total": 2}
        assert validate_event(good, schema) == []
        assert validate_event({"seq": 1}, schema)  # missing required
        assert validate_event({**good, "seq": "one"}, schema)  # wrong type
        assert validate_event({**good, "kind": "mystery"}, schema)
        assert validate_event({**good, "surprise": 1}, schema)  # additional
        missing_kind_field = {k: v for k, v in good.items() if k != "done"}
        assert validate_event(missing_kind_field, schema)

    def test_validate_event_lines_reports_bad_json(self):
        errors = validate_event_lines(["{not json", ""])
        assert len(errors) == 1 and "line 1" in errors[0]


# --------------------------------------------------------------------------
# Job state machine / queue / store
# --------------------------------------------------------------------------


def make_job(job_id="b-test", **kwargs):
    kwargs.setdefault("specs", [spec_from_dict(SPEC)])
    return Job(job_id=job_id, **kwargs)


class TestJobStateMachine:
    def test_happy_path(self):
        job = make_job()
        assert job.state == "queued" and not job.terminal
        job.transition("running")
        assert job.attempts == 1
        job.transition("done")
        assert job.terminal

    def test_illegal_transitions_raise(self):
        job = make_job()
        with pytest.raises(ServiceError):
            job.transition("done")  # queued -> done skips running
        job.transition("running")
        job.transition("failed")
        with pytest.raises(ServiceError):
            job.transition("running")  # terminal states are final

    def test_restart_recovery_transition(self):
        job = make_job()
        job.transition("running")
        job.transition("queued")  # the one legal way back
        job.transition("running")
        assert job.attempts == 2

    def test_unknown_state_rejected(self):
        with pytest.raises(ServiceError):
            make_job(state="paused")
        with pytest.raises(ServiceError):
            make_job().transition("paused")

    def test_snapshot_round_trip(self):
        job = make_job(tenant="t1", priority=3, overrides={"sm": {"num_sms": 4}})
        job.transition("running")
        job.outcomes = [{"label": "x", "status": "ok", "retries": 0, "error": None}]
        clone = Job.from_dict(job.to_dict())
        assert clone.to_dict() == job.to_dict()
        assert clone.specs == job.specs

    def test_snapshot_version_checked(self):
        raw = make_job().to_dict()
        raw["version"] = 999
        with pytest.raises(ServiceError):
            Job.from_dict(raw)


class TestJobQueue:
    def test_priority_then_fifo(self):
        q = JobQueue()
        for job_id, prio in [("a", 0), ("b", 5), ("c", 0), ("d", 5)]:
            q.push(make_job(job_id, priority=prio))
        assert [q.pop(0.1) for _ in range(4)] == ["b", "d", "a", "c"]

    def test_pop_times_out_empty(self):
        assert JobQueue().pop(timeout=0.05) is None

    def test_remove_cancels_queued(self):
        q = JobQueue()
        q.push(make_job("a"))
        q.push(make_job("b"))
        assert q.remove("a") is True
        assert q.remove("zzz") is False
        assert q.pop(0.1) == "b"
        assert len(q) == 0

    def test_closed_queue(self):
        q = JobQueue()
        q.push(make_job("a"))
        q.close()
        assert q.pop(0.1) == "a"  # drains what it has
        assert q.pop(0.1) is None
        with pytest.raises(ServiceError):
            q.push(make_job("b"))


class TestJobStore:
    def test_save_then_load_all(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(make_job("a"))
        done = make_job("b")
        done.transition("running")
        done.transition("done")
        store.save(done)

        fresh = JobStore(tmp_path)
        pending = fresh.load_all()
        assert [j.job_id for j in pending] == ["a"]
        assert fresh.get("b").state == "done"

    def test_running_jobs_requeued_on_load(self, tmp_path):
        store = JobStore(tmp_path)
        job = make_job("crashed-mid-run")
        job.transition("running")
        store.save(job)

        fresh = JobStore(tmp_path)
        pending = fresh.load_all()
        assert [j.job_id for j in pending] == ["crashed-mid-run"]
        assert pending[0].state == "queued"
        # and the recovery is itself persisted
        again = JobStore(tmp_path)
        again.load_all()
        assert again.get("crashed-mid-run").state == "queued"

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(UnknownJob):
            JobStore(tmp_path).get("nope")

    def test_snapshots_are_files_per_job(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(make_job("a"))
        store.save(make_job("b"))
        names = sorted(p.name for p in store.directory.glob("*.json"))
        assert names == ["a.json", "b.json"]
        assert not list(store.directory.glob("*.tmp"))
