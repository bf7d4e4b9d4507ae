"""The always-on experiment service (repro.service) end to end.

Covers the tentpole acceptance criteria of the service PR:

* live submit -> poll -> stream against an in-process service and a real
  localhost HTTP server;
* warm resubmission of an already-cached batch reports
  ``BatchStats.simulated == 0`` through the API;
* a ``REPRO_FAULT_PLAN`` drill surfaces per-spec failure (and the job's
  ``failed`` state) through the API instead of crashing the service;
* kill + restart resumes the persisted queue without losing jobs or
  re-running completed specs;
* the job state machine, priority queue and the NDJSON event schema, each
  in isolation.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.errors import InvalidJobRequest, ServiceError, UnknownJob
from repro.harness.experiment import RunSpec, execution_count, spec_label
from repro.obs.bus import BusEvent, EventBus
from repro.service import (
    ExperimentService,
    Job,
    JobQueue,
    JobStore,
    ServiceClient,
    ServiceConfig,
    make_server,
)
from repro.service.wire import (
    config_from_overrides,
    load_event_schema,
    spec_from_dict,
    spec_to_dict,
    validate_event,
    validate_event_lines,
)

SPEC = {"app": "STN", "setup": "baseline", "oversubscription": 0.5, "scale": 0.25}
SPEC2 = {"app": "NW", "setup": "baseline", "oversubscription": 0.5, "scale": 0.25}


def wait_terminal(service, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        view = service.status(job_id)
        if view["state"] in ("done", "failed", "cancelled"):
            return view
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout_s}s")


@pytest.fixture
def service(tmp_path):
    svc = ExperimentService(ServiceConfig(state_dir=tmp_path / "state"))
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def idle_service(tmp_path):
    """A service whose scheduler is *not* running (jobs stay queued)."""
    svc = ExperimentService(ServiceConfig(state_dir=tmp_path / "state"))
    yield svc
    svc.stop()


# --------------------------------------------------------------------------
# EventBus
# --------------------------------------------------------------------------


class TestEventBus:
    def test_sequence_is_monotonic_from_one(self):
        bus = EventBus()
        seqs = [bus.publish("k", {"i": i}).seq for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert bus.last_seq == 5

    def test_events_since_is_exclusive(self):
        bus = EventBus()
        for i in range(4):
            bus.publish("k", {"i": i})
        assert [e.seq for e in bus.events_since(2)] == [3, 4]
        assert bus.events_since(4) == []

    def test_to_dict_reserved_keys_win(self):
        event = BusEvent(seq=7, kind="real", payload={"seq": 0, "kind": "fake", "x": 1})
        d = event.to_dict()
        assert d["seq"] == 7 and d["kind"] == "real" and d["x"] == 1

    def test_wait_since_blocks_until_publish(self):
        bus = EventBus()
        got = []

        def reader():
            events, _ = bus.wait_since(0, timeout=5.0)
            got.extend(events)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        bus.publish("k", {})
        t.join(5.0)
        assert [e.seq for e in got] == [1]

    def test_close_wakes_readers_and_rejects_publishes(self):
        bus = EventBus()
        results = {}

        def reader():
            results["ret"] = bus.wait_since(0)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        bus.close()
        t.join(5.0)
        assert results["ret"] == ([], True)
        with pytest.raises(RuntimeError):
            bus.publish("k", {})

    def test_history_limit_drops_from_front(self):
        bus = EventBus(history_limit=2)
        for i in range(5):
            bus.publish("k", {"i": i})
        assert [e.seq for e in bus.events_since(0)] == [4, 5]
        assert bus.dropped == 3
        assert bus.last_seq == 5  # numbering keeps counting past drops

    def test_history_limit_validated(self):
        with pytest.raises(ValueError):
            EventBus(history_limit=0)


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


# --------------------------------------------------------------------------
# Service end-to-end (in-process)
# --------------------------------------------------------------------------


class TestServiceLive:
    def test_submit_poll_stream(self, service):
        view = service.submit({"specs": [SPEC, SPEC2]})
        job_id = view["job"]
        assert view["state"] in ("queued", "running")
        final = wait_terminal(service, job_id)
        assert final["state"] == "done"
        assert final["stats"]["simulated"] >= 1
        assert final["stats"]["failed"] == 0
        statuses = [entry["status"] for entry in final["specs"]]
        assert statuses == ["ok", "ok"]
        for entry in final["specs"]:
            assert entry["result"]["total_cycles"] > 0
            assert entry["result"]["workload"] == entry["spec"]["app"]

        events = [e.to_dict() for e in service.events_bus(job_id).events_since(0)]
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "queued" and kinds[-1] == "done"
        assert "batch_stats" in kinds and "spec_outcome" in kinds
        schema = load_event_schema()
        assert [err for e in events for err in validate_event(e, schema)] == []

    def test_warm_resubmission_simulates_nothing(self, service):
        first = wait_terminal(service, service.submit({"specs": [SPEC]})["job"])
        assert first["stats"]["simulated"] == 1
        executed_before = execution_count()
        second = wait_terminal(service, service.submit({"specs": [SPEC]})["job"])
        assert second["state"] == "done"
        assert second["stats"]["simulated"] == 0
        assert second["stats"]["memo_hits"] + second["stats"]["cache_hits"] == 1
        assert execution_count() == executed_before
        # identical payloads either way
        assert (second["specs"][0]["result"]["total_cycles"]
                == first["specs"][0]["result"]["total_cycles"])

    def test_fault_drill_surfaces_failed_through_api(self, service, monkeypatch):
        label = spec_label(spec_from_dict(SPEC))
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps([{"match": label, "action": "raise",
                         "message": "drill"}]),
        )
        view = service.submit({"specs": [SPEC, SPEC2]})
        final = wait_terminal(service, view["job"])
        assert final["state"] == "failed"
        assert "1 of 2" in final["error"]
        by_label = {e["label"]: e for e in final["specs"]}
        assert by_label[label]["status"] == "failed"
        assert "drill" in by_label[label]["error"]
        assert by_label[label]["result"] is None
        other = spec_label(spec_from_dict(SPEC2))
        assert by_label[other]["status"] == "ok"
        assert by_label[other]["result"] is not None
        kinds = [e.kind for e in service.events_bus(view["job"]).events_since(0)]
        assert kinds[-1] == "failed"

    def test_duplicate_specs_collapse_to_one_simulation(self, service):
        final = wait_terminal(service, service.submit({"specs": [SPEC, SPEC]})["job"])
        assert final["state"] == "done"
        assert final["stats"]["simulated"] == 1
        results = [e["result"]["total_cycles"] for e in final["specs"]]
        assert results[0] == results[1]

    def test_config_overrides_affect_results_and_cache_key(self, service):
        plain = wait_terminal(service, service.submit({"specs": [SPEC]})["job"])
        small = wait_terminal(
            service,
            service.submit(
                {"specs": [SPEC], "config": {"sm": {"num_sms": 2}}}
            )["job"],
        )
        assert small["stats"]["simulated"] == 1  # different cache key
        assert (small["specs"][0]["result"]["total_cycles"]
                != plain["specs"][0]["result"]["total_cycles"])

    def test_cancel_queued_job(self, idle_service):
        view = idle_service.submit({"specs": [SPEC]})
        cancelled = idle_service.cancel(view["job"])
        assert cancelled["state"] == "cancelled"
        assert cancelled["specs"][0]["status"] == "cancelled"
        kinds = [e.kind for e in idle_service.events_bus(view["job"]).events_since(0)]
        assert kinds == ["queued", "cancelled"]

    def test_submission_validation(self, idle_service):
        with pytest.raises(InvalidJobRequest):
            idle_service.submit({"specs": []})
        with pytest.raises(InvalidJobRequest):
            idle_service.submit({"specs": [SPEC], "bogus": 1})
        with pytest.raises(InvalidJobRequest):
            idle_service.submit({"specs": [{**SPEC, "app": "NOPE"}]})
        with pytest.raises(InvalidJobRequest):
            idle_service.submit({"specs": [SPEC], "config": {"bogus": 1}})
        with pytest.raises(InvalidJobRequest):
            idle_service.submit({"specs": [SPEC], "priority": "high"})
        with pytest.raises(UnknownJob):
            idle_service.status("b-nope")
        with pytest.raises(UnknownJob):
            idle_service.events_bus("b-nope")

    def test_priority_order_drained_high_first(self, tmp_path):
        svc = ExperimentService(ServiceConfig(state_dir=tmp_path / "state"))
        low = svc.submit({"specs": [SPEC], "priority": 0})["job"]
        high = svc.submit({"specs": [SPEC2], "priority": 9})["job"]
        svc.start()
        wait_terminal(svc, low)
        wait_terminal(svc, high)
        assert (svc.store.get(high).started_ts
                <= svc.store.get(low).started_ts)
        svc.stop()


class TestRestartResume:
    def test_restart_resumes_queued_jobs(self, tmp_path):
        state = tmp_path / "state"
        svc1 = ExperimentService(ServiceConfig(state_dir=state))
        job_id = svc1.submit({"specs": [SPEC]})["job"]
        svc1.stop()  # killed before the scheduler ever ran

        svc2 = ExperimentService(ServiceConfig(state_dir=state))
        pending = svc2.resume()
        assert [j.job_id for j in pending] == [job_id]
        svc2.start()
        final = wait_terminal(svc2, job_id)
        assert final["state"] == "done"
        svc2.stop()

    def test_snapshot_with_retired_instances_field_resumes(self, tmp_path):
        # The exact snapshot JobStore.save wrote while RunSpec still had an
        # ``instances`` field: every spec carries ``"instances": 1``.
        state = tmp_path / "state"
        snapshot = {
            "attempts": 0,
            "created_ts": 0.0,
            "enqueue_seq": 0,
            "error": None,
            "finished_ts": None,
            "job_id": "b-legacy",
            "outcomes": [],
            "overrides": None,
            "priority": 0,
            "results": [],
            "specs": [{**SPEC, "crash_budget_factor": None, "instances": 1,
                       "seed": None}],
            "started_ts": None,
            "state": "queued",
            "stats": None,
            "tenant": "default",
            "version": 1,
        }
        path = JobStore(state).directory / "b-legacy.json"
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True),
                        encoding="utf-8")

        svc = ExperimentService(ServiceConfig(state_dir=state))
        pending = svc.resume()
        assert [j.job_id for j in pending] == ["b-legacy"]
        assert pending[0].specs == [spec_from_dict(SPEC)]
        svc.start()
        final = wait_terminal(svc, "b-legacy")
        assert final["state"] == "done"
        assert "instances" not in final["specs"][0]["spec"]
        svc.stop()

    def test_restart_does_not_rerun_completed_specs(self, tmp_path):
        state = tmp_path / "state"
        svc1 = ExperimentService(ServiceConfig(state_dir=state))
        svc1.start()
        done_id = svc1.submit({"specs": [SPEC]})["job"]
        wait_terminal(svc1, done_id)
        svc1.stop()

        executed = execution_count()
        svc2 = ExperimentService(ServiceConfig(state_dir=state))
        assert svc2.resume() == []  # terminal jobs are not re-queued
        svc2.start()
        view = svc2.status(done_id)
        assert view["state"] == "done"
        assert view["specs"][0]["result"]["total_cycles"] > 0
        assert execution_count() == executed  # nothing re-ran
        svc2.stop()

    def test_mid_run_crash_requeues_and_finishes(self, tmp_path):
        state = tmp_path / "state"
        # Fake a service that died mid-drain: snapshot says "running".
        store = JobStore(state)
        job = make_job("b-interrupted")
        job.transition("running")
        store.save(job)

        svc = ExperimentService(ServiceConfig(state_dir=state))
        pending = svc.resume()
        assert [j.job_id for j in pending] == ["b-interrupted"]
        svc.start()
        final = wait_terminal(svc, "b-interrupted")
        assert final["state"] == "done"
        assert final["attempts"] == 2  # first life + the resumed one
        svc.stop()

    def test_terminal_job_events_replayed_after_restart(self, tmp_path):
        state = tmp_path / "state"
        svc1 = ExperimentService(ServiceConfig(state_dir=state))
        svc1.start()
        job_id = svc1.submit({"specs": [SPEC]})["job"]
        wait_terminal(svc1, job_id)
        svc1.stop()

        svc2 = ExperimentService(ServiceConfig(state_dir=state))
        svc2.resume()
        bus = svc2.events_bus(job_id)
        events = [e.to_dict() for e in bus.events_since(0)]
        assert bus.closed
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "queued" and kinds[-1] == "done"
        assert all(e.get("resumed") is True for e in events)
        schema = load_event_schema()
        assert [err for e in events for err in validate_event(e, schema)] == []
        svc2.stop()


# --------------------------------------------------------------------------
# HTTP layer (real localhost server)
# --------------------------------------------------------------------------


@pytest.fixture
def http_service(tmp_path):
    svc = ExperimentService(ServiceConfig(state_dir=tmp_path / "state"))
    svc.start()
    server = make_server(svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield svc, client
    server.shutdown()
    server.server_close()
    svc.stop()


class TestHTTP:
    def test_healthz(self, http_service):
        _, client = http_service
        health = client.health()
        assert health["ok"] is True and health["scheduler"] is True

    def test_submit_poll_stream_over_http(self, http_service):
        _, client = http_service
        view = client.submit({"specs": [SPEC]})
        assert view["state"] in ("queued", "running")
        final = client.wait(view["job"], timeout_s=60)
        assert final["state"] == "done"
        assert final["stats"]["simulated"] in (0, 1)

        # raw NDJSON body validates line by line against the schema
        raw = urllib.request.urlopen(
            f"{client.base_url}/batches/{view['job']}/events", timeout=30
        ).read().decode("utf-8")
        lines = raw.splitlines()
        assert validate_event_lines(lines) == []
        kinds = [json.loads(line)["kind"] for line in lines if line.strip()]
        assert kinds[0] == "queued" and kinds[-1] == "done"

    def test_follow_streams_until_close(self, http_service):
        _, client = http_service
        view = client.submit({"specs": [SPEC]})
        kinds = [e["kind"] for e in client.events(view["job"], follow=True)]
        assert kinds[-1] in ("done", "failed")

    def test_after_resumes_mid_stream(self, http_service):
        _, client = http_service
        view = client.submit({"specs": [SPEC]})
        client.wait(view["job"], timeout_s=60)
        all_events = list(client.events(view["job"]))
        tail = list(client.events(view["job"], after=all_events[1]["seq"]))
        assert [e["seq"] for e in tail] == [e["seq"] for e in all_events[2:]]

    def test_unknown_batch_is_404(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError) as err:
            client.status("b-nope")
        assert "404" in str(err.value)
        with pytest.raises(ServiceError) as err:
            list(client.events("b-nope"))
        assert "404" in str(err.value)

    def test_bad_payload_is_400(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError) as err:
            client.submit({"specs": [{**SPEC, "app": "NOPE"}]})
        assert "400" in str(err.value)

    def test_instances_other_than_one_is_400(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError) as err:
            client.submit({"specs": [{**SPEC, "instances": 2}]})
        assert "400" in str(err.value)
        assert "instances" in str(err.value)

    def test_list_batches(self, http_service):
        _, client = http_service
        view = client.submit({"specs": [SPEC]})
        client.wait(view["job"], timeout_s=60)
        batches = client.list_batches()["batches"]
        assert any(b["job"] == view["job"] and b["state"] == "done"
                   for b in batches)

    def test_cancel_running_conflicts(self, http_service):
        svc, client = http_service
        view = client.submit({"specs": [SPEC]})
        client.wait(view["job"], timeout_s=60)
        # terminal cancel is a no-op echo of the terminal state
        assert client.cancel(view["job"])["state"] == "done"

    def test_unknown_route_404(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError):
            client._request("GET", "/no/such/route")


# --------------------------------------------------------------------------
# CLI clients against a live server
# --------------------------------------------------------------------------


class TestCLIClients:
    def test_submit_and_status_commands(self, http_service, capsys):
        from repro.cli import main

        _, client = http_service
        rc = main([
            "submit", "STN", "--setup", "baseline", "--rate", "0.5",
            "--scale", "0.25", "--url", client.base_url, "--json",
        ])
        out = capsys.readouterr()
        assert rc == 0
        view = json.loads(out.out)
        assert view["state"] == "done"
        job_id = view["job"]

        assert main(["status", "--url", client.base_url]) == 0
        out = capsys.readouterr()
        assert job_id in out.out

        assert main(["status", job_id, "--url", client.base_url,
                     "--events"]) == 0
        out = capsys.readouterr()
        lines = [line for line in out.out.splitlines() if line.strip()]
        assert validate_event_lines(lines) == []

    def test_submit_spec_file(self, http_service, tmp_path, capsys):
        from repro.cli import main

        _, client = http_service
        payload = {"specs": [SPEC], "tenant": "filed"}
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        rc = main(["submit", "--spec-file", str(path),
                   "--url", client.base_url, "--json"])
        out = capsys.readouterr()
        assert rc == 0
        assert json.loads(out.out)["tenant"] == "filed"

    def test_submit_without_specs_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["submit", "--url", "http://127.0.0.1:1"]) == 2
