"""Two-instance smoke scenario for the sharded multi-GPU simulator.

``repro.engine.multi.ShardedSimulator`` runs N independent MemorySystem
instances (one simulated GPU each) on a single event queue, splitting the
device capacity and the SM population across them.  This suite pins down
the minimal guarantees the scenario ships with:

* capacity sharding arithmetic (``split_capacity``);
* determinism: byte-identical results across repeated runs, through the
  serial ``run_matrix`` path and through ``ParallelRunner`` workers;
* the two-instance run is a *different* simulation than the classic
  single-instance one, with a distinct disk-cache key — while the default
  ``instances=1`` spec keeps its pre-refactor cache key.
"""

import dataclasses
import pickle

import pytest

from repro.config import SimConfig, SMConfig
from repro.engine.multi import ShardedSimulator, split_capacity
from repro.errors import SimulationError
from repro.harness.baselines import build_setup
from repro.harness.cache import _PICKLE_PROTOCOL, spec_fingerprint
from repro.harness.experiment import RunSpec, clear_cache, run_matrix
from repro.harness.parallel import ParallelRunner
from repro.workloads.suite import make_workload

FAST = SimConfig(sm=SMConfig(num_sms=4))

SMOKE = RunSpec("NW", "cppe", 0.5, scale=0.25, instances=2)


def result_bytes(result) -> bytes:
    return pickle.dumps(result, protocol=_PICKLE_PROTOCOL)


class TestSplitCapacity:
    def test_even_split(self):
        assert split_capacity(128, 2) == [64, 64]

    def test_remainder_goes_to_low_shards(self):
        assert split_capacity(131, 4) == [33, 33, 33, 32]

    def test_single_instance_is_identity(self):
        assert split_capacity(77, 1) == [77]

    def test_conserves_total(self):
        for total in (1, 63, 64, 65, 1000):
            for n in (1, 2, 3, 7):
                assert sum(split_capacity(total, n)) == total

    def test_rejects_bad_instance_count(self):
        with pytest.raises(SimulationError):
            split_capacity(128, 0)


class TestShardedSimulator:
    def _run(self):
        workload = make_workload("NW", scale=0.25)
        pairs = [build_setup("cppe") for _ in range(2)]
        return ShardedSimulator(
            workload,
            policies=[p for p, _ in pairs],
            prefetchers=[pf for _, pf in pairs],
            oversubscription=0.5,
            config=FAST,
        ).run()

    def test_two_instance_run_is_deterministic(self):
        assert result_bytes(self._run()) == result_bytes(self._run())

    def test_differs_from_single_instance(self):
        workload = make_workload("NW", scale=0.25)
        policy, prefetcher = build_setup("cppe")
        from repro.engine.simulator import Simulator

        single = Simulator(
            workload,
            policy=policy,
            prefetcher=prefetcher,
            oversubscription=0.5,
            config=FAST,
        ).run()
        sharded = self._run()
        assert sharded.total_cycles != single.total_cycles

    def test_policy_prefetcher_arity_enforced(self):
        workload = make_workload("NW", scale=0.25)
        policy, prefetcher = build_setup("cppe")
        with pytest.raises(SimulationError):
            ShardedSimulator(
                workload,
                policies=[policy],
                prefetchers=[prefetcher, prefetcher],
                oversubscription=0.5,
            )


class TestHarnessSmoke:
    def test_serial_and_parallel_paths_agree(self):
        clear_cache(disk=False)
        serial = run_matrix([SMOKE], config=FAST, cache=None)
        clear_cache(disk=False)
        runner = ParallelRunner(jobs=2, cache=None)
        (parallel_result,) = runner.run([SMOKE], config=FAST, use_cache=False)
        serial_result = serial[SMOKE.key()]
        assert dataclasses.asdict(serial_result) == dataclasses.asdict(
            parallel_result
        )

    def test_serial_path_repeatable(self):
        clear_cache(disk=False)
        first = run_matrix([SMOKE], config=FAST, cache=None)[SMOKE.key()]
        clear_cache(disk=False)
        second = run_matrix([SMOKE], config=FAST, cache=None)[SMOKE.key()]
        assert result_bytes(first) == result_bytes(second)


class TestCacheKeyCompatibility:
    def test_default_instances_elided_from_fingerprint(self):
        # The pre-refactor RunSpec had no ``instances`` field; eliding the
        # default keeps every previously cached entry reachable.
        spec = RunSpec("NW", "cppe", 0.5, scale=0.25)
        fields = dataclasses.asdict(spec)
        assert fields.pop("instances") == 1
        import hashlib
        import json

        from repro.harness.cache import CACHE_SCHEMA_VERSION

        config_fields = dataclasses.asdict(SimConfig())
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "spec": fields,
            "config": config_fields,
        }
        legacy_key = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert spec_fingerprint(spec) == legacy_key

    def test_nondefault_instances_changes_key(self):
        assert spec_fingerprint(SMOKE) != spec_fingerprint(
            dataclasses.replace(SMOKE, instances=1)
        )
