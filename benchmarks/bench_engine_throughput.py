"""Engine microbenchmarks — simulator throughput, not a paper artifact.

These are conventional pytest-benchmark measurements (multiple rounds) of
the simulation engine itself: accesses simulated per second on a hit-heavy
stream and on a fault-heavy stream.  They guard against performance
regressions in the hot paths (SM burst loop, TLB lookup, fault service).
The end-to-end benchmark is ``perfbench/``; these two synthetic streams
isolate the hit path and the fault path.  Any randomised inputs
(fault-case write flags) are drawn from the config-seeded
``SimConfig.make_rng`` stream, never from ambient RNG state.
"""

import numpy as np

from repro.config import SimConfig, SMConfig
from repro.engine.simulator import Simulator
from repro.harness.cache import config_fingerprint
from repro.workloads.base import Workload

#: The fixed engine-benchmark configuration (8 SMs, default memory).
CONFIG = SimConfig(sm=SMConfig(num_sms=8))


def hit_heavy_workload(sweeps: int = 200) -> Workload:
    """One footprint pass then ``sweeps - 1`` re-touches of 512 pages.

    The footprint fits the L2 TLB, so after the cold pass nearly every
    access resolves in the translation hierarchy: the SM burst-loop / TLB
    hot path.  Enough sweeps amortise the 512 cold-pass faults away.
    """
    footprint = 512
    sweep = np.arange(footprint, dtype=np.int64)
    return Workload(
        name="bench-hits",
        pattern_type="I",
        footprint_pages=footprint,
        accesses=np.concatenate([sweep] * sweeps),
    )


def fault_heavy_workload(sweeps: int = 6) -> Workload:
    """Cyclic sweeps over 2048 pages — run at 50% oversubscription, nearly
    every chunk faults and thrashes through eviction.

    Write flags are drawn from the config-seeded simulation RNG so
    dirty-page writeback is exercised and the stream stays reproducible
    from the config seed alone.
    """
    rng = CONFIG.make_rng()
    footprint = 2048
    sweep = np.arange(footprint, dtype=np.int64)
    accesses = np.concatenate([sweep] * sweeps)
    writes = np.fromiter(
        (rng.getrandbits(1) for _ in range(accesses.size)),
        dtype=bool,
        count=accesses.size,
    )
    return Workload(
        name="bench-faults",
        pattern_type="IV",
        footprint_pages=footprint,
        accesses=accesses,
        writes=writes,
    )


def test_hit_path_throughput(benchmark):
    workload = hit_heavy_workload()

    def run():
        return Simulator(workload, oversubscription=None, config=CONFIG).run()

    result = benchmark(run)
    benchmark.extra_info["accesses"] = result.stats.accesses
    benchmark.extra_info["config_fingerprint"] = config_fingerprint(CONFIG)


def test_fault_path_throughput(benchmark):
    workload = fault_heavy_workload()

    def run():
        return Simulator(workload, oversubscription=0.5, config=CONFIG).run()

    result = benchmark(run)
    benchmark.extra_info["far_faults"] = result.stats.far_faults
    benchmark.extra_info["config_fingerprint"] = config_fingerprint(CONFIG)
