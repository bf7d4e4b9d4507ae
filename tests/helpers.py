"""Shared helpers for policy/prefetcher unit tests, for the
differential runs against the reference monolith, and for running the
package in a fresh interpreter under the C locale."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from typing import List

import repro.engine.simulator as simulator_module
from _legacy_gmmu import GMMU as LegacyGMMU
from _legacy_structures import PageTable as LegacyPageTable
from repro.config import SimConfig
from repro.engine.stats import SimStats
from repro.harness.baselines import build_setup
from repro.harness.cache import _PICKLE_PROTOCOL
from repro.memsim.chunk_chain import ChunkChain, ChunkEntry
from repro.policies.base import EvictionPolicy, PolicyContext
from repro.prefetch.base import PrefetchContext, Prefetcher
from repro.workloads.suite import make_workload


class IntervalClock:
    """Mutable interval counter satisfying the IntervalSource protocol."""

    def __init__(self, value: int = 0):
        self.value = value

    @property
    def current_interval(self) -> int:
        return self.value


def attach_policy(
    policy: EvictionPolicy,
    config: SimConfig = None,
    seed: int = 0,
    interval: IntervalClock = None,
):
    """Attach a policy to a fresh chain/stats; returns (chain, stats, clock)."""
    chain = ChunkChain()
    stats = SimStats()
    clock = interval or IntervalClock()
    policy.attach(
        PolicyContext(
            chain=chain,
            stats=stats,
            config=config or SimConfig(),
            rng=random.Random(seed),
            clock=clock,
        )
    )
    return chain, stats, clock


def attach_prefetcher(prefetcher: Prefetcher, config: SimConfig = None) -> SimStats:
    stats = SimStats()
    prefetcher.attach(PrefetchContext(config=config or SimConfig(), stats=stats))
    return stats


def full_entry(chunk_id: int, interval: int = 0, touched: int = 0xFFFF) -> ChunkEntry:
    """A fully resident chunk entry with the given touched mask."""
    entry = ChunkEntry(chunk_id, interval)
    entry.resident_mask = 0xFFFF
    entry.touched_mask = touched
    return entry


def populate(policy: EvictionPolicy, chunk_ids: List[int], interval: int = 0,
             touched: int = 0xFFFF) -> List[ChunkEntry]:
    """Insert fully resident chunks via the policy's own insert hook; returns
    the chain's own entries, so a test's edits reach the chain."""
    chain = policy.ctx.chain
    for cid in chunk_ids:
        policy.insert_chunk(full_entry(cid, interval, touched), time=0)
    return [chain.get(cid) for cid in chunk_ids]


def never_occupied(chunk_id: int) -> int:
    """A prefetcher ``occupied`` callback for an empty device."""
    return 0


def occupied_by(pages, pages_per_chunk: int = 16):
    """A prefetcher ``occupied`` callback that reports ``pages`` as
    resident or in flight."""
    pages = set(pages)

    def occupied(chunk_id: int) -> int:
        base = chunk_id * pages_per_chunk
        return sum(
            1 << i for i in range(pages_per_chunk) if base + i in pages
        )

    return occupied


def _legacy_page_table(config, workload):
    return LegacyPageTable(config.translation.walker.levels)


def simulate(workload, setup, rate, monkeypatch, legacy, obs=None,
             config=None, scale=0.25):
    """One simulation through the public Simulator, on the production memory
    system or, with ``legacy``, on the frozen monolith over the object-graph
    reference structures.

    The monolith is injected by monkeypatching the ``MemorySystem`` and
    ``build_page_table`` names the simulator module resolves at construction
    time, so both sides see the same constructor arguments and the same
    post-construction ``page_table`` installation: any divergence is a real
    behavioural difference, not harness noise.  ``workload`` is a suite app
    name (built at ``scale``) or a :class:`~repro.workloads.base.Workload`.
    """
    if isinstance(workload, str):
        workload = make_workload(workload, scale=scale)
    with monkeypatch.context() as patch:
        if legacy:
            patch.setattr(simulator_module, "MemorySystem", LegacyGMMU)
            patch.setattr(simulator_module, "build_page_table",
                          _legacy_page_table)
        policy, prefetcher = build_setup(setup)
        sim = simulator_module.Simulator(
            workload, policy=policy, prefetcher=prefetcher,
            oversubscription=rate, config=config, obs=obs,
        )
        system = sim.gmmu
        assert (type(system) is LegacyGMMU) == legacy, type(system)
        assert (type(system.page_table) is LegacyPageTable) == legacy
        return sim.run()


def result_bytes(result) -> bytes:
    return pickle.dumps(result, protocol=_PICKLE_PROTOCOL)


REPO = Path(__file__).resolve().parent.parent


def run_in_c_locale(argv: List[str], **env: str) -> subprocess.CompletedProcess:
    """Run ``python *argv`` from the repository root with the package on
    ``PYTHONPATH``, under a locale whose preferred encoding is ASCII: UTF-8
    mode and C-locale coercion are off, so any text read or write without
    an explicit encoding fails on non-ASCII bytes.  ``env`` adds variables."""
    environ = dict(os.environ)
    environ.update(
        PYTHONUTF8="0",
        PYTHONCOERCECLOCALE="0",
        LC_ALL="C",
        PYTHONPATH=os.pathsep.join(
            p for p in (str(REPO / "src"), environ.get("PYTHONPATH")) if p
        ),
        **env,
    )
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO,
        env=environ,
        capture_output=True,
        encoding="utf-8",
        errors="replace",
        timeout=300,
    )
