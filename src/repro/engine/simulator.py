"""Top-level simulator: wires workload, SMs, translation, GMMU, policy and
prefetcher, runs to completion, and returns a :class:`SimulationResult`.

This is the main entry point of the library::

    from repro import Simulator, make_workload
    from repro.core import CPPE

    wl = make_workload("SRD")
    pair = CPPE.create()
    result = Simulator(wl, policy=pair.policy, prefetcher=pair.prefetcher,
                       oversubscription=0.5).run()
    print(result.total_cycles, result.stats.far_faults)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import SimConfig
from ..errors import SimulationError, ThrashingCrash
from ..memsim.page_table import PageTable
from ..memsim.system import MemorySystem
from ..obs import DISABLED, Observability
from ..policies.base import EvictionPolicy
from ..policies.lru import LRUPolicy
from ..prefetch.base import Prefetcher
from ..prefetch.locality import LocalityPrefetcher
from ..translation.hierarchy import TranslationHierarchy
from ..workloads.base import Workload
from .events import EventQueue
from .sm import StreamingMultiprocessor
from .stats import SimStats, publish_summary

__all__ = ["Simulator", "SimulationResult", "build_page_table"]

#: Safety valve: no experiment in the reproduction needs more events.
DEFAULT_MAX_EVENTS = 100_000_000


def build_page_table(config: SimConfig, workload: Workload) -> PageTable:
    """Page table for ``workload``.

    Pre-sized to the workload's rebased VPN range so the simulation itself
    never grows the lists (the growth path exists for robustness, not the
    steady state).
    """
    return PageTable(
        config.translation.walker.levels,
        origin_hint=workload.base_vpn,
        size_hint=workload.footprint_pages + 1,
    )


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    workload: str
    pattern_type: str
    policy: str
    prefetcher: str
    oversubscription: Optional[float]
    capacity_pages: int
    footprint_pages: int
    stats: SimStats = field(repr=False, default_factory=SimStats)
    crashed: bool = False
    crash_reason: str = ""

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Speedup of this run relative to ``baseline`` (>1 means faster).

        A crashed baseline has no defined runtime; callers must check
        ``crashed`` first (mirrors the 'X' entries in Fig. 10).
        """
        if self.crashed or baseline.crashed:
            raise SimulationError(
                "speedup undefined for crashed runs "
                f"(self.crashed={self.crashed}, baseline.crashed={baseline.crashed})"
            )
        if self.total_cycles == 0 or baseline.total_cycles == 0:
            raise SimulationError("run has zero cycles; was it executed?")
        return baseline.total_cycles / self.total_cycles

    def label(self) -> str:
        rate = "unl" if self.oversubscription is None else f"{self.oversubscription:.0%}"
        return f"{self.workload}@{rate}/{self.policy}+{self.prefetcher}"


class Simulator:
    """One simulated GPU executing one workload under one configuration."""

    def __init__(
        self,
        workload: Workload,
        policy: Optional[EvictionPolicy] = None,
        prefetcher: Optional[Prefetcher] = None,
        oversubscription: Optional[float] = None,
        config: Optional[SimConfig] = None,
        capacity_pages: Optional[int] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        obs: Optional[Observability] = None,
    ):
        self.workload = workload
        self.config = config or SimConfig()
        self.obs = obs or DISABLED
        self.policy = policy if policy is not None else LRUPolicy()
        self.prefetcher = (
            prefetcher if prefetcher is not None else LocalityPrefetcher()
        )
        self.oversubscription = oversubscription
        self.capacity = (
            capacity_pages
            if capacity_pages is not None
            else workload.capacity_for(oversubscription)
        )
        self.max_events = max_events

        self.events = EventQueue()
        self.stats = SimStats()
        page_table = build_page_table(self.config, workload)
        self.translation: Optional[TranslationHierarchy] = None
        if self.config.translation.enabled:
            self.translation = TranslationHierarchy(
                self.config.translation, self.config.sm.num_sms, page_table, self.stats
            )
        self.memory = MemorySystem(
            config=self.config,
            capacity_frames=self.capacity,
            events=self.events,
            stats=self.stats,
            policy=self.policy,
            prefetcher=self.prefetcher,
            translation=self.translation,
            footprint_pages=workload.footprint_pages,
            obs=self.obs,
        )
        #: Back-compat alias for the pre-refactor attribute name.
        self.gmmu = self.memory
        if self.translation is None:
            # The memory system built its own page table; keep a single
            # source of truth (the setter rebinds every stage).
            self.memory.page_table = page_table

        self._finished_sms = 0
        self.sms = []
        for sm_id, (trace, writes) in enumerate(
            workload.per_sm_traces(self.config.sm.num_sms)
        ):
            if trace.size == 0:
                self._finished_sms += 1
                continue
            self.sms.append(
                StreamingMultiprocessor(
                    sm_id=sm_id,
                    trace=trace,
                    writes=writes,
                    config=self.config,
                    gmmu=self.gmmu,
                    translation=self.translation,
                    events=self.events,
                    stats=self.stats,
                    on_finish=self._on_sm_finish,
                )
            )
        if not self.sms:
            raise SimulationError("workload produced no non-empty SM traces")

    def _on_sm_finish(self, sm_id: int, time: int) -> None:
        self._finished_sms += 1

    def run(self) -> SimulationResult:
        """Execute to completion (or crash) and return the result."""
        result = SimulationResult(
            workload=self.workload.name,
            pattern_type=self.workload.pattern_type,
            policy=self.policy.name,
            prefetcher=self.prefetcher.name,
            oversubscription=self.oversubscription,
            capacity_pages=self.capacity,
            footprint_pages=self.workload.footprint_pages,
            stats=self.stats,
        )
        trace = self.obs.tracer
        if trace.enabled:
            trace.emit(
                "run_start", 0, label=result.label(),
                workload=self.workload.name, policy=self.policy.name,
                prefetcher=self.prefetcher.name,
                capacity_pages=self.capacity,
                footprint_pages=self.workload.footprint_pages,
            )
        for sm in self.sms:
            sm.start(0)
        try:
            self.events.run(max_events=self.max_events)
        except ThrashingCrash as crash:
            result.crashed = True
            result.crash_reason = str(crash)
            self.stats.total_cycles = self.events.now
            if trace.enabled:
                trace.emit(
                    "run_end", self.events.now, label=result.label(),
                    crashed=True, reason=result.crash_reason,
                )
            publish_summary(self.stats, self.obs.metrics)
            return result

        if any(not sm.done for sm in self.sms):
            raise SimulationError(
                f"event queue drained but {sum(1 for sm in self.sms if not sm.done)}"
                " SMs have not finished (deadlock?)"
            )
        self.gmmu.drain_check()
        self.stats.total_cycles = max(
            self.stats.sm_finish_times.values(), default=self.events.now
        )
        if self.translation is not None:
            self.translation.sync_counter_stats()
        self.stats.final_strategy = self.policy.current_strategy
        if trace.enabled:
            trace.emit(
                "run_end", self.stats.total_cycles, label=result.label(),
                crashed=False, total_cycles=self.stats.total_cycles,
                far_faults=self.stats.far_faults,
            )
        publish_summary(self.stats, self.obs.metrics)
        return result
