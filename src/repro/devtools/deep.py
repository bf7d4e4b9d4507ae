"""Coordinator for ``repro lint --deep``: builds the whole-program view.

:func:`build_deep_analysis` runs the two-stage pipeline from
:mod:`repro.devtools.callgraph` over an already-parsed batch of files
(re-using the checker's ASTs, so cold deep runs add no extra parsing), then
precomputes everything the REPRO5xx/6xx rules consume:

* the **worker closure** — functions transitively callable from
  :data:`~repro.devtools.boundary.WORKER_ENTRY_POINTS`
  (``harness.parallel._pool_entry``), i.e. code that actually executes
  inside pool worker processes;
* the **simulation closure** — functions reachable from
  :data:`~repro.devtools.boundary.SIMULATION_ENTRY_POINTS`
  (``harness.experiment._execute`` / ``_execute_traced``), the single seam
  every simulation funnels through;
* the **fingerprint closure** — functions reachable from any fingerprint
  function (``spec_fingerprint``/``config_fingerprint`` and helpers such as
  ``_config_payload``), which is where hash *elisions* (``del
  payload[...]`` / ``pop``) are collected from;
* the hashed dataclasses (the classes fingerprint functions annotate),
  their declared fields, and every config/spec attribute read recorded in
  the simulation closure;
* the parsed ``FINGERPRINT_ELISIONS`` allowlist entries
  (:data:`repro.harness.cache.FINGERPRINT_ELISIONS`).

The result is attached to
:attr:`repro.devtools.rules.ProjectContext.deep`; rules stay declarative
and cheap because all graph work happens once, here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .boundary import SIMULATION_ENTRY_POINTS, WORKER_ENTRY_POINTS
from .callgraph import (
    CallGraph,
    ModuleSummary,
    SummaryCache,
    extract_module_summary,
    source_digest,
)
from .rules import FileContext

__all__ = [
    "AllowlistEntry",
    "ElisionSite",
    "ConfigReadSite",
    "HashedClass",
    "DeepStats",
    "DeepAnalysis",
    "build_deep_analysis",
]


@dataclass(frozen=True)
class AllowlistEntry:
    """One parsed ``FingerprintElision(...)`` from a module's allowlist."""

    dataclass_name: str
    field: str
    reason: str
    module: str
    line: int
    column: int


@dataclass(frozen=True)
class ElisionSite:
    """A ``del payload["x"]`` / ``payload.pop("x")`` in the fingerprint closure."""

    field: str
    function: str  # fully qualified function name
    module: str
    line: int
    column: int


@dataclass(frozen=True)
class ConfigReadSite:
    """An attribute read on a (likely) hashed-config receiver."""

    class_hint: str
    field: str
    function: str
    module: str
    line: int
    column: int
    from_annotation: bool


@dataclass(frozen=True)
class HashedClass:
    """A dataclass covered by a fingerprint function."""

    name: str
    module: str
    fields: Tuple[str, ...]
    methods: Tuple[str, ...]
    #: True when the fingerprint hashes the whole object (asdict/delegation);
    #: False when it enumerates fields by hand.
    whole_object: bool
    #: Fields the fingerprint reads directly (enumerating fingerprints).
    fields_hashed: Tuple[str, ...]
    #: Anchor for findings about coverage gaps.
    fingerprint_function: str
    fingerprint_module: str
    fingerprint_line: int


@dataclass
class DeepStats:
    """Bookkeeping for the summary cache (surfaced in CLI/JSON output)."""

    files_total: int = 0
    summaries_extracted: int = 0
    summaries_from_cache: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "files_total": self.files_total,
            "summaries_extracted": self.summaries_extracted,
            "summaries_from_cache": self.summaries_from_cache,
        }


@dataclass
class DeepAnalysis:
    """Precomputed whole-program facts for the deep rules."""

    graph: CallGraph
    worker_functions: FrozenSet[str]
    worker_modules: FrozenSet[str]
    sim_functions: FrozenSet[str]
    sim_modules: FrozenSet[str]
    fingerprint_functions: FrozenSet[str]
    fingerprint_modules: FrozenSet[str]
    hashed_classes: Dict[str, HashedClass] = field(default_factory=dict)
    elisions: List[ElisionSite] = field(default_factory=list)
    allowlist: List[AllowlistEntry] = field(default_factory=list)
    sim_config_reads: List[ConfigReadSite] = field(default_factory=list)
    stats: DeepStats = field(default_factory=DeepStats)


def _collect_summaries(
    contexts: List[FileContext], cache: SummaryCache
) -> Tuple[Dict[str, ModuleSummary], DeepStats]:
    stats = DeepStats(files_total=len(contexts))
    summaries: Dict[str, ModuleSummary] = {}
    for ctx in contexts:
        digest = source_digest(ctx.source)
        summary = cache.lookup(ctx.display_path, digest)
        if summary is not None and summary.module == ctx.module:
            stats.summaries_from_cache += 1
        else:
            summary = extract_module_summary(ctx)
            cache.store(ctx.display_path, digest, summary)
            stats.summaries_extracted += 1
        summaries[ctx.module] = summary
    return summaries, stats


def build_deep_analysis(
    contexts: List[FileContext],
    cache_path: Optional[Path] = None,
) -> DeepAnalysis:
    """Run extraction + linking + closure computation over ``contexts``."""
    cache = SummaryCache(cache_path)
    summaries, stats = _collect_summaries(contexts, cache)
    cache.save(keep=[ctx.display_path for ctx in contexts])

    graph = CallGraph(summaries)

    worker_functions = graph.reachable_from(WORKER_ENTRY_POINTS)
    sim_functions = graph.reachable_from(SIMULATION_ENTRY_POINTS)

    # Fingerprint functions and the hashed classes they cover.
    fingerprint_roots: Set[str] = set()
    hashed_classes: Dict[str, HashedClass] = {}
    class_index: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = {}
    for module, summary in summaries.items():
        for cls in summary.classes:
            # Last definition of a name wins; the project has unique class
            # names for the hashed configs, which is all we resolve by name.
            class_index[cls.name] = (
                module,
                tuple(cls.fields),
                tuple(cls.methods),
            )
    for module, summary in summaries.items():
        for info in summary.fingerprints:
            fn_name, param_class, whole, fields_read, line = (
                info[0],
                info[1],
                bool(info[2]),
                list(info[3]),
                int(info[4]),
            )
            located = class_index.get(param_class)
            if located is None:
                # Name-matched but its annotated class is not a project
                # dataclass (e.g. helpers that merely mention "fingerprint");
                # not a hash root, so its del/pop sites are not elisions.
                continue
            fingerprint_roots.add(module + "." + fn_name)
            cls_module, cls_fields, cls_methods = located
            hashed_classes[param_class] = HashedClass(
                name=param_class,
                module=cls_module,
                fields=cls_fields,
                methods=cls_methods,
                whole_object=whole,
                fields_hashed=tuple(fields_read),
                fingerprint_function=fn_name,
                fingerprint_module=module,
                fingerprint_line=line,
            )

    fingerprint_functions = graph.reachable_from(fingerprint_roots)

    # Elision sites: str-keyed del/pop inside the fingerprint closure only —
    # a del on some unrelated dict elsewhere in the program is not a hash
    # elision.
    elisions: List[ElisionSite] = []
    for qual in sorted(fingerprint_functions):
        fn = graph.functions[qual]
        module = graph.function_module[qual]
        for entry in fn.elisions:
            elisions.append(
                ElisionSite(
                    field=str(entry[0]),
                    function=qual,
                    module=module,
                    line=int(entry[1]),
                    column=int(entry[2]),
                )
            )

    # The machine-readable allowlist (any module may declare one; the real
    # one lives in repro.harness.cache next to the fingerprints).
    allowlist: List[AllowlistEntry] = []
    for module in sorted(summaries):
        for raw in summaries[module].elision_entries:
            allowlist.append(
                AllowlistEntry(
                    dataclass_name=str(raw[0]),
                    field=str(raw[1]),
                    reason=str(raw[2]),
                    module=module,
                    line=int(raw[3]),
                    column=int(raw[4]),
                )
            )

    # Config/spec attribute reads inside the simulation closure.
    sim_config_reads: List[ConfigReadSite] = []
    for qual in sorted(sim_functions):
        fn = graph.functions[qual]
        module = graph.function_module[qual]
        for read in fn.config_reads:
            sim_config_reads.append(
                ConfigReadSite(
                    class_hint=str(read[0]),
                    field=str(read[1]),
                    function=qual,
                    module=module,
                    line=int(read[2]),
                    column=int(read[3]),
                    from_annotation=bool(read[4]),
                )
            )

    return DeepAnalysis(
        graph=graph,
        worker_functions=worker_functions,
        worker_modules=graph.modules_of(worker_functions),
        sim_functions=sim_functions,
        sim_modules=graph.modules_of(sim_functions),
        fingerprint_functions=fingerprint_functions,
        fingerprint_modules=graph.modules_of(fingerprint_functions),
        hashed_classes=hashed_classes,
        elisions=elisions,
        allowlist=allowlist,
        sim_config_reads=sim_config_reads,
        stats=stats,
    )
