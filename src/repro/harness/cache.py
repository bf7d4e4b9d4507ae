"""Persistent on-disk result cache for simulation runs.

Because every simulation is seeded and deterministic, a
:class:`~repro.engine.simulator.SimulationResult` is a pure function of its
:class:`~repro.harness.experiment.RunSpec` and the :class:`~repro.config.SimConfig`
it ran under.  This module caches results on disk keyed by a stable content
hash of both (plus a schema version), so regenerating a figure or table a
second time — even from a fresh process — reads results from disk instead of
re-simulating.

Layout: one pickle file per entry under ``<root>/<hh>/<hash>.pkl`` where
``hh`` is the first two hex digits of the key (keeps directories small).
Writes are atomic (temp file + ``os.replace``); any unreadable, truncated,
corrupted or schema-mismatched entry is treated as a miss, never an error.

The *active* cache is the one :func:`repro.harness.experiment.run_one`
consults by default.  It is lazily constructed from ``$REPRO_CACHE_DIR``
(default ``~/.cache/repro-cppe``) and can be disabled entirely with
``REPRO_CACHE=0`` or :func:`set_active_cache`\\ ``(None)``.  The test suite
installs a per-test temporary cache so tests can never poison each other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple, Union, cast

from ..config import SimConfig
from ..registry import plugin_components_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiment -> cache)
    from ..engine.simulator import SimulationResult
    from .experiment import RunSpec

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "FingerprintElision",
    "FINGERPRINT_ELISIONS",
    "ResultCache",
    "config_fingerprint",
    "spec_fingerprint",
    "serialize_result",
    "deserialize_result",
    "default_cache_dir",
    "cache_enabled",
    "get_active_cache",
    "set_active_cache",
]

#: Bump whenever simulator semantics change in a way that alters results —
#: all previously cached entries become unreachable (their keys embed the
#: old version) and are rewritten on the next regeneration.
#: v2: MHPE forward-distance clamp at T3 and pattern-buffer FIFO
#: re-record fix changed eviction/prefetch behaviour.
CACHE_SCHEMA_VERSION = 2

#: Pickle protocol pinned so "byte-identical serialization" is well-defined
#: across interpreter minor versions.
_PICKLE_PROTOCOL = 4


@dataclasses.dataclass(frozen=True)
class FingerprintElision:
    """One deliberate exclusion from the cache content hash.

    The fingerprints below hash whole objects (``dataclasses.asdict``), so
    any field *left out* is a conscious decision that must carry its
    reasoning.  This table is the machine-readable record of those
    decisions: ``repro lint --deep`` (REPRO501/REPRO502) cross-checks it
    against the actual ``del``/``pop`` elisions in the fingerprint code and
    against every config/spec field read reachable from the simulation
    entry points — an elided-but-read field without an entry here fails the
    build, as does an entry whose elision no longer exists.
    """

    dataclass_name: str
    field: str
    reason: str


#: The audited allowlist of fields that deliberately escape the hash.
#: Keep entries next to the fingerprints they describe; ``field="*"``
#: documents an entire object that never reaches the cache key.
FINGERPRINT_ELISIONS: Tuple[FingerprintElision, ...] = (
    FingerprintElision(
        dataclass_name="ObsConfig",
        field="*",
        reason=(
            "observability settings never reach cached results: traced runs "
            "force use_cache=False (run_one/docgen), and obs output is "
            "side-channel telemetry, not part of SimulationResult"
        ),
    ),
)


def _canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _config_payload(config: SimConfig) -> Dict[str, object]:
    """Hashable view of a config: every field reaches the hash by
    whole-object construction (REPRO201)."""
    return dataclasses.asdict(config)


def config_fingerprint(config: Optional[SimConfig]) -> str:
    """Stable content hash of a :class:`SimConfig` (``None`` = defaults).

    ``None`` and an explicitly constructed default ``SimConfig()`` hash
    identically — they run identical simulations.
    """
    effective = config if config is not None else SimConfig()
    blob = _canonical_json(_config_payload(effective))
    return hashlib.sha256(blob.encode()).hexdigest()


def spec_fingerprint(
    spec: "RunSpec",
    config: Optional[SimConfig] = None,
    schema_version: int = CACHE_SCHEMA_VERSION,
) -> str:
    """Cache key: sha256 over RunSpec fields + SimConfig fields + schema.

    Whole-object hashing via ``dataclasses.asdict`` (REPRO201): every spec
    field reaches the hash by construction.
    """
    effective = config if config is not None else SimConfig()
    spec_fields = dataclasses.asdict(spec)
    payload = {
        "schema": schema_version,
        "spec": spec_fields,
        "config": _config_payload(effective),
    }
    # Component identity sections derive from the registry's declared
    # ``fingerprint_fields``.  In-tree setups contribute nothing — the
    # payload stays byte-identical to the pre-registry format, so warm
    # caches survive (golden-key test) — but a plugin component's name,
    # origin module and declared fields enter the key whenever a plugin is
    # actually part of the setup.
    components = plugin_components_payload(spec.setup)
    if components is not None:
        payload["components"] = components
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def serialize_result(result: "SimulationResult") -> bytes:
    """Canonical byte serialization of a result (what the cache stores)."""
    return pickle.dumps(result, protocol=_PICKLE_PROTOCOL)


def deserialize_result(blob: bytes) -> "SimulationResult":
    return cast("SimulationResult", pickle.loads(blob))


class ResultCache:
    """Content-addressed on-disk store of :class:`SimulationResult` objects.

    Tracks ``hits`` / ``misses`` / ``stores`` counters for the lifetime of
    the instance (figure regenerations use them to prove a warm cache does
    zero new simulations).
    """

    def __init__(
        self,
        root: Union[str, Path],
        schema_version: int = CACHE_SCHEMA_VERSION,
    ) -> None:
        self.root = Path(root)
        self.schema_version = schema_version
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # --- keys & paths ----------------------------------------------------

    def key_for(self, spec: "RunSpec", config: Optional[SimConfig] = None) -> str:
        return spec_fingerprint(spec, config, schema_version=self.schema_version)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # --- read / write ----------------------------------------------------

    def get(
        self, spec: "RunSpec", config: Optional[SimConfig] = None
    ) -> Optional["SimulationResult"]:
        """Load a cached result, or ``None`` (a miss) if absent/unreadable."""
        key = self.key_for(spec, config)
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
            payload = pickle.loads(blob)
            if (
                not isinstance(payload, dict)
                or payload.get("schema") != self.schema_version
                or payload.get("key") != key
            ):
                raise ValueError("cache entry metadata mismatch")
            result = deserialize_result(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupted / truncated / stale-format entry: drop it and miss.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(
        self,
        spec: "RunSpec",
        config: Optional[SimConfig],
        result: "SimulationResult",
    ) -> Path:
        """Atomically store ``result``; returns the entry path."""
        key = self.key_for(spec, config)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": self.schema_version,
            "key": key,
            "result": serialize_result(result),
        }
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=_PICKLE_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    # --- maintenance ------------------------------------------------------

    def _entry_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        yield from sorted(self.root.glob("*/*.pkl"))

    def _entry_schema(self, path: Path) -> Optional[int]:
        """The stored ``schema`` field of an entry, or ``None`` when the
        entry is unreadable / not in the expected envelope format."""
        try:
            payload = pickle.loads(path.read_bytes())
        except Exception:
            return None
        if isinstance(payload, dict) and isinstance(payload.get("schema"), int):
            return cast(int, payload["schema"])
        return None

    def clear(self) -> int:
        """Delete this cache's *own* entries; returns the number removed.

        Only entries whose stored ``schema`` matches ``schema_version`` are
        deleted: after a schema bump the old generation's entries belong to
        a different key space this cache can never read, so clearing must
        not destroy them (an older checkout may still be using them).
        Unreadable entries are also left alone — ``get()`` already
        self-heals those on access.
        """
        removed = 0
        for path in self._entry_paths():
            if self._entry_schema(path) != self.schema_version:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, object]:
        """Snapshot: on-disk entry count/bytes + lifetime counters.

        ``entries``/``bytes`` cover only this cache's schema generation;
        entries written under any other schema version (or unreadable ones)
        are surfaced separately as ``stale_entries``/``stale_bytes`` so a
        schema bump is visible instead of silently inflating the count.
        """
        entries = 0
        total_bytes = 0
        stale_entries = 0
        stale_bytes = 0
        for path in self._entry_paths():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if self._entry_schema(path) == self.schema_version:
                entries += 1
                total_bytes += size
            else:
                stale_entries += 1
                stale_bytes += size
        return {
            "root": str(self.root),
            "schema_version": self.schema_version,
            "entries": entries,
            "bytes": total_bytes,
            "stale_entries": stale_entries,
            "stale_bytes": stale_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }


# --- active cache (consulted by run_one by default) ------------------------

_active: Optional[ResultCache] = None
_active_configured = False  # False = lazily construct on first use


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-cppe``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-cppe"


def cache_enabled() -> bool:
    """Disk caching is on unless ``REPRO_CACHE`` is 0/off/false/no."""
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def get_active_cache() -> Optional[ResultCache]:
    """The process-wide cache ``run_one`` consults (lazily constructed)."""
    global _active, _active_configured
    if not _active_configured:
        _active = ResultCache(default_cache_dir()) if cache_enabled() else None
        _active_configured = True
    return _active


def set_active_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    """Install ``cache`` (or ``None`` to disable); returns the previous one."""
    global _active, _active_configured
    previous = _active
    _active = cache
    _active_configured = True
    return previous
