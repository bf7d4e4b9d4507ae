"""JSON wire format for the experiment service.

Everything that crosses the HTTP boundary goes through this module:

* submissions — ``spec_from_dict`` parses one :class:`RunSpec` (validating
  app / setup / rate eagerly, so a bad spec is a 400 at submission, not a
  worker crash minutes later) and ``config_from_overrides`` folds a nested
  override mapping into a :class:`~repro.config.SimConfig`;
* responses — ``spec_to_dict`` / ``result_to_dict`` render specs and
  :class:`~repro.engine.simulator.SimulationResult` objects back to JSON;
* the event stream — ``GET /batches/<id>/events`` emits newline-delimited
  JSON whose shape is pinned by the checked-in ``events.schema.json``
  (a JSON-Schema subset: ``type`` / ``required`` / ``properties`` /
  ``enum`` / ``additionalProperties``, plus a per-kind ``kinds`` table).
  :func:`validate_event` is the stdlib validator for it, used by the tests
  and the CI ``service`` job — no third-party schema library required.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..config import SimConfig
from ..engine.simulator import SimulationResult
from ..errors import ConfigError, InvalidJobRequest
from ..harness.experiment import RunSpec
from ..registry import setup_components
from ..workloads.suite import BENCHMARKS

__all__ = [
    "spec_from_dict",
    "spec_to_dict",
    "specs_from_payload",
    "config_from_overrides",
    "result_to_dict",
    "load_event_schema",
    "validate_event",
    "validate_event_lines",
]

JSONDict = Dict[str, Any]

#: RunSpec fields accepted on the wire (and their JSON spelling), plus
#: ``instances``: the retired multi-GPU field, which job snapshots written
#: before its removal carry as ``1`` and which ``spec_from_dict`` accepts
#: only at that value.
_SPEC_FIELDS = (
    "app",
    "setup",
    "oversubscription",
    "scale",
    "seed",
    "crash_budget_factor",
    "instances",
)


def spec_from_dict(raw: Mapping[str, Any]) -> RunSpec:
    """Parse one submitted spec object; raises :class:`InvalidJobRequest`.

    ``oversubscription`` follows the CLI convention: ``null`` or any rate
    >= 1.0 means "no oversubscription" (stored as ``None``).
    """
    if not isinstance(raw, Mapping):
        raise InvalidJobRequest(f"spec must be an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_SPEC_FIELDS))
    if unknown:
        raise InvalidJobRequest(f"unknown spec field(s): {', '.join(unknown)}")
    app = raw.get("app")
    if not isinstance(app, str) or app not in BENCHMARKS:
        raise InvalidJobRequest(
            f"spec.app must be one of the suite apps, got {app!r}"
        )
    setup = raw.get("setup", "cppe")
    if not isinstance(setup, str):
        raise InvalidJobRequest(f"spec.setup must be a string, got {setup!r}")
    try:
        setup_components(setup)
    except ConfigError as exc:
        raise InvalidJobRequest(str(exc)) from exc
    rate = raw.get("oversubscription")
    if rate is not None:
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise InvalidJobRequest(
                f"spec.oversubscription must be a number or null, got {rate!r}"
            )
        rate = None if rate >= 1.0 else float(rate)
        if rate is not None and rate <= 0.0:
            raise InvalidJobRequest(
                "spec.oversubscription must be in (0, 1] or null"
            )
    scale = raw.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) or scale <= 0:
        raise InvalidJobRequest(f"spec.scale must be a positive number, got {scale!r}")
    seed = raw.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise InvalidJobRequest(f"spec.seed must be an integer or null, got {seed!r}")
    cbf = raw.get("crash_budget_factor")
    if cbf is not None and (
        not isinstance(cbf, (int, float)) or isinstance(cbf, bool) or cbf <= 0
    ):
        raise InvalidJobRequest(
            f"spec.crash_budget_factor must be a positive number or null, got {cbf!r}"
        )
    instances = raw.get("instances", 1)
    if not isinstance(instances, int) or isinstance(instances, bool) or instances != 1:
        raise InvalidJobRequest(
            f"spec.instances is no longer supported; only 1 is accepted, "
            f"got {instances!r}"
        )
    return RunSpec(
        app=app,
        setup=setup,
        oversubscription=rate,
        scale=float(scale),
        seed=seed,
        crash_budget_factor=None if cbf is None else float(cbf),
    )


def spec_to_dict(spec: RunSpec) -> JSONDict:
    """JSON view of a spec (round-trips through :func:`spec_from_dict`)."""
    return {
        "app": spec.app,
        "setup": spec.setup,
        "oversubscription": spec.oversubscription,
        "scale": spec.scale,
        "seed": spec.seed,
        "crash_budget_factor": spec.crash_budget_factor,
    }


def specs_from_payload(raw: Any) -> List[RunSpec]:
    """Parse the ``specs`` list of a submission payload."""
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise InvalidJobRequest("'specs' must be a JSON list of spec objects")
    if not raw:
        raise InvalidJobRequest("'specs' must not be empty")
    return [spec_from_dict(entry) for entry in raw]


def config_from_overrides(
    overrides: Optional[Mapping[str, Any]],
) -> Optional[SimConfig]:
    """A :class:`SimConfig` with ``overrides`` applied over the defaults.

    ``overrides`` mirrors the dataclass nesting: ``{"sm": {"num_sms": 4}}``
    replaces one field of one sub-config and leaves everything else at its
    default.  ``None`` / ``{}`` mean "defaults" and return ``None`` so the
    cache key matches an unconfigured run.  Unknown fields are rejected.
    """
    if not overrides:
        return None
    config = _apply_overrides(SimConfig(), overrides, path="config")
    assert isinstance(config, SimConfig)
    return config


def _apply_overrides(obj: Any, overrides: Mapping[str, Any], path: str) -> Any:
    if not isinstance(overrides, Mapping):
        raise InvalidJobRequest(f"{path} must be an object, got {overrides!r}")
    known = {f.name for f in dataclasses.fields(obj)}
    updates: Dict[str, Any] = {}
    for name, value in overrides.items():
        if name not in known:
            raise InvalidJobRequest(
                f"{path}.{name} is not a configuration field"
            )
        current = getattr(obj, name)
        if dataclasses.is_dataclass(current) and not isinstance(current, type):
            updates[name] = _apply_overrides(current, value, f"{path}.{name}")
        else:
            updates[name] = value
    try:
        return dataclasses.replace(obj, **updates)
    except (TypeError, ValueError, ConfigError) as exc:
        raise InvalidJobRequest(f"invalid {path}: {exc}") from exc


def result_to_dict(result: SimulationResult) -> JSONDict:
    """JSON summary of one simulation result (the API's ``result`` block)."""
    return {
        "label": result.label(),
        "workload": result.workload,
        "policy": result.policy,
        "prefetcher": result.prefetcher,
        "oversubscription": result.oversubscription,
        "capacity_pages": result.capacity_pages,
        "footprint_pages": result.footprint_pages,
        "crashed": result.crashed,
        "crash_reason": result.crash_reason,
        "total_cycles": result.total_cycles,
        "stats": result.stats.summary(),
    }


# --------------------------------------------------------------------------
# Event schema
# --------------------------------------------------------------------------

_SCHEMA_PATH = Path(__file__).with_name("events.schema.json")
_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def load_event_schema() -> JSONDict:
    """The checked-in schema for the NDJSON event stream."""
    payload = json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))
    assert isinstance(payload, dict)
    return payload


def _type_ok(value: Any, allowed: Any) -> bool:
    names = allowed if isinstance(allowed, list) else [allowed]
    return any(
        name in _TYPE_CHECKS and _TYPE_CHECKS[name](value) for name in names
    )


def _check_object(
    obj: Any, spec: Mapping[str, Any], where: str, errors: List[str]
) -> None:
    for name in spec.get("required", []):
        if name not in obj:
            errors.append(f"{where}: missing required field {name!r}")
    properties = spec.get("properties", {})
    for name, prop in properties.items():
        if name not in obj:
            continue
        value = obj[name]
        if "type" in prop and not _type_ok(value, prop["type"]):
            errors.append(
                f"{where}.{name}: expected {prop['type']}, "
                f"got {type(value).__name__}"
            )
        if "enum" in prop and value not in prop["enum"]:
            errors.append(f"{where}.{name}: {value!r} not in {prop['enum']}")
    if spec.get("additionalProperties") is False:
        for name in obj:
            if name not in properties:
                errors.append(f"{where}: unexpected field {name!r}")


def validate_event(
    event: Any, schema: Optional[JSONDict] = None
) -> List[str]:
    """Validation errors for one streamed event (empty list = valid)."""
    if schema is None:
        schema = load_event_schema()
    errors: List[str] = []
    if not isinstance(event, dict):
        return [f"event must be an object, got {type(event).__name__}"]
    _check_object(event, schema, "event", errors)
    kind = event.get("kind")
    kinds = schema.get("kinds", {})
    if isinstance(kind, str):
        if kind not in kinds:
            errors.append(f"event.kind: unknown kind {kind!r}")
        else:
            _check_object(event, kinds[kind], f"event[{kind}]", errors)
    return errors


def validate_event_lines(
    lines: Sequence[str], schema: Optional[JSONDict] = None
) -> List[str]:
    """Validate a whole NDJSON stream; returns per-line errors."""
    if schema is None:
        schema = load_event_schema()
    errors: List[str] = []
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {i}: not JSON: {exc}")
            continue
        errors.extend(f"line {i}: {e}" for e in validate_event(event, schema))
    return errors
