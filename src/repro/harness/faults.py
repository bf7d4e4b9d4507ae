"""Fault tolerance for the experiment harness: options, outcomes, injection.

Three small pieces, shared by :mod:`repro.harness.parallel` and
:mod:`repro.harness.experiment` (both import this module, so it must not
import either back):

* :class:`FaultTolerance` — the caller's policy for a batch: fail fast
  (default) or ``keep_going``; how often to retry a broken pool; how long
  to wait for worker progress.  It also accumulates :class:`SpecOutcome`
  records across every batch it is threaded through, so one object passed
  down ``repro regen`` collects the whole run's failure summary.
  :func:`tolerance_from_flags` builds it from the command-line flags
  ``repro regen`` and ``repro.harness.docgen`` share.
* :class:`SpecOutcome` — one per distinct spec: ``ok`` / ``retried`` /
  ``failed`` / ``timed_out``, plus the failure envelope when there is one.
* :class:`FaultPlan` — a deterministic fault-injection hook, parsed from
  the ``REPRO_FAULT_PLAN`` environment variable (a JSON list of rules), so
  tests and CI can crash, hang, or corrupt *specific* workers on demand.
  The plan is consulted by the guarded worker entry point on both the
  serial and the pool path, which is what makes serial-vs-parallel outcome
  parity testable.

Injection actions (``FaultRule.action``):

``raise``
    Raise ``exc_type`` (default ``RuntimeError``) inside the worker — a
    stand-in for a buggy simulation.
``crash``
    Hard-kill the worker process (``os._exit``), breaking the pool — a
    stand-in for a segfaulting/OOM-killed worker.  On the in-process path
    (where killing the process would take the test runner down with it)
    this degrades to a raised ``RuntimeError`` marked as a crash.
``hang``
    Sleep ``hang_s`` seconds — a stand-in for a deadlocked worker, used to
    exercise the timeout/reap path.
``corrupt``
    Complete the simulation but replace its payload with garbage — a
    stand-in for a poisoned result, used to prove validation keeps bad
    payloads out of the cache.

A rule with ``once_flag`` set fires at most once *across processes*: the
first worker to atomically create that flag file takes the fault, later
executions of the same spec pass.  That is what makes "crash once, then
succeed on retry" deterministic.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import (
    ConfigError,
    HarnessError,
    SimulationError,
    WorkerFailure,
    WorkerTimeout,
)

__all__ = [
    "ENV_FAULT_PLAN",
    "FaultRule",
    "FaultPlan",
    "FaultTolerance",
    "BACKOFF_S",
    "MAX_BACKOFF_S",
    "backoff_delay",
    "tolerance_from_flags",
    "SpecOutcome",
    "OUTCOME_STATUSES",
    "active_fault_plan",
    "summarize_outcomes",
    "render_failure_summary",
    "WorkerTimeout",  # re-export: raised by the runner, part of the taxonomy
]

#: Environment variable holding the JSON fault plan (inherited by workers).
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: Exception types a ``raise`` rule may name.
_RAISABLE: Dict[str, type] = {
    "RuntimeError": RuntimeError,
    "OSError": OSError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "SimulationError": SimulationError,
}

_ACTIONS = frozenset({"raise", "crash", "hang", "corrupt"})


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: when a spec label contains ``match``, do ``action``."""

    match: str
    action: str
    exc_type: str = "RuntimeError"
    message: str = "injected fault"
    hang_s: float = 600.0
    #: Fire only if this flag file does not exist yet (created atomically
    #: before firing), giving cross-process at-most-once semantics.
    once_flag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise HarnessError(
                f"fault rule action {self.action!r} not in {sorted(_ACTIONS)}"
            )
        if self.action == "raise" and self.exc_type not in _RAISABLE:
            raise HarnessError(
                f"fault rule exc_type {self.exc_type!r} not in "
                f"{sorted(_RAISABLE)}"
            )

    def applies_to(self, label: str) -> bool:
        return self.match in label

    def claim(self) -> bool:
        """True if this firing is allowed (and claimed) under ``once_flag``."""
        if self.once_flag is None:
            return True
        try:
            fd = os.open(self.once_flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True


class FaultPlan:
    """An ordered list of :class:`FaultRule`\\ s (first match wins)."""

    def __init__(self, rules: Sequence[FaultRule] = ()) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)

    def __bool__(self) -> bool:
        return bool(self.rules)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"unparseable {ENV_FAULT_PLAN}: {exc}") from exc
        if not isinstance(raw, list):
            raise HarnessError(f"{ENV_FAULT_PLAN} must be a JSON list of rules")
        rules = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise HarnessError(f"fault rule must be an object: {entry!r}")
            try:
                rules.append(FaultRule(**entry))
            except TypeError as exc:
                raise HarnessError(f"bad fault rule {entry!r}: {exc}") from exc
        return cls(rules)

    @classmethod
    def from_env(
        cls, env: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """The plan in ``$REPRO_FAULT_PLAN``, or ``None`` when unset/empty."""
        text = (env if env is not None else os.environ).get(ENV_FAULT_PLAN, "")
        if not text.strip():
            return None
        return cls.from_json(text)

    def rule_for(self, label: str) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.applies_to(label):
                return rule
        return None

    def apply(self, label: str, allow_hard_exit: bool = True) -> bool:
        """Fire the first matching rule for ``label``; returns True when the
        payload should be corrupted after the simulation completes.

        ``raise``/``crash``/``hang`` take effect here (``crash`` degrades to
        a raised error when ``allow_hard_exit`` is False, i.e. in-process).
        """
        rule = self.rule_for(label)
        if rule is None or not rule.claim():
            return False
        if rule.action == "raise":
            raise _RAISABLE[rule.exc_type](f"{rule.message} [{label}]")
        if rule.action == "crash":
            if allow_hard_exit:
                os._exit(17)
            raise RuntimeError(f"injected worker crash (in-process) [{label}]")
        if rule.action == "hang":
            # Harness-side wall clock (simulating a deadlocked worker);
            # never reachable from simulation state.
            time.sleep(rule.hang_s)
            return False
        return True  # corrupt


def active_fault_plan() -> Optional[FaultPlan]:
    """The environment's fault plan, re-read per call (no caching: tests
    monkeypatch the variable, and worker processes inherit it at spawn)."""
    return FaultPlan.from_env()


# --------------------------------------------------------------------------
# Outcomes & batch policy
# --------------------------------------------------------------------------

#: Valid ``SpecOutcome.status`` values.
OUTCOME_STATUSES: Tuple[str, ...] = ("ok", "retried", "failed", "timed_out")


@dataclass
class SpecOutcome:
    """Terminal state of one distinct spec within a batch.

    ``retried`` means the spec ultimately succeeded but needed more than one
    dispatch (its pool died under it at least once); ``retries`` counts the
    extra dispatches for any status.
    """

    label: str
    status: str
    retries: int = 0
    error: Optional[WorkerFailure] = None

    def __post_init__(self) -> None:
        if self.status not in OUTCOME_STATUSES:
            raise HarnessError(
                f"outcome status {self.status!r} not in {OUTCOME_STATUSES}"
            )


@dataclass
class FaultTolerance:
    """Batch failure policy, threaded from the CLI down to the runner.

    * ``keep_going`` — record a failed spec's outcome and continue the
      batch (its result becomes ``None``); default is to fail fast by
      raising :class:`~repro.errors.WorkerFailure`.
    * ``retries`` — how many times a *broken pool* is rebuilt (after a
      :func:`backoff_delay` sleep) before degrading to serial execution.
      Simulation-level failures are never retried: they are
      deterministic.
    * ``timeout_s`` — if no worker completes for this long, in-flight
      workers are reaped and their specs marked ``timed_out`` (pool path
      only; an in-process simulation cannot be safely interrupted).

    The object accumulates outcomes across every batch it is passed to;
    ``repro regen`` shares one instance across all its artifacts and renders
    the batch-end failure summary from it.
    """

    keep_going: bool = False
    retries: int = 2
    timeout_s: Optional[float] = None
    outcomes: List[SpecOutcome] = field(default_factory=list)

    def record(self, outcome: SpecOutcome) -> SpecOutcome:
        self.outcomes.append(outcome)
        return outcome

    def failures(self) -> List[SpecOutcome]:
        """Deduplicated (last state per label) failed/timed-out outcomes."""
        return [
            o
            for o in summarize_outcomes(self.outcomes).values()
            if o.status in ("failed", "timed_out")
        ]


#: First pool-rebuild sleep (seconds); each further attempt doubles it.
BACKOFF_S = 0.05

#: Hard cap on any single pool-rebuild sleep.  The doubling schedule used
#: to grow without bound, so a generous ``retries`` budget could stall a
#: batch for minutes.
MAX_BACKOFF_S = 2.0


def backoff_delay(attempt: int) -> float:
    """Sleep before pool-rebuild ``attempt`` (1-based): exponential from
    :data:`BACKOFF_S`, clamped to :data:`MAX_BACKOFF_S` (and never
    negative)."""
    if attempt < 1:
        return 0.0
    return max(0.0, min(BACKOFF_S * 2 ** (attempt - 1), MAX_BACKOFF_S))


def tolerance_from_flags(
    keep_going: bool, retries: int, timeout_s: Optional[float]
) -> Optional[FaultTolerance]:
    """The batch policy for ``--keep-going`` / ``--retries`` /
    ``--timeout-s``, or ``None`` when every flag is at its dataclass
    default (the runner then uses its own default policy).

    Raises :class:`~repro.errors.ConfigError` naming the flag for a
    negative ``retries`` or a ``timeout_s`` that is not positive.
    """
    if retries < 0:
        raise ConfigError(f"--retries must be >= 0, got {retries}")
    if timeout_s is not None and not timeout_s > 0:
        raise ConfigError(f"--timeout-s must be > 0, got {timeout_s}")
    policy = FaultTolerance(
        keep_going=keep_going, retries=retries, timeout_s=timeout_s
    )
    return None if policy == FaultTolerance() else policy


def summarize_outcomes(
    outcomes: Sequence[SpecOutcome],
) -> Dict[str, SpecOutcome]:
    """Last-state-wins dedup by label, preserving first-appearance order.

    A spec can be resolved several times across batches (e.g. a figure
    prewarm then its per-app lookups); the latest outcome is its state.
    """
    final: Dict[str, SpecOutcome] = {}
    for outcome in outcomes:
        final[outcome.label] = outcome
    return final


def render_failure_summary(outcomes: Sequence[SpecOutcome]) -> str:
    """Human-readable batch-end summary (what ``repro regen`` prints)."""
    final = summarize_outcomes(outcomes)
    counts = {status: 0 for status in OUTCOME_STATUSES}
    for outcome in final.values():
        counts[outcome.status] += 1
    lines = [
        "failure summary: "
        + ", ".join(f"{counts[s]} {s}" for s in OUTCOME_STATUSES)
    ]
    for outcome in final.values():
        if outcome.status in ("failed", "timed_out"):
            reason = ""
            if outcome.error is not None:
                reason = f" ({outcome.error.exc_type}: {outcome.error.message})"
            lines.append(
                f"  {outcome.status}: {outcome.label}{reason}"
                + (f" after {outcome.retries} retr"
                   f"{'y' if outcome.retries == 1 else 'ies'}"
                   if outcome.retries else "")
            )
    return "\n".join(lines)
