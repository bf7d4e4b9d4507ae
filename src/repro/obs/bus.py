"""In-process event bus: ordered fan-out of harness telemetry.

The experiment service (:mod:`repro.service`) publishes job-lifecycle,
progress and worker-fault events here; each serialises to one line of
newline-delimited JSON.  The bus itself is deliberately dumb and
deterministic: an append-only journal of :class:`BusEvent` records with
monotonically increasing sequence numbers, plus a condition variable so
readers can block for the next batch.  It assigns **no timestamps** — the
obs package sits on the simulation side of the determinism boundary
(sim-time only, no wall clock; see :mod:`repro.devtools.boundary`), so any
wall-clock annotation is the *publisher's* job, carried inside the payload
by harness-side code.

Publishers and subscribers may live on different threads; every method is
safe under the internal lock.  ``history_limit`` bounds the journal for
long-lived buses (old events are dropped from the front; sequence numbers
keep counting, so readers can detect the gap).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = ["BusEvent", "EventBus"]


@dataclass(frozen=True)
class BusEvent:
    """One published record: a monotonic sequence number, a kind, a payload."""

    seq: int
    kind: str
    payload: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (payload keys merged beside ``seq``/``kind``;
        the reserved keys always win over payload entries)."""
        out: Dict[str, object] = dict(self.payload)
        out["seq"] = self.seq
        out["kind"] = self.kind
        return out


class EventBus:
    """Append-only, thread-safe event journal with blocking reads."""

    def __init__(self, history_limit: Optional[int] = None) -> None:
        if history_limit is not None and history_limit < 1:
            raise ValueError(
                f"history_limit must be >= 1 or None, got {history_limit}"
            )
        self._cond = threading.Condition()
        self._events: List[BusEvent] = []
        self._next_seq = 1
        self._dropped = 0  # events evicted from the front of the journal
        self._closed = False
        self._history_limit = history_limit

    # --- publishing -------------------------------------------------------

    def publish(
        self, kind: str, payload: Optional[Mapping[str, object]] = None
    ) -> BusEvent:
        """Append one event and wake every blocked reader.

        Publishing on a closed bus raises ``RuntimeError`` — a closed bus
        is a terminated job's journal, and late events would be invisible
        to streams that already saw the close.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("publish on a closed EventBus")
            event = BusEvent(
                seq=self._next_seq, kind=kind, payload=dict(payload or {})
            )
            self._next_seq += 1
            self._events.append(event)
            if (
                self._history_limit is not None
                and len(self._events) > self._history_limit
            ):
                excess = len(self._events) - self._history_limit
                del self._events[:excess]
                self._dropped += excess
            self._cond.notify_all()
            return event

    def close(self) -> None:
        """Mark the journal complete and wake every blocked reader."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # --- reading ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent event (0 when empty)."""
        with self._cond:
            return self._next_seq - 1

    @property
    def dropped(self) -> int:
        """Events evicted from the journal front by ``history_limit``."""
        with self._cond:
            return self._dropped

    def events_since(self, seq: int) -> List[BusEvent]:
        """Every retained event with a sequence number greater than ``seq``
        (non-blocking snapshot, oldest first)."""
        with self._cond:
            return self._after_locked(seq)

    def wait_since(
        self, seq: int, timeout: Optional[float] = None
    ) -> Tuple[List[BusEvent], bool]:
        """Block until there is at least one event after ``seq`` or the bus
        closes; returns ``(events, closed)``.

        A ``timeout`` (seconds) bounds the wait — on expiry the call
        returns whatever is available (possibly nothing) so a streaming
        loop can interleave keep-alive work.
        """
        with self._cond:
            if timeout is None:
                while not self._after_locked(seq) and not self._closed:
                    self._cond.wait()
            elif not self._after_locked(seq) and not self._closed:
                self._cond.wait(timeout)
            return self._after_locked(seq), self._closed

    def _after_locked(self, seq: int) -> List[BusEvent]:
        # The journal is append-only and seq-ordered; binary search would
        # be fine, but journals are short-lived and bounded — linear scan
        # from the back keeps this trivially correct.
        out: List[BusEvent] = []
        for event in reversed(self._events):
            if event.seq <= seq:
                break
            out.append(event)
        out.reverse()
        return out
