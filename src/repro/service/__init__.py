"""What remains of the experiment service: its job model and JSON format.

* :mod:`repro.service.wire` — JSON format: ``RunSpec`` / ``SimConfig``
  override parsing, and the newline-delimited event schema
  (``events.schema.json``) with its stdlib validator;
* :mod:`repro.service.jobs` — the job lifecycle state machine
  (``queued -> running -> done | failed | cancelled``), the prioritized
  :class:`~repro.service.jobs.JobQueue`, and the persistent
  :class:`~repro.service.jobs.JobStore` of atomic JSON snapshots.

Nothing outside ``tests/test_service.py`` imports this package.  Batches
run, resume and replay through ``repro regen`` and the disk cache.
"""

from .jobs import JOB_STATES, TERMINAL_STATES, Job, JobQueue, JobStore
from .wire import (
    load_event_schema,
    spec_from_dict,
    spec_to_dict,
    validate_event,
)

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobQueue",
    "JobStore",
    "spec_from_dict",
    "spec_to_dict",
    "load_event_schema",
    "validate_event",
]
