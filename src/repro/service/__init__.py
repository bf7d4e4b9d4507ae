"""In-process experiment service: submit / queue / drain / replay events.

* :mod:`repro.service.wire` — JSON format: ``RunSpec`` / ``SimConfig``
  override parsing, result rendering, and the newline-delimited event
  schema (``events.schema.json``) with its stdlib validator;
* :mod:`repro.service.jobs` — the job lifecycle state machine
  (``queued -> running -> done | failed | cancelled``), the prioritized
  :class:`~repro.service.jobs.JobQueue`, and the persistent
  :class:`~repro.service.jobs.JobStore` whose atomic JSON snapshots let a
  restarted service resume its queue;
* :mod:`repro.service.scheduler` — the drain loop: jobs execute through
  :func:`repro.harness.experiment.submit_batch`, inheriting worker pools,
  fault tolerance and the persistent result cache (warm submissions come
  back with ``BatchStats.simulated == 0``);
* :mod:`repro.service.core` — :class:`~repro.service.core.ExperimentService`,
  the façade the tests drive.
"""

from .core import ExperimentService, ServiceConfig
from .jobs import JOB_STATES, TERMINAL_STATES, Job, JobQueue, JobStore
from .scheduler import Scheduler
from .wire import (
    load_event_schema,
    result_to_dict,
    spec_from_dict,
    spec_to_dict,
    validate_event,
)

__all__ = [
    "ExperimentService",
    "ServiceConfig",
    "Scheduler",
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobQueue",
    "JobStore",
    "spec_from_dict",
    "spec_to_dict",
    "result_to_dict",
    "load_event_schema",
    "validate_event",
]
