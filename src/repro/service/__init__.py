"""Always-on experiment service: submit / queue / stream / serve.

The one-shot CLI graduates to a long-running service here:

* :mod:`repro.service.wire` — JSON wire format: ``RunSpec`` / ``SimConfig``
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
  the façade the HTTP layer and tests drive;
* :mod:`repro.service.server` — the stdlib ``http.server`` front end
  (``POST /batches``, ``GET /batches/<id>``, ``GET /batches/<id>/events``);
* :mod:`repro.service.client` — the thin client behind ``repro submit`` /
  ``repro status``.
"""

from .client import ServiceClient
from .core import ExperimentService, ServiceConfig
from .jobs import JOB_STATES, TERMINAL_STATES, Job, JobQueue, JobStore
from .scheduler import Scheduler
from .server import make_server, serve
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
    "ServiceClient",
    "Scheduler",
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobQueue",
    "JobStore",
    "make_server",
    "serve",
    "spec_from_dict",
    "spec_to_dict",
    "result_to_dict",
    "load_event_schema",
    "validate_event",
]
