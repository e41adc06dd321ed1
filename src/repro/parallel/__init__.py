"""repro.parallel — grid fan-out over forked worker processes.

Two layers:

* :mod:`repro.parallel.pool` — :class:`WorkerPool`, persistent forked
  workers with pipe control, crash detection and cross-process trace
  propagation.
* :mod:`repro.parallel.grid` — :func:`parallel_map`, one configuration per
  worker for the experiment sweeps (figure1 defense curves, ablation
  grids).  Each cell trains serially inside its worker, so a parallel
  sweep reproduces the serial sweep's numbers exactly.

See ``docs/parallel.md`` for the architecture and the trace envelope.
"""

from .grid import parallel_map
from .pool import WorkerCrash, WorkerError, WorkerPool, resolve_workers

__all__ = [
    "WorkerCrash",
    "WorkerError",
    "WorkerPool",
    "parallel_map",
    "resolve_workers",
]
