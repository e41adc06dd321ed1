"""repro.parallel — grid fan-out over forked worker processes.

:func:`parallel_map` runs one configuration per worker for the experiment
sweeps (figure1 defense curves, ablation grids) on a standard-library
process pool.  Each cell trains serially inside its worker, so a parallel
sweep reproduces the serial sweep's numbers exactly.

See ``docs/parallel.md`` for the architecture and trace propagation.
"""

from .grid import WorkerCrash, parallel_map, resolve_workers

__all__ = ["WorkerCrash", "parallel_map", "resolve_workers"]
