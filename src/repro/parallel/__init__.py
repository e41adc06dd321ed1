"""repro.parallel — grid fan-out over forked worker processes.

:func:`parallel_map` runs one configuration per worker for the experiment
sweeps (figure1 defense curves, ablation grids) on a standard-library
process pool.  Each cell trains serially inside its worker, so a parallel
sweep reproduces the serial sweep's numbers exactly when the serial parent,
like the workers, runs numpy's OpenBLAS on one thread
(``OPENBLAS_NUM_THREADS=1``).

See ``docs/parallel.md`` for the architecture and the run record.
"""

from .grid import WorkerCrash, parallel_map, resolve_workers

__all__ = ["WorkerCrash", "parallel_map", "resolve_workers"]
