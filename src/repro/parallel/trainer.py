"""Multi-process data-parallel training over shared-memory buffers.

:class:`DataParallelTrainer` wraps any :class:`~repro.defenses.trainer.Trainer`
(vanilla, mixed/FGSM, epochwise, TRADES, ...) and distributes every batch
across ``N`` persistent forked workers:

1. the parent writes the batch (examples, labels, dataset indices) and the
   current parameters into shared memory and broadcasts a ``step`` message;
2. each worker takes the shard of examples it **owns by dataset index** —
   whole source shards (``(index // shard_size) % N``) when the loader
   streams a sharded source with at least one shard per worker, else the
   legacy ``index % N`` striping — runs adversarial-example generation plus
   forward/backward on its own trainer replica — with its own workspace
   pool — and writes its shard-weighted gradients into its private
   shared-memory slot;
3. the parent all-reduces the per-worker slots **in worker order** (so the
   summation order, and therefore the result, is deterministic for a given
   worker count), installs the reduced gradients on the wrapped model and
   runs the optimizer step.

Sharding by dataset index rather than batch position keeps stateful
defenses correct: the epochwise trainer's per-example carried state lives
in the worker that owns the example, and ownership never migrates between
epochs (both ownership rules are pure functions of the dataset index and
the worker count).  Whole-shard ownership additionally aligns each
worker's delta-store blocks with the loader's source shards, so a
streaming run touches each worker's carried blocks in long contiguous
runs instead of striding across all of them every batch.  With one worker
the computation is **bit-for-bit** equal
to the serial trainer (the whole batch lands on worker 0 and gradients are
copied, not re-associated); with more workers results differ from serial
only by floating-point summation order, which the determinism tests bound.

Models whose forward pass mutates shared state outside parameters (batch
norm running stats) or draws fresh randomness per step (dropout) fall
outside the equivalence guarantees: replicas update their own copies.

A worker that crashes mid-epoch is re-forked from the live parent and the
lost shard is re-dispatched, so the epoch always completes; the restart is
visible in ``parallel.worker_restarts``.
"""

from __future__ import annotations

import weakref
from typing import List, Optional

import numpy as np

from .. import telemetry as tel
from ..data.loader import Batch, DataLoader
from ..defenses.trainer import Trainer
from ..runtime import accum_dtype
from .pool import WorkerCrash, WorkerPool, resolve_workers
from .shm import SharedArray

__all__ = ["DataParallelTrainer"]

# How many times one batch may be re-dispatched after worker crashes
# before the epoch is abandoned (a deterministic crasher would loop
# forever otherwise).
_MAX_RETRIES_PER_BATCH = 2


class _ParamLayout:
    """Flat offsets of a model's parameters inside one shared buffer."""

    __slots__ = ("params", "offsets", "sizes", "shapes", "total", "dtype")

    def __init__(self, params) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("model has no parameters")
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ValueError(
                "data-parallel training requires a single parameter dtype, "
                f"got {sorted(d.name for d in dtypes)}"
            )
        self.dtype = self.params[0].data.dtype
        self.offsets: List[int] = []
        self.sizes: List[int] = []
        self.shapes: List[tuple] = []
        offset = 0
        for param in self.params:
            self.offsets.append(offset)
            self.sizes.append(param.data.size)
            self.shapes.append(param.data.shape)
            offset += param.data.size
        self.total = offset

    def segments(self, flat: np.ndarray):
        """Yield ``(param_index, shaped_view)`` over one flat buffer."""
        for index, (offset, size, shape) in enumerate(
            zip(self.offsets, self.sizes, self.shapes)
        ):
            yield index, flat[offset:offset + size].reshape(shape)


class _WorkerContext:
    """Everything a worker needs, built in the parent and inherited via fork.

    After the fork, ``self.trainer`` refers to the *child's* copy of the
    wrapped trainer — a true replica whose model, attack loop and any
    carried state (e.g. the epochwise adversarial cache) belong to that
    worker alone.  Only the :class:`SharedArray` views are shared.
    """

    def __init__(self, trainer, layout, num_workers,
                 x_sh, y_sh, idx_sh, param_sh, grad_sh) -> None:
        self.trainer = trainer
        self.layout = layout
        self.num_workers = num_workers
        self.x_sh = x_sh
        self.y_sh = y_sh
        self.idx_sh = idx_sh
        self.param_sh = param_sh
        self.grad_sh = grad_sh

    # -- message dispatch (runs in the child) --------------------------
    def handle(self, worker_id: int, message):
        kind = message[0]
        if kind == "step":
            _, n, epoch, tel_on, owner_block = message
            tel.set_enabled(tel_on)
            return self._step(worker_id, n, epoch, owner_block)
        if kind == "epoch_start":
            _, epoch, tel_on = message
            tel.set_enabled(tel_on)
            self.trainer.epoch = epoch
            self.trainer.model.train()
            self.trainer.on_epoch_start(epoch)
            return None
        if kind == "epoch_end":
            _, epoch = message
            self.trainer.on_epoch_end(epoch)
            self.trainer.epoch = epoch + 1
            return None
        if kind == "sync":
            # Mid-epoch resynchronisation of a restarted worker: set the
            # clock without re-running epoch hooks (no spurious cache
            # resets half-way through an epoch).
            _, epoch, tel_on = message
            tel.set_enabled(tel_on)
            self.trainer.epoch = epoch
            self.trainer.model.train()
            return None
        if kind == "ping":
            return worker_id
        raise ValueError(f"unknown worker message {kind!r}")

    def _load_params(self) -> None:
        flat = self.param_sh.array
        for index, segment in self.layout.segments(flat):
            np.copyto(self.layout.params[index].data, segment)

    def _step(self, worker_id: int, n: int, epoch: int, owner_block: int):
        trainer = self.trainer
        trainer.epoch = epoch
        self._load_params()
        indices = self.idx_sh.array[:n]
        # owner_block > 0: whole-shard ownership (aligned with the
        # loader's source shards); 0: legacy per-index striping.  Either
        # way ownership is a pure function of the dataset index, so the
        # per-example carried state of stateful defenses never migrates.
        owners = (
            (indices // owner_block) % self.num_workers
            if owner_block
            else indices % self.num_workers
        )
        rows = np.flatnonzero(owners == worker_id)
        slot = self.grad_sh.array[worker_id]
        n_shard = int(rows.size)
        if n_shard == 0:
            slot.fill(0)
            return (0, 0.0, [True] * len(self.layout.params), {})
        batch = Batch(
            x=self.x_sh.array[:n][rows],
            y=self.y_sh.array[:n][rows],
            indices=indices[rows].copy(),
        )
        # As a root span in the child the shard emits (to this worker's
        # spool file when the capture armed one), joining the parent's
        # trace via the context the pool envelope delivered; its children
        # still fold into the reply for the parent-side ``parallel`` fold.
        with tel.span(
            "shard", worker=worker_id, epoch=epoch, examples=n_shard
        ) as shard_span:
            trainer.optimizer.zero_grad()
            with tel.span("forward"):
                loss = trainer.compute_batch_loss(batch)
            with tel.span("backward"):
                loss.backward()
            loss_value = loss.item()
        # The serial loss is the batch mean: sum_w (n_w/n) * shard_mean_w.
        # Scaling the finished gradients (not the loss) keeps the shard's
        # backward pass identical to serial; with one worker the scale is
        # exactly 1 and the gradients are copied bitwise.
        scale = n_shard / n
        none_mask = []
        for index, segment in self.layout.segments(slot):
            grad = self.layout.params[index].grad
            none_mask.append(grad is None)
            if grad is None:
                segment[...] = 0
            elif scale == 1.0:
                np.copyto(segment, grad, casting="unsafe")
            else:
                np.multiply(grad, scale, out=segment, casting="unsafe")
        phases = dict(shard_span.children) if tel.enabled() else {}
        return (n_shard, float(loss_value), none_mask, phases)


def _release(pool: Optional[WorkerPool], arrays) -> None:
    """Shut the pool down and free the shared segments (finalizer body)."""
    if pool is not None:
        pool.shutdown()
    for shared in arrays:
        shared.close()


class DataParallelTrainer(Trainer):
    """Data-parallel wrapper over an existing trainer.

    Parameters
    ----------
    trainer:
        The wrapped trainer.  Its model/optimizer/scheduler stay authoritative
        in the parent: optimizer state and learning-rate schedule live here,
        workers only produce gradients (and carry per-example defense state
        for their shard).
    num_workers:
        Worker processes; ``None``/``0`` resolves ``REPRO_WORKERS`` (default
        1).  ``workers=1`` is the bit-for-bit serial-equivalent mode.

    Workers fork lazily on the first batch (so replicas inherit the exact
    pre-training state) and persist across epochs and ``fit`` calls until
    :meth:`close`.
    """

    def __init__(self, trainer: Trainer, num_workers: Optional[int] = None):
        num_workers = resolve_workers(num_workers)
        super().__init__(
            trainer.model,
            trainer.optimizer,
            loss_fn=trainer.loss_fn,
            scheduler=trainer.scheduler,
        )
        self.inner = trainer
        self.num_workers = num_workers
        self.name = trainer.name
        self.epoch = trainer.epoch
        self._layout: Optional[_ParamLayout] = None
        self._pool: Optional[WorkerPool] = None
        self._arrays: list = []
        self._capacity = 0
        self._grad_acc: Optional[np.ndarray] = None
        self._grad_bufs: List[np.ndarray] = []
        self._finalizer = None

    # ------------------------------------------------------------------
    @property
    def name_with_steps(self) -> str:
        """Paper-style row name of the wrapped trainer (run records)."""
        return getattr(self.inner, "name_with_steps", self.inner.name)

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _compatible(self, batch: Batch, n: int) -> bool:
        x_sh = self._arrays[0]
        return (
            n <= self._capacity
            and x_sh.shape[1:] == batch.x.shape[1:]
            and x_sh.dtype == batch.x.dtype
            and self._arrays[1].dtype == batch.y.dtype
        )

    def _ensure_pool(self, batch: Batch, capacity_hint: int) -> None:
        if self._pool is not None:
            if self._compatible(batch, len(batch.x)):
                return
            self.close()
        capacity = max(capacity_hint, len(batch.x))
        layout = _ParamLayout(self.model.parameters())
        grad_dtype = np.dtype(accum_dtype())
        x_sh = SharedArray((capacity, *batch.x.shape[1:]), batch.x.dtype)
        y_sh = SharedArray((capacity,), batch.y.dtype)
        idx_sh = SharedArray((capacity,), np.intp)
        param_sh = SharedArray((layout.total,), layout.dtype)
        grad_sh = SharedArray((self.num_workers, layout.total), grad_dtype)
        self._arrays = [x_sh, y_sh, idx_sh, param_sh, grad_sh]
        self._layout = layout
        self._capacity = capacity
        self._grad_acc = np.empty(layout.total, dtype=grad_dtype)
        self._grad_bufs = [
            np.empty(shape, dtype=grad_dtype) for shape in layout.shapes
        ]
        self._write_params()
        context = _WorkerContext(
            self.inner, layout, self.num_workers,
            x_sh, y_sh, idx_sh, param_sh, grad_sh,
        )
        self._pool = WorkerPool(
            self.num_workers, context.handle,
            name=f"repro-dp-{self.name}",
        )
        self._pool.start()
        self._finalizer = weakref.finalize(
            self, _release, self._pool, tuple(self._arrays)
        )
        # Workers forked mid-run (wrapping after some serial epochs) need
        # their clocks set before the first step.
        self._pool.broadcast(("sync", self.epoch, tel.enabled()))
        self._pool.gather()

    def close(self) -> None:
        """Stop the workers and release the shared-memory segments."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._pool = None
        self._arrays = []
        self._layout = None
        self._capacity = 0

    # ------------------------------------------------------------------
    # the parallel step
    # ------------------------------------------------------------------
    def _write_params(self) -> None:
        flat = self._arrays[3].array
        for index, segment in self._layout.segments(flat):
            np.copyto(segment, self._layout.params[index].data)

    def _write_batch(self, batch: Batch, n: int) -> None:
        x_sh, y_sh, idx_sh = self._arrays[0], self._arrays[1], self._arrays[2]
        np.copyto(x_sh.array[:n], batch.x, casting="same_kind")
        np.copyto(y_sh.array[:n], batch.y, casting="same_kind")
        np.copyto(
            idx_sh.array[:n],
            np.asarray(batch.indices, dtype=np.intp),
            casting="same_kind",
        )

    def _dispatch(self, worker_id: int, message) -> None:
        """Send one message, restarting the worker if the pipe is dead."""
        try:
            self._pool.send(worker_id, message)
        except WorkerCrash:
            self._pool.restart(worker_id)
            self._pool.call(worker_id, ("sync", self.epoch, tel.enabled()))
            self._pool.send(worker_id, message)

    def _broadcast_ctl(self, message) -> None:
        """Broadcast a control message; restart-and-retry dead workers."""
        for worker_id in range(self.num_workers):
            self._dispatch(worker_id, message)
        for worker_id in range(self.num_workers):
            try:
                self._pool.recv(worker_id)
            except WorkerCrash:
                self._pool.restart(worker_id)
                self._pool.call(worker_id, message)

    def _collect(self, message) -> list:
        """Gather one step reply per worker, restarting crashed workers.

        Replies are collected (and later reduced) in worker order, so the
        gradient summation order is a function of the worker count alone.
        """
        replies = [None] * self.num_workers
        for worker_id in range(self.num_workers):
            for attempt in range(_MAX_RETRIES_PER_BATCH + 1):
                try:
                    replies[worker_id] = self._pool.recv(worker_id)
                    break
                except WorkerCrash:
                    if attempt == _MAX_RETRIES_PER_BATCH:
                        raise
                    self._pool.restart(worker_id)
                    self._pool.call(
                        worker_id, ("sync", self.epoch, tel.enabled())
                    )
                    self._pool.send(worker_id, message)
        return replies

    def _reduce(self, none_masks) -> None:
        """Sum per-worker gradient slots (worker order) into ``param.grad``."""
        grad_sh = self._arrays[4]
        acc = self._grad_acc
        np.copyto(acc, grad_sh.array[0])
        for worker_id in range(1, self.num_workers):
            acc += grad_sh.array[worker_id]
        for index, segment in self._layout.segments(acc):
            # A parameter no worker produced a gradient for stays None,
            # exactly like the serial engine (optimizers skip it rather
            # than stepping a zero gradient through their state).
            if all(mask[index] for mask in none_masks):
                self._layout.params[index].grad = None
                continue
            np.copyto(self._grad_bufs[index], segment)
            self._layout.params[index].grad = self._grad_bufs[index]

    @staticmethod
    def _owner_block_for(loader, num_workers: int) -> int:
        """Shard-ownership block size for a loader, 0 for legacy striping.

        Whole-shard ownership requires a genuinely sharded loader with at
        least one shard per worker (fewer would idle workers); anything
        else — plain iterables, single-shard in-memory loaders — keeps
        the historical ``index % N`` rule.
        """
        shard_size = int(getattr(loader, "shard_size", 0) or 0)
        num_shards = int(getattr(loader, "num_shards", 1) or 1)
        if shard_size > 0 and num_shards > 1 and num_shards >= num_workers:
            return shard_size
        return 0

    def _parallel_step(self, batch: Batch, owner_block: int) -> float:
        n = len(batch.x)
        workers = self.num_workers
        with tel.span("parallel") as parallel_span:
            self._write_batch(batch, n)
            self._write_params()
            message = ("step", n, self.epoch, tel.enabled(), owner_block)
            for worker_id in range(workers):
                self._dispatch(worker_id, message)
            replies = self._collect(message)
            with tel.span("reduce"):
                self._reduce([reply[2] for reply in replies])
            if tel.enabled():
                grad_sh = self._arrays[4]
                tel.counter("parallel.steps")
                tel.counter("parallel.reduce_bytes", grad_sh.array.nbytes)
                for worker_id, reply in enumerate(replies):
                    tel.observe("parallel.shard_examples", reply[0])
                    for path, (count, total) in reply[3].items():
                        parallel_span._fold(
                            f"w{worker_id}.{path.replace('/', '.')}",
                            count, total,
                        )
        if workers == 1:
            return replies[0][1]
        return float(
            sum(reply[0] / n * reply[1] for reply in replies if reply[0])
        )

    # ------------------------------------------------------------------
    # the loop (mirrors Trainer.train_epoch with sharded batch steps)
    # ------------------------------------------------------------------
    def train_epoch(self, loader: DataLoader) -> float:
        """One data-parallel pass over the loader; returns the mean loss."""
        self.model.train()
        capacity_hint = int(getattr(loader, "batch_size", 0))
        owner_block = self._owner_block_for(loader, self.num_workers)
        losses = []
        epoch_started = False
        iterator = iter(loader)
        while True:
            with tel.span("data"):
                batch = next(iterator, None)
            if batch is None:
                break
            self._ensure_pool(batch, capacity_hint)
            if not epoch_started:
                # Replicas own the epoch hooks: the epochwise cache reset
                # must drop *their* caches, not the parent's unused copy.
                self._broadcast_ctl(
                    ("epoch_start", self.epoch, tel.enabled())
                )
                epoch_started = True
            self.optimizer.zero_grad()
            losses.append(self._parallel_step(batch, owner_block))
            with tel.span("optimizer"):
                self.optimizer.step()
        if epoch_started:
            self._broadcast_ctl(("epoch_end", self.epoch))
        self.epoch += 1
        self.inner.epoch = self.epoch
        if self.scheduler is not None:
            self.scheduler.step()
        return float(np.mean(losses)) if losses else 0.0
