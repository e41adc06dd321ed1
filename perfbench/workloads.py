"""Worker process for one benchmark workload (spawned by ``run.py``).

Modes:

* ``setup``  -- do the program set-up, print ``{"ready": true}``, exit;
* ``run``    -- set up, print the ready line, run the timed region and
  print ``{"result": {...}}`` (``--trace 1`` runs the schedule untraced,
  then again with the layer wrappers of :mod:`tracer` installed);
* ``client`` -- ``serve_http`` only: generate requests from the seed and
  drive a running ``repro serve`` at ``--address``.

Protocol lines go to the real standard output; anything the program
prints is redirected to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import threading
import time

from tracer import Tracer, WaitTimedLoader, install_layer_wrappers

MB = float(1 << 20)
METHODS = ("fgsm_adv", "atda", "proposed", "bim10_adv", "bim30_adv")
BATCH_SIZE = 128

# Data sizes (see README.md, "Sizes").  Training runs whole epochs until
# --seconds are used; serving sends a fixed number of requests.
TABLE1_TRAIN_PER_CLASS = 50   # 500 examples: 4 batches
TABLE1_TEST_PER_CLASS = 20    # 200 examples: one eval batch per cell
CNN_TRAIN_PER_CLASS = 32      # 320 examples: 3 batches
CNN_RESET_INTERVAL = 3
STREAM_EXAMPLES = 1024
STREAM_SHARD = 256
SERVE_CLIENTS = 2
SERVE_BATCH = 8
SERVE_REPEATS = 2             # of SERVE_BATCH examples repeat earlier ones
SERVE_REPEAT_WINDOW = 64      # requests a repeat is drawn from
SERVE_REQUESTS_PER_S = 40     # about the closed loop's rate on 2 cores


def median(values):
    return statistics.median(values) if values else 0.0


def emit(out, payload) -> None:
    out.write(json.dumps(payload) + "\n")
    out.flush()


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------
class TrainingWorkload:
    """Set-up and one timed schedule of adversarial-training epochs.

    A round trains each method of ``cycle`` for one epoch through
    ``Trainer.fit`` (the program's own epoch loop).  The first pass runs
    whole rounds until ``train_s`` of the ``--seconds`` have passed (at
    least ``min_rounds``) and records the epochs it ran in ``schedule``;
    a later (traced) pass replays that schedule.
    """

    name = ""
    cycle = ("proposed",)
    min_rounds = 1
    train_share = 1.0   # of --seconds spent training; the rest evaluates

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trainers = {}
        self.loaders = {}
        self.n_train = 0
        self.train_s = self.train_share * seconds
        self.schedule = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self, batch) -> None:
        """One untimed forward/backward pass per model (no state change)."""
        from repro.autograd import Tensor
        from repro.nn import cross_entropy

        for trainer in self.trainers.values():
            trainer.optimizer.zero_grad()
            cross_entropy(trainer.model(Tensor(batch.x)), batch.y).backward()
            trainer.optimizer.zero_grad()

    def after_training(self, tracer) -> dict:
        """Extra timed work after the epochs (evaluation); returns details."""
        return {}

    def epochs(self):
        """The method of each epoch of one pass (see the class doc)."""
        if self.schedule:
            yield from self.schedule
            return
        end = time.perf_counter() + self.train_s
        rounds = 0
        while rounds < self.min_rounds or time.perf_counter() < end:
            for method in self.cycle:
                self.schedule.append(method)
                yield method
            rounds += 1

    # -- one pass of the schedule ---------------------------------------
    def run_schedule(self, tracer=None) -> dict:
        epoch_wall = {m: [] for m in self.trainers}
        losses = {m: [] for m in self.trainers}
        batches = {m: 0 for m in self.trainers}
        failed = 0
        loaders = {
            m: WaitTimedLoader(loader, tracer) if tracer else loader
            for m, loader in self.loaders.items()
        }
        start = (time.perf_counter(), time.process_time())
        for method in self.epochs():
            if tracer is not None:
                tracer.label = method
            began = time.perf_counter()
            history = self.trainers[method].fit(loaders[method], epochs=1)
            epoch_wall[method].append(time.perf_counter() - began)
            loss = history.losses[-1]
            losses[method].append(loss)
            batches[method] += len(self.loaders[method])
            if not math.isfinite(loss):
                # The epoch mean is finite iff every batch loss was.
                failed += len(self.loaders[method])
        train_wall = time.perf_counter() - start[0]
        if tracer is not None:
            self.train_snapshot = tracer.snapshot()
        after = self.after_training(tracer)
        return {
            "epoch_wall": epoch_wall,
            "losses": losses,
            "batches": batches,
            "train_wall": train_wall,
            "wall": time.perf_counter() - start[0],
            "cpu": time.process_time() - start[1],   # prefetch thread too
            "examples": sum(len(v) for v in epoch_wall.values()) * self.n_train
            + after.get("eval_examples", 0),
            "attempted": sum(batches.values()) + after.get("attempted", 0),
            "failed": failed + after.get("failed", 0),
            **after,
        }

    def checks(self, run: dict) -> dict:
        return {}


class Table1Mlp(TrainingWorkload):
    name = "table1_mlp"
    cycle = METHODS
    min_rounds = 2
    train_share = 0.75

    def build(self) -> None:
        from repro.data import DataLoader, load_dataset
        from repro.defenses import build_trainer
        from repro.experiments.config import ExperimentConfig
        from repro.models import build_model

        config = ExperimentConfig(
            seed=self.seed,
            train_per_class=TABLE1_TRAIN_PER_CLASS,
            test_per_class=TABLE1_TEST_PER_CLASS,
            batch_size=BATCH_SIZE,
        )
        self.config = config
        train, test = load_dataset(
            config.dataset, config.train_per_class, config.test_per_class,
            seed=self.seed,
        )
        self.test_x, self.test_y = test.arrays()
        self.n_train = len(train)
        for method in METHODS:
            model = build_model(config.model, seed=self.seed)
            self.trainers[method] = build_trainer(
                method, model, epsilon=config.resolved_epsilon,
                lr=config.lr, warmup_epochs=0,
            )
            self.loaders[method] = DataLoader(
                train, batch_size=config.batch_size, rng=self.seed
            )
        self.warm_up(next(iter(DataLoader(train, BATCH_SIZE, shuffle=False))))

    def after_training(self, tracer) -> dict:
        """The Table I grid: every trained model under every attack column."""
        from repro.eval import RobustnessEvaluator

        suite = RobustnessEvaluator.paper_suite(
            self.config.resolved_epsilon,
            batch_size=self.config.eval_batch_size,
        )
        if tracer is not None:
            suite.attack_builders = {
                column: _labelled(tracer, f"eval:{column}", builder)
                for column, builder in suite.attack_builders.items()
            }
        grid, wall = {}, []
        for method, trainer in self.trainers.items():
            began = time.perf_counter()
            grid[method] = suite.evaluate(
                trainer.model, self.test_x, self.test_y)
            wall.append(time.perf_counter() - began)
        cells = [acc for row in grid.values() for acc in row.values()]
        bad = sum(1 for acc in cells if not 0.0 <= acc <= 1.0)
        return {
            "grid": grid,
            "eval_wall": wall,
            "eval_examples": len(cells) * len(self.test_y),
            "eval_batches": len(cells) * math.ceil(
                len(self.test_y) / self.config.eval_batch_size
            ),
            "attempted": len(cells),
            "failed": bad,
        }


def _labelled(tracer, label, builder):
    def build(model):
        tracer.label = label
        return builder(model)

    return build


class EpochwiseCnn(TrainingWorkload):
    name = "epochwise_cnn"
    min_rounds = CNN_RESET_INTERVAL + 1

    def build(self) -> None:
        from repro.data import DataLoader, load_dataset
        from repro.data.synthetic import dataset_epsilon
        from repro.defenses import build_trainer
        from repro.models import build_model

        train, _test = load_dataset(
            "digits", CNN_TRAIN_PER_CLASS, 1, seed=self.seed
        )
        self.n_train = len(train)
        trainer = build_trainer(
            "proposed", build_model("mnist_cnn", seed=self.seed),
            epsilon=dataset_epsilon("digits"), warmup_epochs=0,
            reset_interval=CNN_RESET_INTERVAL,
        )
        self.resets = _count_calls(trainer, "reset_cache")
        self.trainers["proposed"] = trainer
        self.loaders["proposed"] = DataLoader(
            train, batch_size=BATCH_SIZE, rng=self.seed
        )
        self.warm_up(next(iter(DataLoader(train, BATCH_SIZE, shuffle=False))))

    def checks(self, run: dict) -> dict:
        # Resets fire at adversarial epochs k * interval, k >= 1.
        epochs = len(self.schedule)
        expected = (epochs - 1) // CNN_RESET_INTERVAL
        return {"cache_resets": (len(self.resets), expected)}


class StreamMlp(TrainingWorkload):
    name = "stream_mlp"
    min_rounds = 3

    def build(self) -> None:
        import numpy as np

        from repro.data import DataLoader, SyntheticSource
        from repro.data.loader import Batch
        from repro.data.synthetic import dataset_epsilon
        from repro.defenses import build_trainer
        from repro.models import build_model
        from repro.runtime import compute_dtype

        source = SyntheticSource(
            "digits", STREAM_EXAMPLES, shard_size=STREAM_SHARD,
            seed=self.seed,
        )
        row = 28 * 28 * np.dtype(compute_dtype()).itemsize
        row += np.dtype(np.int64).itemsize
        self.budget = STREAM_EXAMPLES * row // 4
        self.n_train = STREAM_EXAMPLES
        trainer = build_trainer(
            "proposed", build_model("mnist_mlp", seed=self.seed),
            epsilon=dataset_epsilon("digits"), warmup_epochs=0,
            delta_budget_bytes=self.budget, delta_block_size=STREAM_SHARD,
        )
        self.trainers["proposed"] = trainer
        self.loaders["proposed"] = DataLoader(
            source, batch_size=BATCH_SIZE, rng=self.seed,
            budget_bytes=self.budget,
        )
        # Warm-up batch rendered outside the loader, so the loader's
        # cache and shuffle stream start cold and untouched.
        x, y = source.shard(0)
        self.warm_up(Batch(x=x[:BATCH_SIZE], y=y[:BATCH_SIZE],
                           indices=np.arange(BATCH_SIZE)))

    def checks(self, run: dict) -> dict:
        store = self.trainers["proposed"].delta_store
        cache = self.loaders["proposed"].cache.telemetry_gauges()
        return {
            "delta_peak_within_budget": (
                store.peak_bytes <= self.budget, True),
            "shard_cache_peak_within_budget": (
                cache["data.shard_cache.peak_bytes"] <= self.budget, True),
            "delta_store_evicts": (store.evictions > 0, True),
        }


def _count_calls(obj, attr) -> list:
    """Count calls of ``obj.attr`` (a correctness check, not tracing)."""
    calls = []
    original = getattr(obj, attr)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    setattr(obj, attr, counted)
    return calls


TRAINING = {cls.name: cls for cls in (Table1Mlp, EpochwiseCnn, StreamMlp)}

# DESIGN.md section 2: backward passes per batch for each Table I method
# (ATDA is "about 2 plus loss overhead" and has no exact figure).
DESIGN_PASSES = {"fgsm_adv": 2, "proposed": 2, "bim10_adv": 11,
                 "bim30_adv": 31}


def training_result(workload, run: dict) -> dict:
    """End-to-end figures and output checks of one untraced schedule."""
    checks = workload.checks(run)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "epoch_s": {m: median(v) for m, v in run["epoch_wall"].items()},
        "epochs": {m: len(v) for m, v in run["epoch_wall"].items()},
        "final_loss": {m: v[-1] for m, v in run["losses"].items()},
        "checks": {k: {"value": v[0], "expected": v[1]}
                   for k, v in checks.items()},
    }
    if "grid" in run:
        details["accuracy"] = run["grid"]
        details["eval_examples_per_s"] = (
            run["eval_examples"] / sum(run["eval_wall"]))
    return {
        "metrics": {
            "examples_per_s": run["examples"] / run["wall"],
            "cpu_ms_per_example": 1000.0 * run["cpu"] / run["examples"],
            "peak_rss_mb": rss_mb,
        },
        "attempted": run["attempted"],
        "failed": run["failed"],
        "correct": all(v[0] == v[1] for v in checks.values()),
        "details": details,
    }


def _delta_evictions(workload) -> int:
    trainer = workload.trainers.get("proposed")
    return trainer.delta_store.evictions if trainer is not None else 0


def traced_layers(workload, traced: dict, plain: dict, tracer: Tracer,
                  phases: dict, before: dict) -> dict:
    """Per-layer metrics of the traced schedule (see README.md)."""
    from repro.runtime import get_workspace

    calls, total, own = tracer.calls, tracer.total_s, tracer.self_s
    train_batches = sum(traced["batches"].values())
    timed_batches = train_batches + traced.get("eval_batches", 0)
    epochs = sum(len(v) for v in traced["epoch_wall"].values())

    def per(value, count, scale=1000.0):
        return scale * value / count if count else 0.0

    layers = {
        "data.wait_ms": per(total["data.wait"], train_batches),
        "data.render_s": per(total["data.render"], epochs, 1.0),
        "autograd.backward_ms": per(total["autograd.backward"],
                                    timed_batches),
        "attacks.step_ms": per(total["attacks.step"], calls["attacks.step"]),
        "optim.step_ms": per(total["optim.step"], calls["optim.step"]),
        "runtime.workspace_peak_mb": get_workspace().telemetry_gauges()[
            "workspace.pool.high_water_bytes"] / MB,
        "trace.overhead_ratio": traced["wall"] / plain["wall"],
        "trace.unattributed_share": 1.0 - tracer.main_self_s / traced["wall"],
    }
    for layer in ("conv", "pool", "dense", "act", "loss"):
        layers[f"nn.{layer}_ms"] = per(own[f"nn.{layer}"], timed_batches)
    caches = [loader.cache for loader in workload.loaders.values()]
    hits = sum(c.hits for c in caches) - before["hits"]
    misses = sum(c.misses for c in caches) - before["misses"]
    layers["data.shard_hit_ratio"] = hits / (hits + misses)
    for method, batches in traced["batches"].items():
        counts = tracer.label_calls[method]
        layers[f"autograd.forward_calls.{method}"] = (
            counts["nn.embed"] / batches)
        layers[f"autograd.backward_calls.{method}"] = (
            counts["autograd.backward"] / batches)
        layers[f"attacks.share.{method}"] = (
            tracer.label_outer_s[method]["attack"]
            / sum(traced["epoch_wall"][method]))
    if "proposed" in workload.trainers:
        store = workload.trainers["proposed"].delta_store
        layers["defenses.delta_ms"] = per(
            total["defenses.delta"], traced["batches"]["proposed"])
        layers["defenses.delta_evictions"] = float(
            store.evictions - before["evictions"])
        layers["defenses.delta_peak_mb"] = store.peak_bytes / MB
    for column in ("original", "fgsm", "bim10", "bim30"):
        label = tracer.label_outer_s.get(f"eval:{column}")
        if label:
            layers[f"eval.cell_s.{column}"] = label["eval"] / len(METHODS)
    train_wall = traced["train_wall"]
    for phase, outside in phases["outside"].items():
        layers[f"reconcile.{phase}_share"] = (
            (outside - phases["telemetry"][phase]) / train_wall)
    return layers


def phase_split(tracer_snapshot: dict, records) -> dict:
    """The program's telemetry phases beside the wrapper-measured split."""
    telemetry = dict.fromkeys(
        ("data", "attack", "forward", "backward", "optimizer"), 0.0)
    keys = {"data": "data", "forward/attack": "attack",
            "forward": "forward", "backward": "backward",
            "optimizer": "optimizer"}
    for record in records:
        if record.get("type") == "span" and record.get("name") == "epoch":
            for child, stats in record["children"].items():
                if child in keys:
                    telemetry[keys[child]] += stats["total"]
    outer = tracer_snapshot["outer_s"]
    free = tracer_snapshot["outer_free_s"]
    outside = {
        "data": outer.get("data", 0.0),
        "attack": outer.get("attack", 0.0),
        "forward": free.get("nn", 0.0) + outer.get("attack", 0.0),
        "backward": free.get("autograd", 0.0),
        "optimizer": outer.get("optim", 0.0),
    }
    return {"telemetry": telemetry, "outside": outside}


def run_training(name: str, seed: int, seconds: float, trace: bool, out):
    workload = TRAINING[name](seed, seconds)
    emit(out, {"ready": True})
    plain = workload.run_schedule()
    result = training_result(workload, plain)
    if trace:
        from repro import telemetry as tel

        caches = [loader.cache for loader in workload.loaders.values()]
        before = {
            "hits": sum(c.hits for c in caches),
            "misses": sum(c.misses for c in caches),
            "evictions": _delta_evictions(workload),
        }
        tracer = Tracer()
        install_layer_wrappers(tracer)
        sink = tel.InMemorySink()
        try:
            with tel.capture(sink=sink):
                traced = workload.run_schedule(tracer)
        finally:
            tracer.close()
        phases = phase_split(workload.train_snapshot, sink.records)
        result["layers"] = traced_layers(
            workload, traced, plain, tracer, phases, before)
        result["details"]["phases"] = phases
        result["details"]["self_share"] = {
            key: s / traced["wall"] for key, s in sorted(tracer.self_s.items())
        }
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        design = {
            m: (result["layers"][f"autograd.backward_calls.{m}"], passes)
            for m, passes in DESIGN_PASSES.items()
            if f"autograd.backward_calls.{m}" in result["layers"]
        }
        result["details"]["design_passes"] = design
        result["correct"] = result["correct"] and all(
            got == want for got, want in design.values())
    emit(out, {"result": result})


# ----------------------------------------------------------------------
# serve_http client
# ----------------------------------------------------------------------
def serve_requests(seed: int, count: int):
    """Per-client request bodies and the examples in each, from ``seed``.

    Every request carries SERVE_BATCH examples; after each client's first
    request, SERVE_REPEATS of them repeat an example that client sent in
    one of its previous SERVE_REPEAT_WINDOW requests (so the repeat is
    answered after it was first classified, and is still cached).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    clients = []
    for client in range(SERVE_CLIENTS):
        sent = []
        for index in range(count // SERVE_CLIENTS + (client < count % SERVE_CLIENTS)):
            fresh = SERVE_BATCH if index == 0 else SERVE_BATCH - SERVE_REPEATS
            batch = list(rng.integers(0, 101, size=(fresh, 1, 28, 28)) / 100.0)
            if index:
                window = sent[-SERVE_REPEAT_WINDOW:]
                for _ in range(SERVE_REPEATS):
                    earlier = window[rng.integers(len(window))]
                    batch.insert(int(rng.integers(len(batch) + 1)),
                                 earlier[int(rng.integers(SERVE_BATCH))])
            sent.append(batch)
        clients.append(sent)
    return clients


def run_client(seed: int, seconds: float, address: str, out) -> None:
    import http.client

    import numpy as np

    from repro.models import build_model

    count = max(1000, int(SERVE_REQUESTS_PER_S * seconds))
    clients = serve_requests(seed, count)
    bodies = [
        [json.dumps({"inputs": np.stack(batch).tolist()}).encode()
         for batch in requests]
        for requests in clients
    ]
    check = build_model("mnist_mlp", seed=0)
    host, port = address.rsplit(":", 1)
    latencies = [[] for _ in clients]
    replies = [[] for _ in clients]
    errors = []

    def drive(index):
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            for body in bodies[index]:
                began = time.perf_counter()
                conn.request("POST", "/classify", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = response.read()
                latencies[index].append(time.perf_counter() - began)
                replies[index].append((response.status, payload))
        except OSError as exc:
            errors.append(repr(exc))
        finally:
            conn.close()

    threads = [threading.Thread(target=drive, args=(i,))
               for i in range(len(clients))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    conn.request("GET", "/metrics")
    server_metrics = json.loads(conn.getresponse().read())
    conn.close()

    attempted = count
    failed = attempted - sum(len(r) for r in replies)
    mismatched = 0
    examples = 0
    for requests, answered in zip(clients, replies):
        for batch, (status, payload) in zip(requests, answered):
            examples += len(batch)
            if status != 200:
                failed += 1
                continue
            labels = [p["label"] for p in json.loads(payload)["predictions"]]
            if not _labels_agree(check, batch, labels):
                failed += 1
                mismatched += 1
    flat = sorted(s * 1000.0 for lat in latencies for s in lat)
    hist = server_metrics["metrics"]["histograms"]
    cache = server_metrics["cache"]
    batcher = server_metrics["batcher"]
    result = {
        "metrics": {
            "examples_per_s": examples / wall,
        },
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not errors,
        "details": {
            "requests": len(flat),
            "request_ms_p50": _quantile(flat, 0.50),
            "request_ms_p99": _quantile(flat, 0.99),
            "request_ms_mean": statistics.fmean(flat) if flat else 0.0,
            "wall_s": wall,
            "examples": examples,
            "label_mismatches": mismatched,
            "errors": errors[:3],
        },
        "server": {
            "batch_size_mean": hist["serving.classify.batch_size"]["mean"],
            "batch_ms_p50": hist["serving.classify.batch_latency_ms"]["p50"],
            "cache_hit_ratio": cache["hits"] / (cache["hits"] + cache["misses"]),
            "shed": float(batcher["shed"]),
            "timeouts": float(batcher["timeouts"]),
            "batches": float(batcher["batches"]),
        },
    }
    emit(out, {"result": result})


def _labels_agree(model, batch, labels) -> bool:
    """Served labels equal the check model's argmax on the same inputs.

    A served label also passes when its logit ties the maximum to within
    1e-9: a micro-batch of another size may sum in another order.
    """
    import numpy as np

    from repro.autograd import Tensor, no_grad

    with no_grad():
        logits = model(Tensor(np.stack(batch))).data
    if len(labels) != len(logits):
        return False
    best = logits.max(axis=1)
    served = logits[np.arange(len(labels)), labels]
    return bool(np.all(served >= best - 1e-9 * np.maximum(1.0, np.abs(best))))


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "client"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--address", default="")
    args = parser.parse_args(argv)
    out = sys.stdout
    sys.stdout = sys.stderr
    if args.mode == "client":
        run_client(args.seed, args.seconds, args.address, out)
    elif args.mode == "setup":
        TRAINING[args.workload](args.seed, args.seconds)
        emit(out, {"ready": True})
    else:
        run_training(args.workload, args.seed, args.seconds,
                     bool(args.trace), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
