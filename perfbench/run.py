"""Benchmark entry point (run from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``table1_mlp``, ``epochwise_cnn``, ``stream_mlp``,
``serve_http`` (see README.md).  Every program process is fresh and runs
with one BLAS/OpenMP thread and no ``REPRO_*`` variables, i.e. in the
program's default modes.  ``setup_s`` is the median over fresh set-ups
(SETUP_BEFORE before the measuring process, its own, SETUP_AFTER after
it), following one discarded warm-up set-up.

Standard output: readable JSON lines (environment, details, the
per-workload figures), then one result line
``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workloads.py")
SERVE_TRACED = os.path.join(HERE, "serve_traced.py")
WORKLOADS = ("table1_mlp", "epochwise_cnn", "stream_mlp", "serve_http")
# Set-up samples are spread around the timed region, so their median
# sees the same phases of a shared machine as the run does.
SETUP_BEFORE = 1
SETUP_AFTER = 2
RUN_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class Child:
    """A program process whose stdout is read line by line.

    Killed when the run's deadline passes, so a hung process cannot
    outlive the benchmark.
    """

    def __init__(self, argv, env, deadline: float) -> None:
        self.began = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=env
        )
        self._timer = threading.Timer(
            max(1.0, deadline - time.perf_counter()), self.proc.kill
        )
        self._timer.daemon = True
        self._timer.start()

    def line(self, wanted: str) -> str:
        """The first stdout line containing ``wanted``."""
        for line in self.proc.stdout:
            if wanted in line:
                return line
        raise RuntimeError(f"process ended before printing {wanted!r}")

    def result(self) -> dict:
        payload = json.loads(self.line('{"result"'))["result"]
        self.finish()
        return payload

    def finish(self) -> str:
        """Wait for exit; the remaining stdout.  Non-zero exit raises."""
        rest = self.proc.stdout.read()
        code = self.proc.wait()
        self._timer.cancel()
        if code != 0:
            raise RuntimeError(f"{self.proc.args[1:3]} exited with {code}")
        return rest

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._timer.cancel()


def worker_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_argv(args, mode: str, *extra) -> list:
    return [sys.executable, WORKER, "--workload", args.workload,
            "--mode", mode, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *extra]


# ----------------------------------------------------------------------
def run_training(args, env, deadline) -> dict:
    """The measuring process between fresh set-up processes."""
    setups = []
    children = []

    def set_up(keep: bool = True) -> None:
        child = Child(worker_argv(args, "setup"), env, deadline)
        children.append(child)
        child.line('"ready"')
        if keep:
            setups.append(time.perf_counter() - child.began)
        child.finish()

    try:
        set_up(keep=False)
        for _ in range(SETUP_BEFORE):
            set_up()
        child = Child(worker_argv(args, "run"), env, deadline)
        children.append(child)
        child.line('"ready"')
        setups.append(time.perf_counter() - child.began)
        result = child.result()
        for _ in range(SETUP_AFTER):
            set_up()
    finally:
        for child in children:
            child.kill()
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["details"]["setup_samples_s"] = setups
    return result


class Server:
    """``repro serve --untrained`` as a subprocess, ready after one request."""

    def __init__(self, env, deadline, traced: bool = False) -> None:
        program = [SERVE_TRACED] if traced else ["-m", "repro"]
        argv = [sys.executable, *program, "serve", "--untrained",
                "--port", "0"]
        warm = json.dumps({"input": [0.0] * 784}).encode()
        self.child = Child(argv, env, deadline)
        try:
            line = self.child.line("http://")
            self.address = line.split("http://", 1)[1].split()[0]
            host, port = self.address.rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=60)
            try:
                conn.request("POST", "/classify", body=warm,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
            if response.status != 200:
                raise RuntimeError(
                    f"warm-up request answered {response.status}")
        except BaseException:
            self.child.kill()
            raise
        self.setup_s = time.perf_counter() - self.child.began

    def stop(self) -> str:
        """Graceful stop (SIGINT drains the service); remaining stdout.

        The server is reaped with ``wait4`` so its own resource usage is
        kept: ``peak_rss_mb`` and ``cpu_s`` over its whole life.
        """
        proc = self.child.proc
        proc.send_signal(signal.SIGINT)
        rest = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child.kill()
        if proc.returncode != 0:
            raise RuntimeError(f"repro serve exited with {proc.returncode}")
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        return rest


def drive(args, env, deadline, server: Server) -> dict:
    client = Child(
        worker_argv(args, "client", "--address", server.address),
        env, deadline,
    )
    try:
        return client.result()
    finally:
        client.kill()


def run_serve(args, env, deadline) -> dict:
    setups = []
    setup_cpu = []
    servers = []

    def set_up(keep: bool = True) -> None:
        server = Server(env, deadline)
        servers.append(server)
        server.stop()
        if keep:
            setups.append(server.setup_s)
            setup_cpu.append(server.cpu_s)

    try:
        set_up(keep=False)
        for _ in range(SETUP_BEFORE):
            set_up()
        server = Server(env, deadline)
        servers.append(server)
        setups.append(server.setup_s)
        result = drive(args, env, deadline, server)
        server.stop()
        for _ in range(SETUP_AFTER):
            set_up()
        metrics = result["metrics"]
        metrics["peak_rss_mb"] = server.peak_rss_mb
        # Server CPU under load: its lifetime CPU less a set-up-only
        # server's (start, one request, stop).
        metrics["cpu_ms_per_example"] = 1000.0 * (
            server.cpu_s - statistics.median(setup_cpu)
        ) / result["details"]["examples"]
        if args.trace:
            traced_server = Server(env, deadline, traced=True)
            servers.append(traced_server)
            traced = drive(args, env, deadline, traced_server)
            rest = traced_server.stop()
            trace = json.loads(
                [ln for ln in rest.splitlines() if ln.startswith('{"trace"')]
                [-1])["trace"]
            result["layers"] = serve_layers(result, traced, trace)
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["correct"] = result["correct"] and traced["correct"]
    finally:
        for server in servers:
            server.child.kill()
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["details"]["setup_samples_s"] = setups
    return result


def serve_layers(plain: dict, traced: dict, trace: dict) -> dict:
    """Per-layer metrics of the traced server (see README.md)."""
    server = traced["server"]
    details = traced["details"]
    batches = server["batches"]
    request_ms = sorted(s * 1000.0 for s in trace["request_s"])
    server_p50 = request_ms[len(request_ms) // 2]
    client_total_s = details["request_ms_mean"] * details["requests"] / 1000.0
    layers = {
        "serving.client_ms_p50": details["request_ms_p50"],
        "serving.client_ms_p99": details["request_ms_p99"],
        "serving.server_ms_p50": server_p50,
        "serving.transport_ms_p50": details["request_ms_p50"] - server_p50,
        "trace.overhead_ratio": (
            details["request_ms_mean"] / plain["details"]["request_ms_mean"]),
        "trace.unattributed_share": 1.0 - (
            trace["total_s"]["serving.request"] / client_total_s),
    }
    for key in ("batch_size_mean", "batch_ms_p50", "cache_hit_ratio",
                "shed", "timeouts"):
        layers[f"serving.{key}"] = server[key]
    for layer in ("conv", "pool", "dense", "act", "loss"):
        own = trace["self_s"].get(f"nn.{layer}", 0.0)
        layers[f"nn.{layer}_ms"] = 1000.0 * own / batches if batches else 0.0
    return layers


# ----------------------------------------------------------------------
def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "why_one_thread": (
            "2 BLAS threads gave an 11% spread of mnist_cnn epoch "
            "examples/s across processes, 1 thread 2.4%"),
    }


def workload_figures(workload: str, result: dict) -> dict:
    """The per-workload figures named in the benchmark README, by name."""
    details = result["details"]
    metrics = result["metrics"]
    figures = {
        "setup_s": (metrics["setup_s"], "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "cpu_ms_per_example": (metrics["cpu_ms_per_example"], "ms"),
        "failed_ratio": (result["failed"] / result["attempted"], "ratio"),
    }
    if workload == "serve_http":
        figures["serve_examples_per_s"] = (
            metrics["examples_per_s"], "examples/s")
        figures["serve_request_ms_p50"] = (details["request_ms_p50"], "ms")
        figures["serve_request_ms_p99"] = (details["request_ms_p99"], "ms")
    else:
        for method, seconds in details["epoch_s"].items():
            figures[f"epoch_s.{method}"] = (seconds, "s")
        if "eval_examples_per_s" in details:
            figures["eval_examples_per_s"] = (
                details["eval_examples_per_s"], "examples/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = worker_env(root)
    run = run_serve if args.workload == "serve_http" else run_training
    result = run(args, env, deadline)

    print(json.dumps({"environment": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "details": result["details"]}))
    print(json.dumps({"figures": workload_figures(args.workload, result)}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result.get("layers", {}) if args.trace else result["metrics"]
    # A per-layer metric of a layer the workload does not run reads 0;
    # a missing end-to-end metric is a benchmark bug and raises.
    metrics = {
        m["name"]: {"value": float(values[m["name"]] if not args.trace
                                   else values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
