"""serve_rw: a real server process under concurrent reads and writes.

Two closed-loop callers in this process, one connection each:

* reads: one wire connection keeps ``READ_OUTSTANDING`` sigmoid_embedding
  requests in flight over four ~512-vertex graphs at d=16.  The kernel is a
  small part of each read, so transport, the coalescer and ``run_batch``
  carry the time.
* writes: one HTTP session applies 64-edge insert/delete batches to a
  ~2k-vertex graph and, after each, reads the graph back with a gcn request
  and compares it with a locally kept edge set (read-your-writes).  Writes
  exercise ``DynamicGraph``, ``DeltaCSR`` and plan refresh on the runtime the
  reads share, so a read-path gain that costs writes shows.

Reads are checked against the ``generic`` oracle computed here.
``shutdown_s`` is SIGTERM to server exit with both connections open and idle.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import inputs
from .measure import (
    CpuShare,
    close_to,
    core_runtime_layers,
    mean_ms,
    median_or_zero,
    percentile,
    runtime_counters,
    vendor_spmm_ms,
)
from .tracing import BENCH_TARGETS, Recorder, SpanIndex, unattributed

SETUP_REPEATS = 5
START_TIMEOUT_S = 120.0
ROOT = Path(__file__).resolve().parent.parent


class Server:
    """One launcher process; stopped (and waited for) by :meth:`stop`."""

    def __init__(self, seed: int, out_dir: Path, trace_out: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "perfbench.launcher",
                "--seed", str(seed),
                "--jobs-dir", str(out_dir / f"jobs-{os.getpid()}"),
                "--trace-out", trace_out,
            ],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        self._tail = None
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError("serve_rw: server process did not start")
        ports = json.loads(line)
        self.http_port, self.wire_port = ports["http_port"], ports["wire_port"]

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> dict:
        """SIGTERM, wait for exit; returns the launcher's last JSON line."""
        if self._tail is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                out, _ = self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                out, _ = self.proc.communicate()
            lines = [ln for ln in (out or "").splitlines() if ln.startswith("{")]
            self._tail = json.loads(lines[-1]) if lines else {}
        return self._tail


class EdgeSet:
    """The write graph as this process believes it is after each batch."""

    def __init__(self, A, seed: int) -> None:
        rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
        self.n = A.nrows
        self.edges = dict(zip(zip(rows.tolist(), A.indices.tolist()), A.data.tolist()))
        self.rng = np.random.default_rng(seed)
        self.batches = 0

    def next_batch(self):
        self.batches += 1
        half = inputs.WRITE_BATCH // 2
        keys = list(self.edges)
        delete = [keys[i] for i in self.rng.choice(len(keys), half, replace=False)]
        u = self.rng.integers(0, self.n, half)
        v = (u + 1 + self.rng.integers(0, self.n - 1, half)) % self.n
        w = self.rng.uniform(0.5, 1.5, half).astype(np.float32).astype(np.float64)
        insert = list(zip(u.tolist(), v.tolist(), w.tolist()))
        for key in delete:
            self.edges.pop(key, None)
        for a, b, weight in insert:
            self.edges[(a, b)] = weight
        return insert, delete

    def times(self, X: np.ndarray) -> np.ndarray:
        import scipy.sparse as sp

        (rows, cols), vals = zip(*self.edges), list(self.edges.values())
        S = sp.csr_matrix(
            (np.asarray(vals, dtype=np.float32), (rows, cols)), shape=(self.n, self.n)
        )
        return S @ X


def run(seed: int, seconds: float, trace: bool, stream_gbs: float, out_dir: Path) -> dict:
    from repro import fusedmm
    from repro.errors import ReproError
    from repro.serve import ServeClient, WireClient

    graphs = inputs.serve_graphs(seed)
    combos = [
        (name, k) for name in inputs.read_graph_names() for k in range(inputs.READ_OPERANDS)
    ]
    X_read = {
        c: inputs.features(graphs[c[0]].nrows, inputs.READ_DIM, seed * 1_000 + 300 + i)
        for i, c in enumerate(combos)
    }
    expected = {
        c: fusedmm(graphs[c[0]], X_read[c], pattern="sigmoid_embedding", backend="generic")
        for c in combos
    }
    W = graphs[inputs.WRITE_GRAPH_NAME]
    X_write = inputs.features(W.nrows, inputs.WRITE_DIM, seed * 1_000 + 500)
    spans_path = str(out_dir / f"server-spans-{seed}.json") if trace else ""

    rec = Recorder()
    if trace:
        rec.install(BENCH_TARGETS)
    lock = threading.Lock()
    tally = {"attempted": 0, "failed": 0}

    def count(ok: bool) -> None:
        with lock:
            tally["attempted"] += 1
            tally["failed"] += not ok

    def read_loop(wire, duration: float, record: bool):
        """Closed loop with READ_OUTSTANDING requests in flight."""
        latencies, outstanding, i = [], {}, 0
        t_start = time.perf_counter()
        end = t_start + duration
        try:
            while True:
                while len(outstanding) < inputs.READ_OUTSTANDING and time.perf_counter() < end:
                    c = combos[i % len(combos)]
                    op = f"read-{i}"
                    i += 1
                    with rec.op(op):
                        t0 = time.perf_counter()
                        rid = wire.send_kernel(model=c[0], x=X_read[c], pattern="sigmoid_embedding")
                    outstanding[rid] = (t0, c, op)
                if not outstanding:
                    break
                rid, value = wire.recv()  # shared by every read in flight: no op
                t0, c, op = outstanding.pop(rid)
                with rec.op(op):
                    v0 = time.perf_counter()
                    ok = isinstance(value, np.ndarray) and close_to(value, expected[c])
                    t1 = time.perf_counter()
                    if record:
                        rec.add("bench.verify", "bench", v0, t1)
                        rec.add("bench.op", "bench", t0, t1)
                count(ok)
                if ok:
                    latencies.append(t1 - t0)
        except (OSError, ValueError, ReproError):
            for _ in outstanding:
                count(False)
        return latencies, time.perf_counter() - t_start

    def write_once(http, edges: EdgeSet, record: bool):
        """One mutation, then read the graph back; returns the mutation's
        latency, or None when the write or the read-back is wrong."""
        insert, delete = edges.next_batch()
        with rec.op(f"write-{edges.batches}"):
            t0 = time.perf_counter()
            try:
                http.mutate(inputs.WRITE_GRAPH_NAME, insert=insert, delete=delete)
                t1 = time.perf_counter()
                Z = http.kernel(model=inputs.WRITE_GRAPH_NAME, x=X_write, pattern="gcn")
            except (OSError, ValueError, ReproError):
                count(False)
                return None
            v0 = time.perf_counter()
            ok = close_to(Z, edges.times(X_write))
            t2 = time.perf_counter()
            if record:
                rec.add("bench.verify", "bench", v0, t2)
                rec.add("bench.op", "bench", t0, t2)
        count(ok)
        return t1 - t0 if ok else None

    def write_loop(http, edges: EdgeSet, duration: float, record: bool):
        latencies = []
        end = time.perf_counter() + duration
        while time.perf_counter() < end:
            latency = write_once(http, edges, record)
            if latency is not None:
                latencies.append(latency)
        return latencies

    def both(wire, http, edges, duration: float, record: bool):
        cpu = CpuShare()
        with ThreadPoolExecutor(max_workers=2) as pool:
            reads = pool.submit(read_loop, wire, duration, record)
            writes = pool.submit(write_loop, http, edges, duration, record)
            return reads.result(), writes.result(), cpu.share()

    server = wire = http = None
    setup_times = []
    result = {}
    setup_cpu = CpuShare()
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                wire.close()
                http.close()
                server.stop()
            edges = EdgeSet(W, seed)
            t0 = time.perf_counter()
            server = Server(seed, out_dir, spans_path)
            wire = WireClient(port=server.wire_port)
            http = ServeClient(port=server.http_port)
            for c in combos:  # warm-up: one read per (graph, operand), one write
                count(close_to(wire.kernel(model=c[0], x=X_read[c]), expected[c]))
            write_once(http, edges, False)
            setup_times.append(time.perf_counter() - t0)
        setup_share = setup_cpu.share()

        if trace:
            server.signal(signal.SIGUSR1)
            rec.uninstall()
            (untraced, _), _, _ = both(wire, http, edges, seconds / 2, False)
            server.signal(signal.SIGUSR2)
            rec.install(BENCH_TARGETS)
            time.sleep(0.05)  # the server installs its tracing on its loop
            since = time.perf_counter()
            before = http.statz()["runtime"]
            (reads, elapsed), writes, share = both(wire, http, edges, seconds / 2, True)
            after = http.statz()["runtime"]
            rec.uninstall()
        else:
            (reads, elapsed), writes, share = both(wire, http, edges, seconds, False)

        t0 = time.perf_counter()
        tail = server.stop()
        shutdown_s = time.perf_counter() - t0
    finally:
        for client in (wire, http):
            if client is not None:
                client.close()
        if server is not None:
            server.stop()

    read_p50 = median_or_zero(reads)
    if trace:
        with open(spans_path) as fh:
            server_spans = json.load(fh)
        os.remove(spans_path)
        sidx = SpanIndex(server_spans)
        ops = [s for s in rec.spans if s["name"] == "bench.op" and s["t0"] >= since]
        layers = core_runtime_layers(
            sidx, since, len(ops), sum(s["t1"] - s["t0"] for s in ops), stream_gbs
        )
        layers.update(runtime_counters(before, after, len(ops)))
        name0 = combos[0]
        layers["core.vendor_spmm_ms"] = vendor_spmm_ms(graphs[name0[0]], X_read[name0])
        windows = sidx.named("serve.window", since)
        waits = [w for s in windows for w in s["attrs"]["waits_ms"]]
        batches = [s["t1"] - s["t0"] for s in sidx.named("runtime.run_batch", since)]
        layers["serve.queue_wait_ms_p50"] = percentile(waits, 50) if waits else 0.0
        layers["serve.queue_wait_ms_p90"] = percentile(waits, 90) if waits else 0.0
        layers["serve.window_occupancy"] = (
            statistics.mean(s["attrs"]["size"] for s in windows) if windows else 0.0
        )
        layers["serve.dispatch_ms"] = statistics.mean(batches) * 1e3 if batches else 0.0
        layers["serve.transport_ms"] = (
            read_p50 * 1e3
            - layers["serve.queue_wait_ms_p50"]
            - (median_or_zero(batches) * 1e3)
        )
        layers["serve.mutate_ms"] = mean_ms(sidx.named("serve.mutate_graph", since))
        layers["runtime.apply_edges_ms"] = mean_ms(sidx.named("runtime.apply_edges", since))
        layers["sparse.delta_apply_ms"] = mean_ms(sidx.named("sparse.delta_apply", since))
        drains = sidx.named("serve.shutdown")
        layers["serve.drain_s"] = drains[-1]["t1"] - drains[-1]["t0"] if drains else 0.0
        blind, total = unattributed(rec.spans, since)
        layers["trace.unattributed_frac"] = blind / total if total else 0.0
        layers["trace.overhead_frac"] = read_p50 / median_or_zero(untraced) - 1.0
        result["layers"] = layers
        result["spans"] = {"benchmark": rec.spans, "server": server_spans}

    read_rps = len(reads) / elapsed if elapsed > 0 else 0.0
    result.update(
        attempted=tally["attempted"],
        failed=tally["failed"],
        samples={"read_ms": [t * 1e3 for t in reads], "write_ms": [t * 1e3 for t in writes]},
        e2e={
            "op_ms_p50": read_p50 * 1e3 * share,
            "ops_per_s": read_rps / share,
            "setup_s": statistics.median(setup_times) * setup_share,
            "peak_rss_mb": float(tail.get("peak_rss_mb", 0.0)),
        },
        detail={
            "read_rps": (read_rps, "1/s"),
            "read_ms_p50": (read_p50 * 1e3, "ms"),
            "read_ms_p90": (percentile(reads, 90) * 1e3 if reads else 0.0, "ms"),
            "write_ms_p50": (median_or_zero(writes) * 1e3, "ms"),
            "shutdown_s": (shutdown_s, "s"),
            "reads": (len(reads), "count"),
            "writes": (len(writes), "count"),
            "cpu_share": (share, "ratio"),
        },
    )
    return result
