"""kernels_full: Table VI through the runtime.

Warm ``KernelRuntime(num_threads=nproc).run`` calls on the ~738k-nnz RMAT
graph at d=128, cycling sigmoid_embedding, fr_layout and gcn.  ``core``
does nearly all the work and every call after set-up hits the plan cache.

Correctness on every call: gcn is compared with scipy ``A @ X``; the other
two patterns on a seeded row sample with the ``generic`` Algorithm 1
oracle.  Neither reference is the backend under test, so a later compiled
tier passes as long as it is allclose.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from . import inputs
from .measure import (
    CpuShare,
    close_to,
    core_runtime_layers,
    median_or_zero,
    peak_rss_mb,
    runtime_counters,
    vendor_spmm_ms,
)
from .tracing import BENCH_TARGETS, Recorder, SpanIndex, unattributed

SETUP_REPEATS = 3


def run(seed: int, seconds: float, trace: bool, stream_gbs: float) -> dict:
    import scipy.sparse as sp

    from repro import KernelRuntime, fusedmm

    A = inputs.rmat_graph(inputs.KERNEL_GRAPH, seed)
    Xs = [
        inputs.features(A.nrows, inputs.KERNEL_DIM, seed * 100 + k)
        for k in range(inputs.KERNEL_OPERANDS)
    ]
    S = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    gcn_ref = [S @ X for X in Xs]
    rows = np.sort(np.random.default_rng(seed).choice(A.nrows, inputs.ORACLE_ROWS, replace=False))
    A_rows = A.select_rows(rows)
    oracle = {
        (p, k): fusedmm(A_rows, X[rows], X, pattern=p, backend="generic")
        for p in inputs.KERNEL_PATTERNS
        if p != "gcn"
        for k, X in enumerate(Xs)
    }

    def correct(pattern: str, k: int, Z) -> bool:
        if pattern == "gcn":
            return close_to(Z, gcn_ref[k])
        return Z.shape == (A.nrows, inputs.KERNEL_DIM) and close_to(Z[rows], oracle[pattern, k])

    rec = Recorder()
    if trace:
        rec.install(BENCH_TARGETS)
    attempted = failed = 0

    # Set-up: runtime, plans, one warm call per pattern (checks excluded).
    setup_times = []
    setup_cpu = CpuShare()
    rt = None
    for rep in range(1 if trace else SETUP_REPEATS):
        if rt is not None:
            rt.close()
        t0 = time.perf_counter()
        checking = 0.0
        rt = KernelRuntime(num_threads=inputs.nproc())
        for p in inputs.KERNEL_PATTERNS:
            rt.plan(A, pattern=p)
        for p in inputs.KERNEL_PATTERNS:
            Z = rt.run(A, Xs[0], pattern=p)
            c0 = time.perf_counter()
            attempted += 1
            failed += not correct(p, 0, Z)
            checking += time.perf_counter() - c0
        setup_times.append(time.perf_counter() - t0 - checking)
    setup_share = setup_cpu.share()

    def measure(duration: float, record: bool):
        nonlocal attempted, failed
        times = {p: [] for p in inputs.KERNEL_PATTERNS}
        cpu = CpuShare()
        end = time.perf_counter() + duration
        i = 0
        while time.perf_counter() < end:
            p = inputs.KERNEL_PATTERNS[i % len(inputs.KERNEL_PATTERNS)]
            k = (i // len(inputs.KERNEL_PATTERNS)) % len(Xs)
            i += 1
            with rec.op(f"call-{i}"):
                t0 = time.perf_counter()
                Z = rt.run(A, Xs[k], pattern=p)
                t1 = time.perf_counter()
                if record:
                    rec.add("bench.op", "bench", t0, t1)
            attempted += 1
            ok = correct(p, k, Z)
            failed += not ok
            if ok:
                times[p].append(t1 - t0)
        return times, cpu.share()

    result = {}
    if trace:
        rec.uninstall()
        untraced, _ = measure(seconds / 2, False)
        rec.install(BENCH_TARGETS)
        since = time.perf_counter()
        before = rt.stats()
        traced, share = measure(seconds / 2, True)
        rec.uninstall()
        ops = [s for s in rec.spans if s["name"] == "bench.op" and s["t0"] >= since]
        idx = SpanIndex(rec.spans)
        layers = core_runtime_layers(
            idx, since, len(ops), sum(s["t1"] - s["t0"] for s in ops), stream_gbs
        )
        layers.update(runtime_counters(before, rt.stats(), len(ops)))
        layers["core.vendor_spmm_ms"] = vendor_spmm_ms(A, Xs[0])
        blind, total = unattributed(rec.spans, since)
        layers["trace.unattributed_frac"] = blind / total if total else 0.0
        # Per pattern, so a different pattern mix in the two halves is no bias.
        layers["trace.overhead_frac"] = statistics.mean(
            median_or_zero(traced[p]) / median_or_zero(untraced[p]) - 1.0
            for p in inputs.KERNEL_PATTERNS
        )
        result["layers"] = layers
        result["spans"] = {"benchmark": rec.spans}
        times = traced
    else:
        times, share = measure(seconds, False)
    rt.close()

    every = [t for v in times.values() for t in v]
    result.update(
        attempted=attempted,
        failed=failed,
        samples={p: [t * 1e3 for t in v] for p, v in times.items()},
        e2e={
            "op_ms_p50": median_or_zero(every) * 1e3 * share,
            "ops_per_s": len(every) / sum(every) / share if every else 0.0,
            "setup_s": statistics.median(setup_times) * setup_share,
            "peak_rss_mb": peak_rss_mb(),
        },
        detail={
            "kernel_sigmoid_ms": (median_or_zero(times["sigmoid_embedding"]) * 1e3, "ms"),
            "kernel_fr_ms": (median_or_zero(times["fr_layout"]) * 1e3, "ms"),
            "kernel_gcn_ms": (median_or_zero(times["gcn"]) * 1e3, "ms"),
            "calls": (len(every), "count"),
            "cpu_share": (share, "ratio"),
        },
    )
    return result
