"""Statistics, correctness checks and the core/runtime layer metrics that
every workload reports the same way."""

from __future__ import annotations

import os
import resource
import statistics
import time

import numpy as np

from .inputs import KERNEL_PATTERNS, nproc
from .tracing import SpanIndex

DISPATCH_SPANS = ("runtime.run", "runtime.run_batch", "runtime.run_on", "runtime.step")


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _steal_cpu_s() -> float:
    """CPU seconds the hypervisor ran other guests on this VM's CPUs, all
    CPUs together (``/proc/stat``); 0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / _CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


class CpuShare:
    """The share of this VM's CPU time not stolen by the hypervisor since
    construction.  Times are multiplied by it so that a neighbour guest's
    load does not read as a slower program: on a dedicated host it is 1."""

    def __init__(self) -> None:
        self.t0, self.s0 = time.perf_counter(), _steal_cpu_s()

    def share(self) -> float:
        wall = time.perf_counter() - self.t0
        stolen = _steal_cpu_s() - self.s0
        # Floored so that a phase starved of most of its CPU is not scaled
        # into a fast one.
        return max(0.5, 1.0 - stolen / (nproc() * wall)) if wall > 0 else 1.0


# A fixed pure-Python loop times the host's single-core speed; its
# reference time lies between its medians on the 2-vCPU development VM
# in fast and slow hours (2.2-2.8 ms).
CALIBRATION_LOOPS = 50_000
CALIBRATION_REFERENCE_S = 0.0025


def calibration_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i % 7
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Reference over measured single-core speed around one timed op, from
    ``calibration_s()`` just before and just after it.  A neighbour guest
    that slows this VM's core without stealing it (shared core resources)
    slows the loop alike, so an op time multiplied by the factor reads as
    if run at the reference speed.  The loop is the benchmark's: a program
    change moves it only by loading the CPU outside its ops."""
    return 2 * CALIBRATION_REFERENCE_S / (before + after)


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_or_zero(values) -> float:
    """Median of the successful samples; 0 when every op failed (the run
    then reports ``correct: false``)."""
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def close_to(actual, expected, rtol: float = 1e-4) -> bool:
    """allclose with an absolute floor scaled to the reference's magnitude,
    loose enough for a float32 kernel with another summation order."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    return bool(np.allclose(actual, expected, rtol=rtol, atol=rtol * max(scale, 1e-30)))


def vendor_spmm_ms(A, X, repeats: int = 5) -> float:
    """Median scipy ``CSR @ dense`` time on the same graph and width."""
    import scipy.sparse as sp

    S = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        S @ X
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def mean_ms(spans) -> float:
    """Mean wall time of spans, in milliseconds."""
    return sum(s["t1"] - s["t0"] for s in spans) / len(spans) * 1e3 if spans else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def core_runtime_layers(
    idx: SpanIndex, since: float, n_ops: int, op_seconds: float, stream_gbs: float
) -> dict:
    """``core.*`` and ``runtime.dispatch_ms``/``plan_build_s`` from one
    process's spans; ops and their wall time come from the caller (the
    client side, for a server)."""
    execs = idx.named("core.execute", since)
    self_s = [idx.self_time(s) for s in execs]
    out = {}
    for pattern in KERNEL_PATTERNS:
        sel = [t for s, t in zip(execs, self_s) if s["attrs"]["pattern"] == pattern]
        out[f"core.kernel_ms.{pattern}"] = _mean(sel) * 1e3
    core_s = sum(self_s)
    eq4 = [s["attrs"]["eq4_bytes"] for s in execs]
    out["core.calls_per_op"] = len(execs) / max(n_ops, 1)
    out["core.traffic_mb"] = _mean(eq4) / 1e6
    out["core.roofline_frac"] = (
        sum(eq4) / core_s / (stream_gbs * 1e9) if core_s > 0 and stream_gbs > 0 else 0.0
    )
    out["core.op_share"] = core_s / op_seconds if op_seconds > 0 else 0.0
    dispatch = [s for name in DISPATCH_SPANS for s in idx.named(name, since)]
    out["runtime.dispatch_ms"] = _mean(idx.net_of_layer(s, "core") for s in dispatch) * 1e3
    out["runtime.plan_build_s"] = sum(s["t1"] - s["t0"] for s in idx.named("runtime.build_plan"))
    return out


def runtime_counters(before: dict, after: dict, n_ops: int) -> dict:
    """Plan-cache hit rate and per-op scheduling counts between two
    ``KernelRuntime.stats()`` snapshots."""
    hits = after["plan_cache"]["hits"] - before["plan_cache"]["hits"]
    misses = after["plan_cache"]["misses"] - before["plan_cache"]["misses"]
    return {
        "runtime.plan_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.packed_requests": (after["packed_requests"] - before["packed_requests"]) / max(n_ops, 1),
        "runtime.split_jobs": (after["split_jobs"] - before["split_jobs"]) / max(n_ops, 1),
    }
