"""force2vec_train: Table VIII end to end.

``Force2Vec`` epochs at the paper's defaults (d=128, batch 256, 5
negatives, ``num_threads=nproc``) on a 10k-vertex RMAT graph.  Each epoch
is 40 minibatches of three ``run_on`` dispatches plus the app's own
slicing, sampling and update work; the reorder tier is not used.

An epoch runs on one core, whose speed on a shared host drifts by a third
over minutes; each set-up and epoch time is scaled to the reference speed
by ``measure.speed_factor``, sampled just before and after it.

Correctness on every epoch: the gradient of a seeded minibatch at the
epoch's end state matches the ``fused_generic`` (Algorithm 1) backend, and
the sampled loss is finite.  Over the run the loss must fall.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace

import numpy as np

from . import inputs
from .measure import (
    calibration_s,
    close_to,
    core_runtime_layers,
    mean_ms,
    median_or_zero,
    peak_rss_mb,
    runtime_counters,
    speed_factor,
    vendor_spmm_ms,
)
from .tracing import BENCH_TARGETS, Recorder, SpanIndex, unattributed

# Construction takes ~25 ms, so many repeats keep its median steady.
SETUP_REPEATS = 15


def run(seed: int, seconds: float, trace: bool, stream_gbs: float) -> dict:
    from repro.apps import Force2Vec, Force2VecConfig
    from repro.graphs.graph import Graph

    graph = Graph(inputs.rmat_graph(inputs.F2V_GRAPH, seed), name=f"rmat-f2v-{seed}")
    config = Force2VecConfig(
        dim=inputs.F2V_DIM,
        batch_size=inputs.F2V_BATCH,
        negative_samples=inputs.F2V_NEGATIVES,
        num_threads=inputs.nproc(),
        seed=seed,
    )
    checker = Force2Vec(graph, replace(config, backend="fused_generic", num_threads=1))
    rng = np.random.default_rng(seed)

    def gradient_matches(model) -> bool:
        """One seeded minibatch gradient, fused vs the Alg. 1 backend, at
        the model's current state; the model's state is restored after."""
        batch = np.sort(rng.choice(graph.num_vertices, inputs.F2V_BATCH, replace=False))
        state = model.export_state()
        fused = model._batch_gradient(batch, None)
        model.load_state(state)
        checker.load_state(state)
        return close_to(fused, checker._batch_gradient(batch, None))

    rec = Recorder()
    if trace:
        rec.install(BENCH_TARGETS)
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        c0 = calibration_s()
        t0 = time.perf_counter()
        model = Force2Vec(graph, config)
        t1 = time.perf_counter()
        setup_times.append((t1 - t0) * speed_factor(c0, calibration_s()))
    loss_start = model.loss_estimate(seed=seed)
    attempted = failed = 0
    epoch = 0

    def measure(duration: float, record: bool):
        nonlocal attempted, failed, epoch
        times, factors = [], []
        end = time.perf_counter() + duration
        while time.perf_counter() < end:
            c0 = calibration_s()
            with rec.op(f"epoch-{epoch}"):
                t0 = time.perf_counter()
                model.train_epoch(epoch)
                t1 = time.perf_counter()
                if record:
                    rec.add("bench.op", "bench", t0, t1)
            factor = speed_factor(c0, calibration_s())
            epoch += 1
            attempted += 1
            with rec.paused():
                ok = math.isfinite(model.loss_estimate(seed=seed)) and gradient_matches(model)
            failed += not ok
            if ok:
                times.append(t1 - t0)
                factors.append(factor)
        return [t * f for t, f in zip(times, factors)], times

    result = {}
    if trace:
        rec.uninstall()
        untraced, _ = measure(seconds / 2, False)
        rec.install(BENCH_TARGETS)
        since = time.perf_counter()
        before = model.runtime_stats()
        times, raw = measure(seconds / 2, True)
        rec.uninstall()
        idx = SpanIndex(rec.spans)
        ops = [s for s in rec.spans if s["name"] == "bench.op" and s["t0"] >= since]
        layers = core_runtime_layers(
            idx, since, len(ops), sum(s["t1"] - s["t0"] for s in ops), stream_gbs
        )
        layers.update(runtime_counters(before, model.runtime_stats(), len(ops)))
        Y = model.embeddings.astype(np.float32)
        layers["core.vendor_spmm_ms"] = vendor_spmm_ms(graph.adjacency, Y)
        layers["sparse.select_rows_ms"] = mean_ms(idx.named("sparse.select_rows", since))
        layers["apps.sample_ms"] = mean_ms(idx.named("apps.sample", since))
        epochs = idx.named("apps.train_epoch", since)
        layers["apps.epoch_self_s"] = sum(map(idx.self_time, epochs)) / max(len(epochs), 1)
        blind, total = unattributed(rec.spans, since)
        layers["trace.unattributed_frac"] = blind / total if total else 0.0
        layers["trace.overhead_frac"] = median_or_zero(times) / median_or_zero(untraced) - 1.0
        result["layers"] = layers
        result["spans"] = {"benchmark": rec.spans}
    else:
        times, raw = measure(seconds, False)

    loss_end = model.loss_estimate(seed=seed)
    if not loss_end < loss_start:
        failed += 1  # the run's last epoch did not leave the loss lower
    epoch_s = median_or_zero(times)
    result.update(
        attempted=attempted,
        failed=failed,
        samples={"epoch_ms": [t * 1e3 for t in times], "raw_epoch_ms": [t * 1e3 for t in raw]},
        e2e={
            "op_ms_p50": epoch_s * 1e3,
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        },
        detail={
            "epoch_s": (epoch_s, "s"),
            "raw_epoch_s": (median_or_zero(raw), "s"),
            "epochs": (len(times), "count"),
            "loss_start": (loss_start, "nats"),
            "loss_end": (loss_end, "nats"),
        },
    )
    return result
