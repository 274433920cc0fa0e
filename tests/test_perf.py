"""Unit tests for the performance substrate (timer, flops, memory, roofline,
machine model, scaling)."""

import time

import pytest

from repro.core import fusedmm_optimized
from repro.graphs import random_features
from repro.perf import (
    MACHINES,
    Stopwatch,
    Timing,
    arithmetic_intensity,
    arithmetic_intensity_formula,
    attainable_gflops,
    calibrate_efficiency,
    fusedmm_flops,
    fusedmm_memory_bytes,
    measure_peak_allocation,
    measure_stream_bandwidth,
    memory_model_sweep,
    modeled_scaling_curve,
    pattern_flops,
    predict_kernel_time,
    roofline_point,
    stopwatch,
    strong_scaling,
    time_kernel,
    traffic_bytes,
)
from repro.sparse import random_csr


@pytest.fixture(scope="module")
def A():
    return random_csr(300, 300, density=0.05, seed=17)


# ------------------------------------------------------------------ #
# Timing
# ------------------------------------------------------------------ #
def test_time_kernel_statistics():
    timing = time_kernel(lambda: time.sleep(0.001), repeats=3, warmup=1)
    assert isinstance(timing, Timing)
    assert timing.mean >= 0.001
    assert timing.best <= timing.mean
    assert timing.total >= 3 * 0.001
    assert timing.as_dict()["repeats"] == 3


def test_stopwatch_laps():
    sw = Stopwatch()
    with sw.lap("a"):
        time.sleep(0.001)
    with sw.lap("a"):
        pass
    with sw.lap("b"):
        pass
    assert sw.laps["a"] >= 0.001
    assert sw.total() >= sw.laps["a"]
    sw.reset()
    assert sw.laps == {}


def test_stopwatch_contextmanager():
    with stopwatch() as t:
        time.sleep(0.001)
    assert t.elapsed >= 0.001


# ------------------------------------------------------------------ #
# Flop / traffic / AI models
# ------------------------------------------------------------------ #
def test_pattern_flops_scales_linearly():
    assert pattern_flops("sigmoid_embedding", 64, 1000) * 2 == pattern_flops(
        "sigmoid_embedding", 64, 2000
    )
    assert pattern_flops("sigmoid_embedding", 128, 1000) > pattern_flops(
        "sigmoid_embedding", 64, 1000
    )


def test_fusedmm_flops_wrapper(A):
    assert fusedmm_flops(A, 32) == pattern_flops("sigmoid_embedding", 32, A.nnz)


def test_arithmetic_intensity_formula_limits():
    # Worst case delta = d = 1 gives 1/6 (paper's statement).
    assert arithmetic_intensity_formula(1, 1) == pytest.approx(1.0 / 6.0)
    # Dense graphs with large d approach 1.
    assert arithmetic_intensity_formula(1000, 1000) > 0.99
    assert arithmetic_intensity_formula(0, 10) == 0.0


def test_arithmetic_intensity_monotone_in_degree():
    ai_sparse = arithmetic_intensity_formula(2, 128)
    ai_dense = arithmetic_intensity_formula(100, 128)
    assert ai_dense > ai_sparse


def test_arithmetic_intensity_exact_close_to_formula(A):
    d = 128
    exact = arithmetic_intensity(A, d)
    approx = arithmetic_intensity_formula(A.avg_degree(), d)
    assert exact == pytest.approx(approx, rel=0.5)


def test_traffic_bytes_fused_less_than_unfused(A):
    for d in (16, 128):
        assert traffic_bytes(A, d, fused=True) < traffic_bytes(A, d, fused=False)
    # Vector messages cost much more than scalar ones in the unfused model.
    assert traffic_bytes(A, 64, fused=False, scalar_messages=False) > traffic_bytes(
        A, 64, fused=False, scalar_messages=True
    )


def test_attainable_gflops_roofline():
    assert attainable_gflops(0.5, 100.0) == pytest.approx(50.0)
    assert attainable_gflops(10.0, 100.0, peak_gflops=200.0) == pytest.approx(200.0)


def test_measure_stream_bandwidth_positive():
    assert measure_stream_bandwidth(size_mb=4, repeats=1) > 0.1


def test_roofline_point(A):
    point = roofline_point("test", A, 64, kernel_seconds=0.01, bandwidth_gbs=50.0)
    row = point.as_row()
    assert row["graph"] == "test"
    assert row["attained_gflops"] > 0
    assert row["attainable_gflops"] <= 50.0 * 1.5


# ------------------------------------------------------------------ #
# Memory models
# ------------------------------------------------------------------ #
def test_fusedmm_memory_formula(A):
    est = fusedmm_memory_bytes(A, 64)
    expected_operands = 8 * A.nrows * 64 + 4 * A.ncols * 64 + 12 * A.nnz
    assert est.operands_bytes == expected_operands
    assert est.total_megabytes == pytest.approx(est.total_bytes / 2**20)


def test_memory_model_sweep_ratio_grows(A):
    sweep = memory_model_sweep(A, [16, 64, 256], pattern="fr_layout")
    ratios = [sweep[d]["unfused_mb"] / sweep[d]["fusedmm_mb"] for d in (16, 64, 256)]
    assert ratios == sorted(ratios)
    assert ratios[-1] > ratios[0]


def test_measure_peak_allocation_tracks_result(A):
    X = random_features(A.nrows, 32, seed=0)
    stats = measure_peak_allocation(fusedmm_optimized, A, X, X)
    assert stats["peak_mb"] > 0
    assert "result_mb" in stats


# ------------------------------------------------------------------ #
# Machine model
# ------------------------------------------------------------------ #
def test_machine_profiles_match_table4():
    intel = MACHINES["intel_skylake_8160"]
    amd = MACHINES["amd_epyc_7551"]
    arm = MACHINES["arm_thunderx_cn8890"]
    assert intel.total_cores == 48
    assert amd.total_cores == 64
    assert arm.total_cores == 48
    assert intel.llc_mb == 32 and amd.llc_mb == 8 and arm.llc_mb == 16
    assert arm.l2_kb == 0  # the paper notes no L2 on the ARM server
    assert intel.peak_gflops > 0


def test_predict_kernel_time_orderings(A):
    d = 128
    t_fused = predict_kernel_time(A, d, "intel_skylake_8160", fused=True)
    t_unfused = predict_kernel_time(A, d, "intel_skylake_8160", fused=False)
    assert t_unfused > t_fused
    # The ARM server has much lower bandwidth -> slower predicted times.
    t_arm = predict_kernel_time(A, d, "arm_thunderx_cn8890", fused=True)
    assert t_arm > t_fused


def test_predict_kernel_time_accepts_profile_instance(A):
    profile = MACHINES["amd_epyc_7551"]
    assert predict_kernel_time(A, 64, profile) > 0


def test_calibrate_efficiency_roundtrip(A):
    d = 64
    measured = 0.02
    eff = calibrate_efficiency(measured, A, d, "intel_skylake_8160")
    predicted = predict_kernel_time(A, d, "intel_skylake_8160", efficiency=eff)
    assert predicted == pytest.approx(measured, rel=1e-6)
    assert calibrate_efficiency(0.0, A, d, "intel_skylake_8160") == 1.0


# ------------------------------------------------------------------ #
# Scaling
# ------------------------------------------------------------------ #
def test_strong_scaling_measures_each_thread_count(A):
    X = random_features(A.nrows, 16, seed=0)

    def kernel(num_threads: int = 1):
        return fusedmm_optimized(A, X, X, num_threads=num_threads)

    points = strong_scaling(kernel, [1, 2], repeats=1, warmup=0)
    assert [p.threads for p in points] == [1, 2]
    assert points[0].speedup == pytest.approx(1.0)
    assert all(p.seconds > 0 for p in points)


def test_modeled_scaling_curve_shape():
    points = modeled_scaling_curve(10.0, [1, 8, 16, 32])
    speedups = [p.speedup for p in points]
    assert speedups[0] == pytest.approx(1.0, rel=0.05)
    assert speedups == sorted(speedups)
    # Matches the paper's ballpark: ~20x at 32 threads.
    assert 14.0 < speedups[-1] < 28.0
    assert points[-1].as_row()["threads"] == 32
