"""Unit tests for the C kernel generator (the compiled backend) and the
autotuner."""

import os
import stat
import subprocess

import numpy as np
import pytest

from repro.core.autotune import (
    DEFAULT_BLOCK_CANDIDATES,
    autotune,
    clear_tuning_cache,
    tuning_cache_info,
)
from repro.core.compiled import (
    cache_dir,
    clear_kernel_cache,
    compiled_supports_pattern,
    generate_kernel_source,
    get_compiled_kernel,
    kernel_cache_info,
)
from repro.core.fused import resolve_backend
from repro.core.operators import make_mlp_vop
from repro.core.patterns import get_pattern, list_patterns
from repro.core.generic import fusedmm_generic
from repro.errors import BackendError
from repro.graphs.features import xavier_init
from repro.sparse import random_csr
from _helpers import make_xy, needs_cc


# ------------------------------------------------------------------ #
# Code generation
# ------------------------------------------------------------------ #
def test_supports_all_builtin_standard_patterns():
    for name in list_patterns():
        assert compiled_supports_pattern(get_pattern(name).resolved()), name


def test_does_not_support_user_operators():
    mlp = make_mlp_vop(xavier_init(8, 4, seed=0))
    pattern = get_pattern("gnn_mlp", vop=mlp).resolved()
    assert not compiled_supports_pattern(pattern)
    with pytest.raises(BackendError):
        generate_kernel_source(pattern)
    with pytest.raises(BackendError):
        get_compiled_kernel(pattern)


def test_generated_source_mentions_ops():
    source = generate_kernel_source(get_pattern("sigmoid_embedding").resolved())
    # the fused loop: dot product, shared-clamp sigmoid, scaled accumulation
    assert "double h = fmm_sigmoid(fmm_dot_f(xu, yv, d));" in source
    assert "acc[j] += h * (double)yv[j];" in source
    assert "#define FMM_SIGMOID_CLAMP 60.0" in source
    assert "VOP=MUL ROP=RSUM SOP=SIGMOID MOP=MUL AOP=ASUM" in source


def test_generated_source_fr_uses_difference():
    source = generate_kernel_source(get_pattern("fr_layout").resolved())
    assert "fmm_sqdist_f(xu, yv, d)" in source
    assert "force * (double)(xu[j] - yv[j])" in source  # MULDIFF uses x_u - y_v


@needs_cc
def test_compile_kernel_caches():
    clear_kernel_cache()
    assert kernel_cache_info()["cached_kernels"] == 0
    k1 = get_compiled_kernel(get_pattern("gcn").resolved())
    k2 = get_compiled_kernel(get_pattern("gcn").resolved())
    assert k1 is k2
    assert kernel_cache_info()["cached_kernels"] == 1


@needs_cc
def test_compiled_kernel_exposes_source():
    kernel = get_compiled_kernel(get_pattern("sigmoid_embedding").resolved())
    assert hasattr(kernel, "source")
    assert "VOP=MUL" in kernel.source


@needs_cc
def test_generated_kernel_correct_small():
    A = random_csr(50, 50, density=0.1, seed=1)
    X, Y = make_xy(A, 12, seed=0)
    for name in ["sigmoid_embedding", "fr_layout", "gcn"]:
        kernel = get_compiled_kernel(get_pattern(name).resolved())
        ref = fusedmm_generic(A, X, Y, pattern=name)
        assert np.allclose(kernel(A, X, Y, block_size=17), ref, atol=1e-3), name


@needs_cc
def test_generated_kernel_amax_pattern():
    pattern = get_pattern(None, vop="SEL2ND", mop="EDGESCALE", aop="AMAX").resolved()
    assert compiled_supports_pattern(pattern)
    A = random_csr(30, 30, density=0.1, seed=2)
    X, Y = make_xy(A, 6, seed=1)
    kernel = get_compiled_kernel(pattern)
    ref = fusedmm_generic(A, X, Y, pattern=get_pattern(None, vop="SEL2ND", mop="EDGESCALE", aop="AMAX"))
    assert np.allclose(kernel(A, X, Y), ref, atol=1e-4)


@needs_cc
def test_compiled_cache_is_private_and_a_hit_spawns_no_compiler(
    tmp_path, monkeypatch
):
    """The .so lands in a 0700 per-user cache; once there, a fresh process
    (simulated by dropping the in-process memo) loads it without running
    the compiler."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    resolved = get_pattern("fr_layout").resolved()
    A = random_csr(40, 40, density=0.1, seed=5)
    X, Y = make_xy(A, 9, seed=2)
    clear_kernel_cache()
    ref = get_compiled_kernel(resolved)(A, X, Y)
    directory = cache_dir()
    assert directory == str(tmp_path / "repro-fusedmm")
    assert stat.S_IMODE(os.stat(directory).st_mode) == 0o700
    files = os.listdir(directory)
    assert files and all(f.endswith(".so") for f in files)  # no temp left

    def no_compiler(*args, **kwargs):
        raise AssertionError("a cache hit must not spawn a subprocess")

    clear_kernel_cache()
    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert np.array_equal(get_compiled_kernel(resolved)(A, X, Y), ref)
    clear_kernel_cache()


def test_cache_falls_back_to_a_private_temp_dir(tmp_path, monkeypatch):
    """An unusable cache home (here: a regular file) falls back to a 0700
    per-user directory under the system temp dir."""
    import tempfile

    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    directory = cache_dir()
    assert os.path.dirname(directory) == str(tmp_path)
    assert os.path.basename(directory).startswith("repro-fusedmm-")
    assert stat.S_IMODE(os.stat(directory).st_mode) == 0o700


def test_no_compiler_disables_the_tier(monkeypatch):
    """``$CC`` naming no compiler: auto falls through, explicit refuses."""
    monkeypatch.setenv("CC", "/nonexistent/cc")
    clear_kernel_cache()
    resolved = get_pattern("sigmoid_embedding").resolved()
    assert resolve_backend(resolved, "auto")[0] != "compiled"
    with pytest.raises(BackendError):
        resolve_backend(resolved, "compiled")
    clear_kernel_cache()


# ------------------------------------------------------------------ #
# Autotuning
# ------------------------------------------------------------------ #
def test_autotune_returns_valid_config(small_square_csr):
    clear_tuning_cache()
    X, Y = make_xy(small_square_csr, 8, seed=0)
    result = autotune(small_square_csr, X, Y, pattern="sigmoid_embedding", repeats=1)
    assert result.strategy == "edge"
    assert result.block_size in DEFAULT_BLOCK_CANDIDATES
    assert result.best_time > 0
    assert set(result.trials) == {("edge", b) for b in DEFAULT_BLOCK_CANDIDATES}


def test_autotune_caches_results(small_square_csr):
    clear_tuning_cache()
    X, Y = make_xy(small_square_csr, 8, seed=0)
    r1 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1)
    before = tuning_cache_info()["cached_results"]
    r2 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1)
    assert r1 is r2
    assert tuning_cache_info()["cached_results"] == before


def test_autotune_cache_can_be_bypassed(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    r1 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1, use_cache=False)
    r2 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1, use_cache=False)
    assert r1 is not r2


def test_autotune_single_strategy(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    result = autotune(
        small_square_csr, X, Y, pattern="gcn", strategies=("edge",), block_candidates=(64, 256), repeats=1, use_cache=False
    )
    assert result.strategy == "edge"
    assert result.block_size in (64, 256)


def test_autotune_unknown_strategy(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    for strategy in ("magic", "row"):  # the row-blocked kernel is gone
        with pytest.raises(ValueError):
            autotune(
                small_square_csr,
                X,
                Y,
                strategies=(strategy,),
                repeats=1,
                use_cache=False,
            )


def test_autotune_result_as_dict(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    result = autotune(small_square_csr, X, Y, pattern="spmm", repeats=1, use_cache=False)
    d = result.as_dict()
    assert set(d) == {"strategy", "block_size", "best_time", "num_trials"}


@needs_cc
def test_compiled_bitwise_across_execution_paths():
    """One compiled kernel, many schedules: threads, worker shards, packed
    batches and out= slabs of either dtype all give the same bytes."""
    from repro.core import fusedmm
    from repro.runtime import KernelRequest, KernelRuntime

    A = random_csr(400, 400, density=0.03, seed=3)
    X, _ = make_xy(A, 20, seed=4)
    for pattern in ("sigmoid_embedding", "fr_layout", "gcn", "sddmm_dot"):
        opts = dict(pattern=pattern, backend="compiled")
        ref = fusedmm(A, X, X, num_threads=1, **opts)
        for threads in (2, 4):
            assert np.array_equal(fusedmm(A, X, X, num_threads=threads, **opts), ref)
        for dtype in (np.float32, np.float64):
            out = np.full((150, X.shape[1]), np.nan, dtype=dtype)
            fusedmm(A, X, X, out=out, row_offset=100, num_threads=2, **opts)
            assert np.array_equal(out.astype(np.float32), ref[100:250]), dtype
        with KernelRuntime(num_threads=2, processes=2) as rt:
            assert np.array_equal(rt.run_sharded(A, X, **opts), ref)
            req = KernelRequest(A, X, X, **opts)
            for Z in rt.run_batch([req, req]):
                assert np.array_equal(Z, ref)
