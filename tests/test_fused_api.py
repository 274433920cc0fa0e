"""Unit tests for the public fusedmm() dispatcher and the FusedMM class."""

import numpy as np
import pytest

from repro import FusedMM, fusedmm
from repro.core import BACKENDS, compiled_available
from repro.core.fused import _Plan  # noqa: F401 - ensure private import works
from repro.errors import BackendError
from repro.sparse import random_csr
from _helpers import backend_params, make_xy


@pytest.fixture(scope="module")
def problem():
    A = random_csr(100, 100, density=0.05, seed=8)
    X, Y = make_xy(A, 16, seed=1)
    return A, X, Y


def test_all_backends_listed():
    assert set(BACKENDS) == {
        "auto",
        "compiled",
        "jit",
        "generic",
        "optimized",
    }


@pytest.mark.parametrize("backend", backend_params())
def test_every_backend_runs_embedding(problem, backend):
    A, X, Y = problem
    Z = fusedmm(A, X, Y, pattern="sigmoid_embedding", backend=backend)
    assert Z.shape == X.shape
    assert np.isfinite(Z).all()


def test_unknown_backend_rejected(problem):
    A, X, Y = problem
    with pytest.raises(BackendError):
        fusedmm(A, X, Y, backend="cuda")


def test_generated_backend_requires_templates(problem):
    """The compiled backend emits only registry operators: a user operator
    is refused (with or without a compiler on the host)."""
    from repro.core import make_mlp_vop
    from repro.graphs.features import xavier_init

    A, X, Y = problem
    mlp = make_mlp_vop(xavier_init(32, 16, seed=0))
    with pytest.raises(BackendError):
        fusedmm(A, X, Y, pattern="gnn_mlp", vop=mlp, backend="compiled")


def test_auto_falls_back_for_user_ops(problem):
    from repro.core import make_mlp_vop
    from repro.graphs.features import xavier_init

    A, X, Y = problem
    mlp = make_mlp_vop(xavier_init(32, 16, seed=0))
    Z = fusedmm(A, X, Y, pattern="gnn_mlp", vop=mlp, backend="auto")
    assert Z.shape == X.shape


def test_pattern_overrides_via_kwargs(problem):
    A, X, Y = problem
    Z_relu = fusedmm(A, X, Y, pattern="sigmoid_embedding", sop="RELU")
    Z_sig = fusedmm(A, X, Y, pattern="sigmoid_embedding")
    assert not np.allclose(Z_relu, Z_sig)


def test_accepts_scipy_and_dense_inputs(problem):
    A, X, Y = problem
    Z_csr = fusedmm(A, X, Y, pattern="gcn")
    Z_scipy = fusedmm(A.to_scipy(), X, Y, pattern="gcn")
    Z_dense = fusedmm(A.to_dense(), X, Y, pattern="gcn")
    assert np.allclose(Z_csr, Z_scipy, atol=1e-5)
    assert np.allclose(Z_csr, Z_dense, atol=1e-5)
    # SpMM-like patterns ignore X, so it may be omitted; fusedmm() and the
    # runtime accept that alike.
    from repro.runtime import KernelRuntime

    with KernelRuntime(num_threads=1) as rt:
        backends = ("auto", "jit", "optimized") + ("compiled",) * compiled_available()
        for backend in backends:
            for pattern in ("gcn", "spmm"):
                opts = dict(pattern=pattern, backend=backend)
                ref = fusedmm(A, Y, Y, **opts)
                assert np.array_equal(fusedmm(A, None, Y, **opts), ref), opts
                assert np.array_equal(rt.run(A, None, Y, **opts), ref), opts


# ------------------------------------------------------------------ #
# FusedMM planned-kernel class
# ------------------------------------------------------------------ #
def test_fusedmm_class_basic(problem):
    A, X, Y = problem
    kernel = FusedMM(A, pattern="sigmoid_embedding")
    Z = kernel(X, Y)
    assert np.allclose(Z, fusedmm(A, X, Y, pattern="sigmoid_embedding"), atol=1e-5)


def test_fusedmm_class_square_y_defaults(problem):
    A, X, _ = problem
    kernel = FusedMM(A, pattern="gcn")
    Z = kernel(X)
    assert Z.shape == X.shape


def test_fusedmm_class_describe(problem):
    A, X, Y = problem
    kernel = FusedMM(A, pattern="gcn", num_threads=2)
    info = kernel.describe()
    assert info["pattern"] == "gcn"
    assert info["num_threads"] == 2
    assert info["nnz"] == A.nnz
    assert info["partitions"] == 2


def test_fusedmm_class_autotune(problem):
    A, X, Y = problem
    kernel = FusedMM(A, pattern="sigmoid_embedding", autotune=True, autotune_dim=8)
    info = kernel.describe()
    assert "tuning" in info
    # A NumPy winner runs the NumPy kernel at the swept block size; a
    # compiled tier that wins the sweep is pinned.
    won = kernel.plan.tuning.strategy
    if won == "edge":
        assert kernel.plan.kind == "optimized"
        assert kernel.plan.block_size == kernel.plan.tuning.block_size
    else:
        assert (kernel.plan.kind, kernel.plan.backend) == (won, won)
    Z = kernel(X, Y)
    assert np.allclose(Z, fusedmm(A, X, Y, pattern="sigmoid_embedding"), atol=1e-4)


def test_fusedmm_class_unknown_backend(problem):
    A, _, _ = problem
    with pytest.raises(BackendError):
        FusedMM(A, backend="gpu")


def test_fusedmm_class_repr(problem):
    A, _, _ = problem
    assert "FusedMM" in repr(FusedMM(A))


def test_autotune_demotes_jit_like_the_runtime(problem, monkeypatch):
    """When the sweep measures the NumPy kernels faster than jit, auto's
    jit preference is dropped by FusedMM exactly as by rt.plan."""
    import repro.core.jit as jitmod
    from repro.runtime import KernelRuntime

    A, X, Y = problem
    calls = []
    real_jit = jitmod.fusedmm_jit

    def spy(*args, **kwargs):
        calls.append(1)
        return real_jit(*args, **kwargs)

    # Without numba the jit candidate runs interpreted and loses the sweep.
    monkeypatch.setattr(jitmod, "NUMBA_AVAILABLE", True)
    monkeypatch.setattr(jitmod, "fusedmm_jit", spy)
    kernel = FusedMM(A, backend="auto", autotune=True, autotune_dim=8)
    with KernelRuntime(num_threads=1, autotune=True, autotune_dim=8) as rt:
        plan = rt.plan(A, backend="auto")
        Z_rt = rt.run(A, X, Y, backend="auto")
    assert kernel.plan.tuning.strategy == plan.tuning.strategy
    assert kernel.plan.kind == plan.kind
    calls.clear()
    Z = kernel(X, Y)
    assert bool(calls) == (plan.kind == "jit")
    assert np.array_equal(Z, Z_rt)
