"""Cross-backend equivalence tests — the core correctness property.

For every application pattern of Table III and a variety of graph shapes,
all kernel backends (reference Algorithm 1, the edge-blocked NumPy
kernel, compiled C, jit) and the unfused SDDMM→SpMM pipeline must produce
the same output up to floating-point tolerance.
"""

import numpy as np
import pytest

from repro.baselines import unfused_fusedmm
from repro.core import (
    compiled_available,
    fusedmm,
    fusedmm_generic,
    fusedmm_optimized,
    get_pattern,
)
from repro.core.compiled import compiled_supports_pattern, get_compiled_kernel
from repro.sparse import random_bipartite, random_csr
from _helpers import backend_params, make_xy, needs_cc

PATTERNS = ["sigmoid_embedding", "fr_layout", "gcn", "spmm", "sddmm_dot"]
ATOL = 1e-3


@pytest.fixture(scope="module")
def square_problem():
    A = random_csr(80, 80, density=0.07, seed=3)
    X, Y = make_xy(A, 24, seed=5)
    return A, X, Y


@pytest.fixture(scope="module")
def rect_problem():
    A = random_bipartite(30, 120, avg_degree=6, seed=4)
    X, Y = make_xy(A, 24, seed=6)
    return A, X, Y


@pytest.mark.parametrize("pattern", PATTERNS)
def test_edgeblocked_matches_generic(square_problem, pattern):
    A, X, Y = square_problem
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    out = fusedmm_optimized(A, X, Y, pattern=pattern, block_size=64)
    assert np.allclose(out, ref, atol=ATOL)


@needs_cc
@pytest.mark.parametrize("pattern", PATTERNS)
def test_generated_matches_generic(square_problem, pattern):
    A, X, Y = square_problem
    resolved = get_pattern(pattern).resolved()
    assert compiled_supports_pattern(resolved)
    kernel = get_compiled_kernel(resolved)
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    assert np.allclose(kernel(A, X, Y, block_size=128), ref, atol=ATOL)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_unfused_pipeline_matches_generic(square_problem, pattern):
    A, X, Y = square_problem
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    out = unfused_fusedmm(A, X, Y, pattern=pattern)
    assert np.allclose(out, ref, atol=ATOL)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_rectangular_operands_all_backends(rect_problem, pattern):
    A, X, Y = rect_problem
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    for backend in ["optimized", "auto"] + ["compiled"] * compiled_available():
        out = fusedmm(A, X, Y, pattern=pattern, backend=backend)
        assert np.allclose(out, ref, atol=ATOL), backend
    assert np.allclose(unfused_fusedmm(A, X, Y, pattern=pattern), ref, atol=ATOL)


@pytest.mark.parametrize("pattern", ["sigmoid_embedding", "gcn"])
def test_empty_rows_are_zero(pattern):
    # Matrix with several empty rows exercises the empty-row handling of
    # every backend.
    A = random_csr(50, 50, density=0.02, seed=9)
    X, Y = make_xy(A, 8, seed=0)
    empty_rows = A.row_degrees() == 0
    assert empty_rows.any(), "fixture should contain empty rows"
    backends = ["generic", "optimized", "auto"] + ["compiled"] * compiled_available()
    for backend in backends:
        Z = fusedmm(A, X, Y, pattern=pattern, backend=backend)
        assert np.allclose(Z[empty_rows], 0.0), backend


def test_gnn_mlp_pattern_all_backends():
    from repro.core import make_mlp_vop
    from repro.graphs.features import xavier_init

    A = random_csr(40, 40, density=0.1, seed=2)
    X, Y = make_xy(A, 12, seed=1)
    mlp = make_mlp_vop(xavier_init(24, 12, seed=3))
    pattern = get_pattern("gnn_mlp", vop=mlp)
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    assert np.allclose(fusedmm_optimized(A, X, Y, pattern=pattern), ref, atol=ATOL)
    assert np.allclose(fusedmm(A, X, Y, pattern=pattern, backend="auto"), ref, atol=ATOL)


def test_amax_aggregation_equivalence():
    # AMAX exercises the non-sum accumulator path in every backend.
    A = random_csr(60, 60, density=0.08, seed=12)
    X, Y = make_xy(A, 10, seed=2)
    pattern = get_pattern(None, vop="MUL", rop="NOOP", sop="RELU", mop="NOOP", aop="AMAX")
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    out = fusedmm_optimized(A, X, Y, pattern=pattern, block_size=32)
    assert np.allclose(out, ref, atol=ATOL)
    assert np.allclose(unfused_fusedmm(A, X, Y, pattern=pattern), ref, atol=ATOL)


def test_weighted_graph_gcn_uses_edge_values():
    # GCN output must depend on the edge weights (EDGESCALE), not just the
    # structure.
    A = random_csr(30, 30, density=0.15, seed=4, value_range=(0.5, 2.0))
    X, Y = make_xy(A, 6, seed=3)
    Z = fusedmm(A, X, Y, pattern="gcn")
    ones = A.copy()
    ones.data = np.ones_like(ones.data)
    Z_unweighted = fusedmm(ones, X, Y, pattern="gcn")
    assert not np.allclose(Z, Z_unweighted)


def test_thread_count_does_not_change_result(medium_graph_csr):
    A = medium_graph_csr
    X, Y = make_xy(A, 16, seed=7)
    base = fusedmm(A, X, Y, pattern="sigmoid_embedding", backend="optimized", num_threads=1)
    for threads in (2, 4):
        out = fusedmm(A, X, Y, pattern="sigmoid_embedding", backend="optimized", num_threads=threads)
        assert np.allclose(out, base, atol=1e-5)


def test_block_size_does_not_change_result(square_problem):
    A, X, Y = square_problem
    ref = fusedmm_optimized(A, X, Y, pattern="sigmoid_embedding", block_size=7)
    for block in (1, 16, 1024, 10**6):
        out = fusedmm_optimized(A, X, Y, pattern="sigmoid_embedding", block_size=block)
        assert np.allclose(out, ref, atol=1e-5)


# ------------------------------------------------------------------ #
# Numerics contract: every backend against the generic oracle
# ------------------------------------------------------------------ #
def _numerics_cases():
    """``id -> (A, X, Y, patterns)`` edge-case inputs."""
    import scipy.sparse as sp

    cases = {}
    # Empty rows and isolated vertices (columns nobody points at).
    A = random_csr(50, 50, density=0.02, seed=9)
    assert (A.row_degrees() == 0).any()
    assert np.setdiff1d(np.arange(50), A.indices).size
    X, Y = make_xy(A, 8, seed=0)
    cases["empty_rows"] = (A, X, Y, PATTERNS + ["gnn_mlp"])
    # Sigmoid scores at and past the clamp: x_u . y_0 == t exactly.
    scores = np.array([60.0, -60.0, 61.0, -61.0, np.inf, -np.inf, 0.0])
    X = np.zeros((scores.size, 3), dtype=np.float32)
    X[:, 0] = scores
    Y = np.array([[1.0, 0.0, 0.0], [0.5, 0.25, 2.0]], dtype=np.float32)
    A = sp.csr_matrix(
        (np.ones(scores.size), (np.arange(scores.size), np.zeros(scores.size, int))),
        shape=(scores.size, 2),
    )
    cases["sigmoid_clamp"] = (A, X, Y, ["sigmoid_embedding"])
    # NaN in X: Y = X, so NaN reaches both sides of the dot product.
    A = random_csr(60, 60, density=0.08, seed=12)
    X, _ = make_xy(A, 8, seed=3)
    X = X.copy()
    X[[3, 17], [1, 5]] = np.nan
    cases["nan"] = (A, X, X, ["sigmoid_embedding", "fr_layout", "gcn", "gnn_mlp"])
    # int32 indices (scipy's default) and a float64 operand.
    A = random_csr(40, 40, density=0.1, seed=4).to_scipy()
    A = sp.csr_matrix(
        (A.data, A.indices.astype(np.int32), A.indptr.astype(np.int32)), shape=A.shape
    )
    X = np.random.default_rng(1).standard_normal((40, 6))
    cases["int32_indices"] = (A, X, X, PATTERNS)
    # Non-contiguous and Fortran-ordered operands.
    A = random_csr(30, 45, density=0.1, seed=6)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 14)).astype(np.float32)[:, ::2]
    Y = np.asfortranarray(rng.standard_normal((45, 7)).astype(np.float32))
    cases["strided_fortran"] = (A, X, Y, PATTERNS)
    # float32 fr_layout overflow: ||x_u - y_v||^2 overflows (|x| ~ 1e20)
    # and the difference itself overflows (+-3e38).
    cases["fr_overflow"] = (*FR_OVERFLOW, ["fr_layout"])
    return cases


def _fr_overflow():
    """``(A, X, Y)``: row 0 only overflows the squared distance, rows 1
    and 3 overflow the difference, row 2 has one finite edge and one whose
    squared distance overflows."""
    import scipy.sparse as sp

    X = np.array([[1e20, 1e20], [3e38, 0], [0.5, 0.5], [-3e38, 1]], dtype=np.float32)
    Y = np.array([[-1e20, 0], [-3e38, 0], [1, 1], [3e38, 1]], dtype=np.float32)
    rows, cols = [0, 1, 2, 2, 3], [0, 1, 2, 0, 3]
    A = sp.csr_matrix((np.ones(5), (rows, cols)), shape=(4, 4))
    return A, X, Y


FR_OVERFLOW = _fr_overflow()


NUMERICS_CASES = _numerics_cases()


@pytest.mark.parametrize("case", sorted(NUMERICS_CASES))
@pytest.mark.parametrize("backend", backend_params())
def test_numerics_contract(backend, case):
    """Every backend runs every pattern of the edge cases and matches the
    generic oracle (rtol 1e-4), with NaN in exactly the same places."""
    A, X, Y, patterns = NUMERICS_CASES[case]
    for pattern in patterns:
        with np.errstate(over="ignore", invalid="ignore"):  # extreme inputs
            ref = fusedmm(A, X, Y, pattern=pattern, backend="generic")
            Z = fusedmm(A, X, Y, pattern=pattern, backend=backend)
        assert Z.shape == ref.shape and Z.dtype == ref.dtype, pattern
        np.testing.assert_allclose(
            Z, ref, rtol=1e-4, atol=1e-6, equal_nan=True, err_msg=pattern
        )


def test_fr_overflow_oracle_values():
    """What the fr_overflow case pins: an infinite difference gives NaN
    (0 force times an infinite direction), an overflowing squared distance
    alone gives a zero force."""
    A, X, Y = FR_OVERFLOW
    with np.errstate(over="ignore", invalid="ignore"):
        Z = fusedmm(A, X, Y, pattern="fr_layout", backend="generic")
    assert Z.dtype == np.float32
    assert np.isnan(Z[1, 0]) and np.isnan(Z[3, 0])
    assert np.array_equal(Z[[1, 3], 1], [0.0, 0.0])
    assert np.array_equal(Z[0], [0.0, 0.0])
    # row 2: only the finite edge to y_2 contributes, (x - y) / (1 + |x - y|^2)
    np.testing.assert_allclose(Z[2], [-1 / 3, -1 / 3], rtol=1e-6)
