"""Vectorized NumPy FusedMM kernel (the paper's "FusedMMopt").

The paper obtains its optimized kernel by (a) register-blocking ``x_u`` and
``z_u`` in SIMD registers, (b) streaming the neighbour vectors ``y_v``
through the registers, and (c) writing ``z_u`` once per row with
non-temporal stores (Section IV.A, Fig. 5).  The NumPy analogue of those
ideas is *edge blocking* (:func:`fusedmm_optimized`): edges are processed
in fixed-size blocks; for each block the source and destination features
are gathered, the five steps run vectorized over the block, and the block
results are segment-reduced into ``Z`` using the CSR ordering (edges of
the same row are contiguous, so ``np.ufunc.reduceat`` on the row-change
boundaries does the aggregation without materialising anything larger
than the block).  The intermediate footprint is ``O(block_size × d)``
**independent of nnz** — this is what preserves the paper's memory-
advantage claim (Fig. 10b) relative to the unfused baselines, which hold
the full ``nnz × d`` message matrix H.

The kernel accepts any operator pattern via the registry's batched
callables, runs over 1-D nnz-balanced partitions, and is property-tested
against the reference kernel of :mod:`repro.core.generic`.  It is the
NumPy fallback ``auto`` runs where neither a C compiler nor numba exists.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from .parallel import ParallelConfig, run_partitioned
from .partition import RowPartition
from .patterns import OpPattern, ResolvedPattern, get_pattern
from .validation import resolve_out_window, validate_optional_x

__all__ = ["DEFAULT_BLOCK_SIZE", "fusedmm_optimized"]


# ---------------------------------------------------------------------- #
# Shared ``out=``/``row_offset=`` plumbing
# ---------------------------------------------------------------------- #
def _window_parts(A, w0: int, w1: int, parts, num_parts: int = 1):
    """The partition list for a windowed call: the caller's, or an
    nnz-balanced split of exactly the window rows (``None`` keeps the
    kernel's default full-matrix partitioning).

    The window is split into up to ``num_parts`` contiguous pieces so a
    windowed ``out=`` call still fans out over the thread pool.  Any row
    partitioning yields bitwise-identical results (edge blocks align to
    the absolute edge grid), so the split count is free to follow the
    thread count here.
    """
    if parts is not None:
        return parts
    if w0 == 0 and w1 == A.nrows:
        return None
    indptr = A.indptr
    nnz_lo, nnz_hi = int(indptr[w0]), int(indptr[w1])
    total = nnz_hi - nnz_lo
    n = max(1, min(int(num_parts), w1 - w0))
    bounds = [w0]
    for i in range(1, n):
        target = nnz_lo + (total * i) // n
        cut = int(np.searchsorted(indptr, target, side="left"))
        bounds.append(min(max(cut, bounds[-1]), w1))
    bounds.append(w1)
    return [
        RowPartition(a, b, int(indptr[b] - indptr[a]))
        for a, b in zip(bounds, bounds[1:])
        if b > a
    ]


def _alloc_accumulator(out, w0: int, w1: int, d: int, identity: float) -> np.ndarray:
    """The float64 accumulation buffer for the window ``[w0, w1)``.

    When ``out`` itself is a contiguous float64 array it is used directly
    (zero extra allocation); otherwise a window-sized scratch is created —
    never a full ``(nrows, d)`` matrix.  Accumulating in float64 and
    casting once at the end is what keeps ``out=`` results bitwise equal
    to the plain path.
    """
    if out is not None and out.dtype == np.float64 and out.flags["C_CONTIGUOUS"]:
        out[...] = identity
        return out
    if identity == 0.0:
        return np.zeros((w1 - w0, d), dtype=np.float64)
    return np.full((w1 - w0, d), identity, dtype=np.float64)


def _finalize_output(Z: np.ndarray, out, result_dtype) -> np.ndarray:
    """Cast the float64 accumulator into ``out`` (or a fresh result)."""
    if out is None:
        return Z.astype(result_dtype)
    if Z is not out:
        out[...] = Z
    return out


#: Default number of edges per block for the edge-blocked kernel.  Chosen so
#: a block of d=128 single-precision messages (~4 MB) fits in the last-level
#: cache of the machines in Table IV; the autotuner refines it per problem.
DEFAULT_BLOCK_SIZE = 8192

#: VOPs whose output does not depend on the source features.
_X_FREE_VOPS = ("SEL2ND", "NOOP")


# ---------------------------------------------------------------------- #
# Shared step executor (batched)
# ---------------------------------------------------------------------- #
def _run_steps_batch(
    pattern: ResolvedPattern,
    Xs: np.ndarray,
    Yd: np.ndarray,
    vals: np.ndarray,
) -> np.ndarray:
    """Run VOP → ROP → SOP → MOP over a batch of edges.

    ``Xs`` and ``Yd`` are the gathered ``(k, d)`` source/destination feature
    blocks (``Xs`` is ``None`` when the VOP ignores the source features),
    ``vals`` the ``(k,)`` edge values.  Returns the per-edge messages ``M``
    with shape ``(k, d)`` or ``(k,)``.
    """
    vop, rop, sop, mop = pattern.vop, pattern.rop, pattern.sop, pattern.mop
    W = Yd if vop.is_noop else vop.batch_fn(Xs, Yd, vals)
    S = W if rop.is_noop else rop.batch_fn(W)
    H = S if sop.is_noop else sop.batch_fn(S)
    M = H if mop.is_noop else mop.batch_fn(H, Yd, vals, W)
    return M


def _edge_block_ranges(lo: int, hi: int, block_size: int):
    """Yield ``[start, stop)`` edge ranges of at most ``block_size`` edges.

    Block boundaries are aligned to the *absolute* edge grid (multiples of
    ``block_size``), not to ``lo``: a row's edges are therefore chunked
    identically no matter which partition it lands in, which is what makes
    the partition-parallel results bitwise identical across thread counts
    (the invariant promised in :mod:`repro.core.parallel`).  For ``lo == 0``
    this is the plain fixed-size chunking.
    """
    start = lo
    while start < hi:
        stop = min((start // block_size + 1) * block_size, hi)
        yield start, stop
        start = stop


def fusedmm_optimized(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    block_size: int = DEFAULT_BLOCK_SIZE,
    num_threads: int = 1,
    parts_per_thread: int = 1,
    parts: Optional[Sequence[RowPartition]] = None,
    pool: Optional[ThreadPoolExecutor] = None,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
    **pattern_overrides,
) -> np.ndarray:
    """FusedMM processing edges in fixed-size blocks with segment reduction.

    The intermediate arrays never exceed ``block_size × d`` elements, so the
    memory footprint stays flat in nnz and in d per block — the fused-kernel
    property the paper exploits (Section II, "The need for a fused kernel").
    ``X`` may be ``None`` for SpMM-like patterns; a VOP that ignores the
    source features (``SEL2ND``, ``NOOP``) skips the ``X`` gather.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    resolved = get_pattern(pattern, **pattern_overrides).resolved()
    A, X, Y = validate_optional_x(A, X, Y, resolved)
    gather_x = X is not None and resolved.vop.name not in _X_FREE_VOPS
    m, d = A.nrows, Y.shape[1]
    w0, w1 = resolve_out_window(out, row_offset, m, d)
    parts = _window_parts(
        A, w0, w1, parts, ParallelConfig(num_threads, parts_per_thread).num_parts
    )
    identity = resolved.aop.accumulator_identity
    aop_ufunc = resolved.aop.accumulate_ufunc
    use_sum = resolved.aop.name == "ASUM"
    Z = _alloc_accumulator(out, w0, w1, d, 0.0 if use_sum else identity)
    indptr, indices, data = A.indptr, A.indices, A.data
    # Row id of every edge, computed once: CSR guarantees these are sorted.
    edge_rows = np.repeat(np.arange(m, dtype=np.int64), A.row_degrees())

    def kernel(part: RowPartition, z_slice: np.ndarray) -> None:
        lo, hi = int(indptr[part.start]), int(indptr[part.stop])
        for e0, e1 in _edge_block_ranges(lo, hi, block_size):
            src = edge_rows[e0:e1]
            dst = indices[e0:e1]
            vals = data[e0:e1]
            Xs = X[src] if gather_x else None
            Yd = Y[dst]
            M = _run_steps_batch(resolved, Xs, Yd, vals)
            M = np.atleast_1d(M)
            if M.ndim == 1:
                M = M[:, None]
            # Segment-reduce the block: edges of the same row are contiguous.
            change = np.flatnonzero(np.diff(src)) + 1
            starts = np.concatenate(([0], change))
            seg_rows = src[starts] - part.start
            if use_sum:
                seg = np.add.reduceat(M, starts, axis=0)
                z_slice[seg_rows] += seg
            else:
                seg = aop_ufunc.reduceat(M, starts, axis=0)
                z_slice[seg_rows] = aop_ufunc(z_slice[seg_rows], seg)

    run_partitioned(
        A, Z, kernel, config=ParallelConfig(num_threads, parts_per_thread),
        parts=parts, pool=pool, row_offset=w0,
    )
    if not use_sum:
        # Rows that never received a message hold the accumulator identity
        # (±inf); normalise them to zero like every other backend.
        empty = A.row_degrees()[w0:w1] == 0
        if np.any(empty):
            Z[empty] = 0.0
    return _finalize_output(Z, out, (Y if X is None else X).dtype)
