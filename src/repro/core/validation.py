"""Input validation shared by every FusedMM backend.

All kernels accept the same three operands as the paper (Fig. 2):

``A``  an ``m × n`` sparse adjacency slice (CSR),
``X``  an ``m × d`` dense matrix of source-vertex features,
``Y``  an ``n × d`` dense matrix of destination-vertex features,

and produce ``Z`` of shape ``m × d``.  This module centralises the shape
and dtype checks so the backends can assume well-formed inputs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import BackendError, DTypeError, ShapeError
from ..sparse import CSRMatrix, as_csr

__all__ = [
    "validate_operands",
    "validate_optional_x",
    "ensure_float_matrix",
    "resolve_out_window",
]


def ensure_float_matrix(arr: np.ndarray, name: str, *, dtype=np.float32) -> np.ndarray:
    """Return ``arr`` as a C-contiguous 2-D float array, converting integer
    inputs and rejecting anything else."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if np.issubdtype(arr.dtype, np.integer) or np.issubdtype(arr.dtype, np.bool_):
        arr = arr.astype(dtype)
    if not np.issubdtype(arr.dtype, np.floating):
        raise DTypeError(f"{name} must have a floating dtype, got {arr.dtype}")
    return np.ascontiguousarray(arr)


def resolve_out_window(
    out, row_offset: int, nrows: int, dim: int
) -> Tuple[int, int]:
    """Validate an ``out=``/``row_offset=`` pair against an ``nrows × dim``
    result and return the absolute row window ``[w0, w1)`` it covers.

    Every backend shares these semantics: row ``u`` of the result lands in
    ``out[u - row_offset]``, and when no explicit partition list is given
    the kernel computes exactly the window rows — which is what lets a
    shard worker hand in a view of its slice of the shared output segment
    instead of allocating a full ``(nrows, d)`` matrix.
    """
    if out is None:
        if row_offset:
            raise ShapeError("row_offset is only meaningful together with out=")
        return 0, nrows
    if not isinstance(out, np.ndarray) or out.ndim != 2:
        raise ShapeError(
            f"out must be a 2-D ndarray, got {type(out).__name__}"
        )
    if not np.issubdtype(out.dtype, np.floating):
        raise DTypeError(f"out must have a floating dtype, got {out.dtype}")
    if out.shape[1] != dim:
        raise ShapeError(
            f"out must have {dim} columns to match the feature dimension, "
            f"got {out.shape[1]}"
        )
    w0 = int(row_offset)
    w1 = w0 + out.shape[0]
    if w0 < 0 or w1 > nrows:
        raise ShapeError(
            f"out rows [{w0}, {w1}) fall outside the result rows [0, {nrows})"
        )
    return w0, w1


def validate_operands(A, X, Y=None) -> Tuple[CSRMatrix, np.ndarray, np.ndarray]:
    """Validate and canonicalise the (A, X, Y) operand triple.

    ``Y`` defaults to ``X`` when omitted and ``A`` is square — the common
    whole-graph case where source and destination features coincide.
    """
    A = as_csr(A)
    X = ensure_float_matrix(X, "X")
    if Y is None:
        if A.nrows != A.ncols:
            raise ShapeError(
                "Y may only be omitted for square A; got shape "
                f"{A.shape} — pass the full-vertex feature matrix explicitly"
            )
        Y = X
    else:
        Y = ensure_float_matrix(Y, "Y")
    if X.shape[0] != A.nrows:
        raise ShapeError(
            f"X must have one row per row of A: X has {X.shape[0]}, A has {A.nrows}"
        )
    if Y.shape[0] != A.ncols:
        raise ShapeError(
            f"Y must have one row per column of A: Y has {Y.shape[0]}, A has {A.ncols}"
        )
    if X.shape[1] != Y.shape[1]:
        raise ShapeError(
            f"X and Y must share the feature dimension: {X.shape[1]} != {Y.shape[1]}"
        )
    return A, X, Y


def validate_optional_x(
    A, X, Y, resolved
) -> Tuple[CSRMatrix, Optional[np.ndarray], np.ndarray]:
    """:func:`validate_operands`, except that ``X=None`` is accepted for
    SpMM-like patterns (they ignore the source features) and stays ``None``.

    ``resolved`` is the call's :class:`~repro.core.patterns.ResolvedPattern`;
    any other pattern without ``X`` raises
    :class:`~repro.errors.BackendError`.
    """
    if X is not None:
        return validate_operands(A, X, Y)
    if not resolved.is_spmm_like:
        raise BackendError(f"pattern {resolved.name!r} needs source features X")
    A = as_csr(A)
    Y = ensure_float_matrix(Y, "Y")
    if Y.shape[0] != A.ncols:
        raise ShapeError(
            f"Y must have one row per column of A: Y has {Y.shape[0]}, "
            f"A has {A.ncols}"
        )
    return A, None, Y
