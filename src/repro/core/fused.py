"""Public FusedMM entry points and the one backend dispatcher.

Two levels of API are provided:

* :func:`fusedmm` — one-shot functional call ``Z = fusedmm(A, X, Y,
  pattern=...)`` with backend selection, matching the paper's
  ``Z = FusedMM(A, X, Y)`` formulation (Fig. 2).
* :class:`FusedMM` — a planned/reusable kernel object: the pattern and
  backend are resolved once, the partitioning and (optionally) the
  autotuned block size are computed once, and every subsequent
  ``__call__`` reuses them.  This is the shape of API an embedding
  training loop wants: the adjacency matrix is fixed across epochs, only
  the feature matrices change.

Both, and the runtime's :class:`~repro.runtime.plan.KernelPlan`, dispatch
through this module alone: :func:`resolve_backend` picks ``(kind,
kernel)``, :func:`run_kernel` executes it and :func:`autotune_backend`
pins or demotes the compiled tiers (``compiled``, ``jit``) by a measured
sweep.

Backends
--------
``"generic"``      the faithful Algorithm 1 reference (paper's "FusedMM")
``"optimized"``    the vectorized edge-blocked NumPy kernel (paper's
                   "FusedMMopt"); runs every pattern
``"compiled"``     C kernels emitted from the pattern's opcodes and built
                   with the system compiler (Section IV.B,
                   :mod:`repro.core.compiled`); needs ``$CC`` or ``cc``
``"jit"``          Numba-compiled row-fused kernels (:mod:`repro.core.jit`);
                   runs interpreted when the optional numba extra is absent
``"auto"``         compiled (only when a C compiler is found) → jit (only
                   when numba is importable) → optimized → generic, first
                   backend that supports the pattern wins

All backends share the ``out=``/``row_offset=`` output surface: pass a
preallocated ``(k, d)`` slab and row ``u`` of the result lands in
``out[u - row_offset]`` — the shard workers use this to write straight
into shared memory.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import BackendError, CodegenError
from ..sparse import CSRMatrix, as_csr
from . import jit as jit_backend
from .autotune import TuningResult, autotune
from .compiled import compiled_available, compiled_supports_pattern, get_compiled_kernel
from .generic import fusedmm_generic
from .optimized import DEFAULT_BLOCK_SIZE, fusedmm_optimized
from .partition import RowPartition, part1d
from .patterns import OpPattern, ResolvedPattern, get_pattern

__all__ = [
    "fusedmm",
    "FusedMM",
    "BACKENDS",
    "check_backend",
    "resolve_backend",
    "run_kernel",
    "autotune_backend",
]

BACKENDS = ("auto", "compiled", "jit", "generic", "optimized")

#: The backends a sweep pins or demotes (they have no edge-block size).
COMPILED_TIERS = ("compiled", "jit")


def _tier_kernel(tier: str, resolved: ResolvedPattern) -> Callable:
    if tier == "compiled":
        return get_compiled_kernel(resolved)
    return jit_backend.get_jit_kernel(resolved)


def _auto_tiers(resolved: ResolvedPattern) -> Tuple[str, ...]:
    """The compiled tiers ``auto`` tries for ``resolved``, in order: each
    only when its toolchain is present (a C compiler, numba) and the
    pattern maps onto its opcodes.  An explicit backend="jit" still runs
    interpreted without numba, so its semantics stay testable everywhere.
    """
    tiers = []
    if compiled_available() and compiled_supports_pattern(resolved):
        tiers.append("compiled")
    if jit_backend.jit_available() and jit_backend.jit_supports_pattern(resolved):
        tiers.append("jit")
    return tuple(tiers)


def check_backend(backend: str) -> None:
    """Raise :class:`~repro.errors.BackendError` unless ``backend`` is one
    of :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise BackendError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def resolve_backend(
    resolved: ResolvedPattern, backend: str = "auto", *, allow_compiled: bool = True
) -> Tuple[str, Optional[Callable]]:
    """Resolve ``backend`` for a pattern; returns ``(kind, kernel)``.

    ``kind`` is the backend that will run — ``"compiled"``, ``"jit"``,
    ``"optimized"`` or ``"generic"`` — and ``kernel`` the concrete
    callable for the first two (``None`` otherwise).  An
    explicit backend that cannot run the pattern raises
    :class:`~repro.errors.BackendError`; ``auto`` falls through to the
    next tier instead.  ``allow_compiled=False`` skips the compiled tiers
    for ``auto`` (the autotuner measured the NumPy kernel as faster).
    """
    check_backend(backend)
    if backend == "generic":
        return "generic", None
    if backend in COMPILED_TIERS:
        return backend, _tier_kernel(backend, resolved)
    if backend == "auto" and allow_compiled:
        for tier in _auto_tiers(resolved):
            try:
                return tier, _tier_kernel(tier, resolved)
            except CodegenError:
                pass  # the compiler rejected the source: take the next tier
    return "optimized", None


def run_kernel(
    kind: str,
    kernel: Optional[Callable],
    op_pattern: OpPattern,
    A,
    X,
    Y=None,
    *,
    backend: str = "auto",
    block_size: Optional[int] = None,
    num_threads: int = 1,
    parts: Optional[Sequence[RowPartition]] = None,
    pool: Optional[ThreadPoolExecutor] = None,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
) -> np.ndarray:
    """Execute a ``(kind, kernel)`` pair from :func:`resolve_backend`.

    ``X=None`` is accepted for SpMM-like patterns (they ignore the source
    features) by every backend but ``generic``.  ``parts``/``pool`` hand
    the caller's partition list and thread pool to the partitioned
    kernels.  When the optimized kernel fails on an exotic user operator,
    ``backend="auto"`` falls back to the reference kernel, which always
    works; an explicit ``backend="optimized"`` re-raises, and so does a
    call without ``X`` (the reference kernel needs it).
    """
    kwargs = dict(
        block_size=block_size or DEFAULT_BLOCK_SIZE,
        num_threads=num_threads,
        parts=parts,
        pool=pool,
        out=out,
        row_offset=row_offset,
    )
    if kind == "optimized":
        try:
            return fusedmm_optimized(A, X, Y, pattern=op_pattern, **kwargs)
        except Exception:
            if backend == "optimized" or X is None:
                raise
    elif kind != "generic":
        return kernel(A, X, Y, **kwargs)
    return fusedmm_generic(A, X, Y, pattern=op_pattern, out=out, row_offset=row_offset)


def autotune_backend(
    A: CSRMatrix,
    op_pattern: OpPattern,
    backend: str,
    *,
    num_threads: int = 1,
    dim: int = 128,
) -> Tuple[str, Optional[Callable], TuningResult]:
    """Sweep the edge-block sizes of the NumPy kernel (and, for ``auto``,
    the compiled tiers) on synthetic features of dimension ``dim``; the
    adjacency is what matters for the access pattern.

    Returns ``(kind, kernel, tuning)``.  A winning compiled or jit trial
    pins that kernel.  When the NumPy kernel wins, ``auto`` resolves
    without the compiled tiers; an explicit backend, ``"jit"`` or
    ``"compiled"`` included, is kept.  The swept edge-block size is
    ``tuning.block_size``.
    """
    rng = np.random.default_rng(0)
    X = rng.standard_normal((A.nrows, dim)).astype(np.float32)
    Y = (
        X
        if A.nrows == A.ncols
        else rng.standard_normal((A.ncols, dim)).astype(np.float32)
    )
    resolved = op_pattern.resolved()
    # The compiled tiers only compete where auto would consider them.
    tiers = _auto_tiers(resolved) if backend == "auto" else ()
    tuning = autotune(
        A,
        X,
        Y,
        pattern=op_pattern,
        num_threads=num_threads,
        strategies=("edge", *tiers),
    )
    if tuning.strategy in COMPILED_TIERS:
        kind, kernel = resolve_backend(resolved, tuning.strategy)
    else:
        kind, kernel = resolve_backend(resolved, backend, allow_compiled=False)
    return kind, kernel, tuning


def fusedmm(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    backend: str = "auto",
    num_threads: int = 1,
    block_size: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
    **pattern_overrides,
) -> np.ndarray:
    """Compute ``Z = FusedMM(A, X, Y)`` for the requested operator pattern.

    Parameters
    ----------
    A:
        Sparse adjacency slice (anything :func:`repro.sparse.as_csr`
        accepts): ``m × n``.
    X:
        ``m × d`` source-vertex features; may be ``None`` for SpMM-like
        patterns (``"gcn"``, ``"spmm"``), which ignore it.
    Y:
        ``n × d`` destination-vertex features; defaults to ``X`` when ``A``
        is square.
    pattern:
        Pattern name (``"sigmoid_embedding"``, ``"fr_layout"``, ``"gcn"``,
        ``"gnn_mlp"``, ``"spmm"``, …), an
        :class:`~repro.core.patterns.OpPattern`, or ``None`` with explicit
        ``vop=...``/``rop=...``/... keyword overrides.
    backend:
        One of :data:`BACKENDS`.
    num_threads:
        Worker threads for the partition-parallel backends.
    block_size:
        Edge-block size override for the optimized backend.
    out, row_offset:
        Optional preallocated output slab shared by every backend: row
        ``u`` of the result is written to ``out[u - row_offset]`` and only
        the covered rows are computed.

    Returns
    -------
    numpy.ndarray
        The ``m × d`` updated feature matrix ``Z``.
    """
    op_pattern = get_pattern(pattern, **pattern_overrides)
    kind, kernel = resolve_backend(op_pattern.resolved(), backend)
    return run_kernel(
        kind,
        kernel,
        op_pattern,
        A,
        X,
        Y,
        backend=backend,
        block_size=block_size,
        num_threads=num_threads,
        out=out,
        row_offset=row_offset,
    )


@dataclass
class _Plan:
    """Execution plan cached by :class:`FusedMM`."""

    backend: str
    block_size: int
    num_threads: int
    tuning: Optional[TuningResult] = None
    #: the resolved backend that runs (see :func:`resolve_backend`)
    kind: str = "optimized"
    kernel: Optional[Callable] = field(default=None, repr=False)


class FusedMM:
    """A planned, reusable FusedMM kernel bound to one adjacency matrix.

    Example
    -------
    >>> from repro import FusedMM
    >>> from repro.graphs import load_dataset, random_features
    >>> g = load_dataset("cora")
    >>> X = random_features(g.num_vertices, 64, seed=0)
    >>> kernel = FusedMM(g.adjacency, pattern="sigmoid_embedding", autotune=False)
    >>> Z = kernel(X)          # Y defaults to X for square A
    >>> Z.shape
    (2708, 64)
    """

    def __init__(
        self,
        A,
        *,
        pattern: OpPattern | str = "sigmoid_embedding",
        backend: str = "auto",
        num_threads: int = 1,
        block_size: Optional[int] = None,
        autotune: bool = False,
        autotune_dim: int = 128,
        **pattern_overrides,
    ) -> None:
        self.A: CSRMatrix = as_csr(A)
        self.pattern: OpPattern = get_pattern(pattern, **pattern_overrides)
        self.resolved = self.pattern.resolved()
        kind, kernel = resolve_backend(self.resolved, backend)
        self.partitions = part1d(self.A, max(1, num_threads))
        self.plan = _Plan(
            backend=backend,
            block_size=block_size or DEFAULT_BLOCK_SIZE,
            num_threads=max(1, num_threads),
            kind=kind,
            kernel=kernel,
        )
        if autotune and kind != "generic":
            plan = self.plan
            plan.kind, plan.kernel, plan.tuning = autotune_backend(
                self.A,
                self.pattern,
                backend,
                num_threads=plan.num_threads,
                dim=autotune_dim,
            )
            if plan.tuning.strategy in COMPILED_TIERS:
                plan.backend = plan.tuning.strategy
            if block_size is None:
                plan.block_size = plan.tuning.block_size

    # ------------------------------------------------------------------ #
    def __call__(self, X, Y=None, *, out=None, row_offset: int = 0) -> np.ndarray:
        """Execute the planned kernel on new feature matrices."""
        plan = self.plan
        return run_kernel(
            plan.kind,
            plan.kernel,
            self.pattern,
            self.A,
            X,
            Y,
            backend=plan.backend,
            block_size=plan.block_size,
            num_threads=plan.num_threads,
            out=out,
            row_offset=row_offset,
        )

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Human-readable summary of the plan (for logs and reports)."""
        info = {
            "pattern": self.resolved.name,
            "ops": self.resolved.op_names(),
            "backend": self.plan.backend,
            "block_size": self.plan.block_size,
            "num_threads": self.plan.num_threads,
            "partitions": len(self.partitions),
            "nnz": self.A.nnz,
            "shape": self.A.shape,
        }
        if self.plan.tuning is not None:
            info["tuning"] = self.plan.tuning.as_dict()
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedMM(pattern={self.resolved.name!r}, backend={self.plan.backend!r}, "
            f"A={self.A.shape}, nnz={self.A.nnz})"
        )
