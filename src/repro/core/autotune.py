"""Autotuning of FusedMM execution parameters.

The paper's library tunes its generated kernels per architecture: register
blocking factors, which vectors to prioritise for blocking, and a blocking
threshold for large dimensions (Section IV.B).  The tunable parameters of
the NumPy kernel (:mod:`repro.core.optimized`) is the **edge block size**
(how many edges worth of intermediates are alive at once — the
register/L2-tile analogue); the compiled tiers compete as whole
candidates.

:func:`autotune` measures a small number of timed trial runs for each
candidate configuration on (a sample of) the actual operands and returns
the fastest.  Results are cached per ``(pattern, d, nnz-bucket, strategy
set)`` so repeated calls (e.g. every training epoch) pay the tuning cost
once — the same usage model as ATLAS-style install-time tuning, scaled down
to call-time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..sparse import CSRMatrix
from . import compiled as compiled_backend
from . import jit as jit_backend
from .optimized import DEFAULT_BLOCK_SIZE, fusedmm_optimized
from .patterns import OpPattern, get_pattern
from .validation import validate_operands

__all__ = [
    "TuningResult",
    "ReorderTuning",
    "autotune",
    "autotune_reorder",
    "cached_reorder_tuning",
    "clear_tuning_cache",
    "tuning_cache_info",
    "DEFAULT_BLOCK_CANDIDATES",
]

#: Candidate edge-block sizes swept by default (powers of four around the
#: default, covering L1-sized to LLC-sized intermediate tiles).
DEFAULT_BLOCK_CANDIDATES: Tuple[int, ...] = (1024, 4096, 16384, 65536)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one autotuning sweep."""

    strategy: str
    block_size: int
    best_time: float
    #: every (strategy, block_size) → measured seconds
    trials: Dict[Tuple[str, int], float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for reports."""
        return {
            "strategy": self.strategy,
            "block_size": self.block_size,
            "best_time": self.best_time,
            "num_trials": len(self.trials),
        }


@dataclass(frozen=True)
class ReorderTuning:
    """Outcome of one measured reorder-strategy sweep.

    Produced by :func:`autotune_reorder`; ``trials`` maps every candidate
    strategy (including ``"none"``) to its measured per-call seconds, so
    plan descriptions can show *why* a strategy was (not) picked.
    """

    strategy: str
    best_time: float
    trials: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for reports."""
        return {
            "reorder": self.strategy,
            "best_time": self.best_time,
            "trials": {k: round(v, 6) for k, v in self.trials.items()},
        }


_TUNING_CACHE: Dict[Tuple, TuningResult] = {}
_REORDER_CACHE: Dict[Tuple, ReorderTuning] = {}
#: Entries are a handful of floats, but keys are per matrix fingerprint —
#: bound the count so a serving loop over endless distinct graphs cannot
#: grow the verdict cache without limit.
_REORDER_CACHE_CAPACITY = 256


def clear_tuning_cache() -> None:
    """Drop all cached tuning results (mainly for tests)."""
    _TUNING_CACHE.clear()
    _REORDER_CACHE.clear()


def tuning_cache_info() -> Dict[str, int]:
    """Number of cached tuning results."""
    return {
        "cached_results": len(_TUNING_CACHE),
        "cached_reorder_results": len(_REORDER_CACHE),
    }


def _nnz_bucket(nnz: int) -> int:
    """Bucket nnz on a log2 scale so similar problem sizes share a cache
    entry."""
    return int(math.log2(max(nnz, 1)))


def _sample_rows(A: CSRMatrix, max_nnz: int, seed: int = 0) -> CSRMatrix:
    """A contiguous row slice of ``A`` holding roughly ``max_nnz`` nonzeros,
    used so tuning runs stay cheap on huge graphs."""
    if A.nnz <= max_nnz:
        return A
    stop = int(np.searchsorted(A.indptr, max_nnz, side="left"))
    stop = max(1, min(stop, A.nrows))
    return A.row_slice(0, stop)


def autotune(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    strategies: Optional[Sequence[str]] = None,
    block_candidates: Sequence[int] = DEFAULT_BLOCK_CANDIDATES,
    repeats: int = 2,
    max_sample_nnz: int = 200_000,
    num_threads: int = 1,
    use_cache: bool = True,
    **pattern_overrides,
) -> TuningResult:
    """Pick the fastest candidate (and block size) for the given operands.

    Parameters
    ----------
    strategies:
        Subset of ``{"edge", "compiled", "jit"}`` to try; the default
        (``None``) sweeps only the NumPy kernel's block sizes (``"edge"``).
        The dispatcher (:func:`repro.core.fused.autotune_backend`) adds the
        compiled tiers where ``auto`` would consider them — a winning
        ``"compiled"``/``"jit"`` trial makes it pin that backend.
    block_candidates:
        Edge block sizes to sweep for the NumPy kernel.
    repeats:
        Timed repetitions per configuration; the minimum is kept.
    max_sample_nnz:
        Tuning runs on a row prefix of ``A`` holding at most this many
        nonzeros, so tuning stays cheap relative to the real call.
    """
    A_csr, X_arr, Y_arr = validate_operands(A, X, Y)
    resolved = get_pattern(pattern, **pattern_overrides).resolved()
    if strategies is None:
        strategies = ("edge",)
    key = (
        tuple(sorted(resolved.op_names().items())),
        X_arr.shape[1],
        _nnz_bucket(A_csr.nnz),
        tuple(strategies),
        tuple(block_candidates),
        num_threads,
    )
    if use_cache and key in _TUNING_CACHE:
        return _TUNING_CACHE[key]

    sample = _sample_rows(A_csr, max_sample_nnz)
    Xs = X_arr[: sample.nrows]
    trials: Dict[Tuple[str, int], float] = {}

    def _time(fn, *args, **kwargs) -> float:
        best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            fn(*args, **kwargs)
            best = min(best, time.perf_counter() - t0)
        return best

    for strategy in strategies:
        if strategy == "edge":
            for block in block_candidates:
                elapsed = _time(
                    fusedmm_optimized,
                    sample,
                    Xs,
                    Y_arr,
                    pattern=pattern,
                    block_size=int(block),
                    num_threads=num_threads,
                    **pattern_overrides,
                )
                trials[("edge", int(block))] = elapsed
        elif strategy == "jit":
            elapsed = _time(
                jit_backend.fusedmm_jit,
                sample,
                Xs,
                Y_arr,
                pattern=pattern,
                **pattern_overrides,
            )
            trials[("jit", 0)] = elapsed
        elif strategy == "compiled":
            elapsed = _time(
                compiled_backend.get_compiled_kernel(resolved),
                sample,
                Xs,
                Y_arr,
                num_threads=num_threads,
            )
            trials[("compiled", 0)] = elapsed
        else:
            raise ValueError(f"unknown strategy {strategy!r}")

    (best_strategy, best_block), best_time = min(trials.items(), key=lambda kv: kv[1])
    if best_strategy in ("compiled", "jit"):
        best_block = DEFAULT_BLOCK_SIZE
    result = TuningResult(
        strategy=best_strategy,
        block_size=best_block,
        best_time=best_time,
        trials=trials,
    )
    if use_cache:
        _TUNING_CACHE[key] = result
    return result


def _reorder_cache_key(memo_key: Tuple, candidates: Tuple[str, ...], repeats: int):
    return (memo_key, tuple(sorted(candidates)), max(1, repeats))


def cached_reorder_tuning(
    memo_key: Tuple, candidates: Sequence[str], *, repeats: int = 1
) -> Optional[ReorderTuning]:
    """A previously measured sweep for this key, or ``None``.

    Lets callers skip *constructing* the candidate runners entirely when
    the sweep has already been measured — trial-plan construction
    (permutation + panel compaction) is itself expensive, so probing the
    cache must not require building what the cache makes unnecessary.
    """
    return _REORDER_CACHE.get(_reorder_cache_key(memo_key, tuple(candidates), repeats))


def autotune_reorder(
    runners: Dict[str, Callable[[], object]],
    *,
    repeats: int = 1,
    memo_key: Optional[Tuple] = None,
    use_cache: bool = True,
) -> ReorderTuning:
    """Pick the fastest vertex-reordering strategy by measurement.

    ``runners`` maps each candidate strategy name to a zero-argument
    callable that performs one *complete* planned call under that strategy
    — including the per-call operand permutation and the inverse mapping
    of the output — so the measured seconds are exactly what an epoch
    loop would pay.  The plan builder supplies the runners (it owns the
    resolved kernel and the memoised permutations); this function owns
    timing, selection and caching.

    Unlike the block-size sweep of :func:`autotune`, reorder decisions
    are *matrix-specific* — locality is a property of this graph's
    structure — so the cache is keyed by the caller-supplied ``memo_key``
    (typically fingerprint + kernel configuration), never by an nnz
    bucket.
    """
    if not runners:
        raise ValueError("autotune_reorder needs at least one candidate runner")
    if memo_key is not None:
        key = _reorder_cache_key(memo_key, tuple(sorted(runners)), repeats)
        if use_cache and key in _REORDER_CACHE:
            return _REORDER_CACHE[key]
    trials: Dict[str, float] = {}
    for name, run in runners.items():
        # One untimed warm-up per candidate: the first call may pay
        # one-off costs the steady state never sees (numba compilation of
        # a shared kernel, lazy buffer setup) — without it the first
        # candidate measured would absorb them and the cached verdict
        # would be permanently biased against it.
        run()
        best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        trials[name] = best
    best_name, best_time = min(trials.items(), key=lambda kv: kv[1])
    result = ReorderTuning(strategy=best_name, best_time=best_time, trials=trials)
    if memo_key is not None and use_cache:
        while len(_REORDER_CACHE) >= _REORDER_CACHE_CAPACITY:
            _REORDER_CACHE.pop(next(iter(_REORDER_CACHE)))
        _REORDER_CACHE[key] = result
    return result
