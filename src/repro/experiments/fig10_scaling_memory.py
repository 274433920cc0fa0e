"""Experiment: Fig. 10 — strong scaling (a) and memory consumption (b).

Fig. 10(a): strong scaling of FusedMM and DGL for graph embedding on Orkut
with d = 256 — FusedMM reaches ~20× on 32 cores, DGL ~16×, and FusedMM is
faster at every thread count.

Fig. 10(b): memory consumption of the FR model on Ogbprot. as d grows from
16 to 256 — DGL's memory grows linearly with d (it stores the d-dimensional
edge messages in H) while FusedMM's stays essentially flat.

The scaling part measures the thread sweep that is possible on this host
and adds the calibrated Amdahl/bandwidth model curve for the full 1–32
range (see :mod:`repro.perf.scaling`); the memory part evaluates the
analytical byte model of Section IV.C (cross-checked elsewhere by
``tracemalloc`` measurements in the test suite).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..bench.tables import format_table
from ..core.parallel import available_threads
from ..core.fused import fusedmm
from ..graphs.datasets import load_dataset
from ..graphs.features import random_features
from ..perf.memory import memory_model_sweep
from ..perf.scaling import modeled_scaling_curve, strong_scaling
from ..sparse import as_csr

__all__ = ["PAPER_FIG10A", "PAPER_FIG10B_SHAPE", "run_scaling", "run_memory", "main"]

#: Approximate speedups read off the paper's Fig. 10(a) (Orkut, d=256).
PAPER_FIG10A: List[Dict[str, object]] = [
    {"threads": 1, "fusedmm_speedup": 1.0, "dgl_speedup": 1.0},
    {"threads": 8, "fusedmm_speedup": 7.0, "dgl_speedup": 6.0},
    {"threads": 16, "fusedmm_speedup": 13.0, "dgl_speedup": 11.0},
    {"threads": 32, "fusedmm_speedup": 20.0, "dgl_speedup": 16.0},
]

#: The property Fig. 10(b) demonstrates.
PAPER_FIG10B_SHAPE = (
    "DGL memory grows linearly with d for the FR model (H stores d values per edge); "
    "FusedMM memory stays flat in the sparse part and grows only with the dense operands."
)


def run_scaling(
    *,
    graph: str = "orkut",
    d: int = 256,
    scale: float = 1.0,
    thread_counts: Sequence[int] | None = None,
    model_threads: Sequence[int] = (1, 2, 4, 8, 16, 32),
    repeats: int = 2,
) -> Dict[str, List[Dict]]:
    """Measured thread sweep on the host + modelled 1–32 thread curve."""
    g = load_dataset(graph, scale=scale)
    A = g.adjacency
    X = random_features(A.nrows, d, seed=0)
    max_threads = available_threads()
    if thread_counts is None:
        thread_counts = sorted({1, min(2, max_threads), min(4, max_threads)})

    def kernel(num_threads: int = 1):
        return fusedmm(
            A,
            X,
            X,
            pattern="sigmoid_embedding",
            backend="auto",
            num_threads=num_threads,
        )

    measured = [p.as_row() for p in strong_scaling(kernel, thread_counts, repeats=repeats)]
    single = measured[0]["seconds"] if measured else 1.0
    modelled = [p.as_row() for p in modeled_scaling_curve(float(single), model_threads)]
    return {"measured": measured, "modelled": modelled, "paper": PAPER_FIG10A}


def run_memory(
    *,
    graph: str = "ogbprot",
    dims: Sequence[int] = (16, 32, 64, 128, 256),
    scale: float = 1.0,
) -> List[Dict]:
    """The Fig. 10(b) sweep: fused vs unfused memory (MB) as d grows."""
    g = load_dataset(graph, scale=scale)
    sweep = memory_model_sweep(as_csr(g.adjacency), dims, pattern="fr_layout")
    rows = []
    for d, entry in sweep.items():
        rows.append(
            {
                "d": d,
                "fusedmm_mb": round(entry["fusedmm_mb"], 2),
                "dgl_mb": round(entry["unfused_mb"], 2),
                "ratio": round(entry["unfused_mb"] / max(entry["fusedmm_mb"], 1e-9), 2),
            }
        )
    return rows


def main() -> None:
    """Print both halves of Fig. 10."""
    scaling = run_scaling()
    print(format_table(scaling["paper"], title="Fig. 10(a) (paper, Orkut d=256)"))
    print()
    print(format_table(scaling["measured"], title="Fig. 10(a) measured thread sweep (host)"))
    print()
    print(format_table(scaling["modelled"], title="Fig. 10(a) modelled 1-32 thread curve"))
    print()
    print(PAPER_FIG10B_SHAPE)
    print(format_table(run_memory(), title="Fig. 10(b) memory sweep (FR model)"))


if __name__ == "__main__":  # pragma: no cover
    main()
