"""Seeded inputs of every workload.

The benchmark process and the server launcher both import this module, so
a seed names the same graphs on both sides of the wire.  Every size below
is part of the benchmark definition; changing one changes the baseline.
"""

from __future__ import annotations

import os

import numpy as np

# kernels_full: Table VI through the runtime.
KERNEL_GRAPH = (50_000, 400_000)  # rmat(n, edge samples): ~738k nnz symmetrised
KERNEL_DIM = 128
KERNEL_PATTERNS = ("sigmoid_embedding", "fr_layout", "gcn")
KERNEL_OPERANDS = 2  # distinct X per pattern, cycled
ORACLE_ROWS = 256  # seeded rows checked against the generic oracle

# force2vec_train: Table VIII end to end, paper defaults.
F2V_GRAPH = (10_000, 20_000)  # ~39k nnz symmetrised
F2V_DIM = 128
F2V_BATCH = 256
F2V_NEGATIVES = 5

# serve_rw: reads over small graphs, writes on a mid-size one.
READ_GRAPHS = 4
READ_GRAPH = (512, 1_024)
READ_DIM = 16
READ_OPERANDS = 4  # distinct X per read graph
READ_OUTSTANDING = 8
WRITE_GRAPH = (2_048, 4_096)
WRITE_DIM = 16
WRITE_BATCH = 64  # edges per write: half deletes, half inserts


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def rmat_graph(shape, seed: int):
    from repro.graphs.generators import rmat

    return rmat(shape[0], shape[1], seed=seed)


def features(n: int, d: int, seed: int) -> np.ndarray:
    from repro.graphs import random_features

    return random_features(n, d, seed=seed)


def read_graph_names():
    return [f"read{i}" for i in range(READ_GRAPHS)]


WRITE_GRAPH_NAME = "write0"


def serve_graphs(seed: int) -> dict:
    """Name -> CSR of every graph the server registers."""
    graphs = {
        name: rmat_graph(READ_GRAPH, seed * 1_000 + 11 + i)
        for i, name in enumerate(read_graph_names())
    }
    graphs[WRITE_GRAPH_NAME] = rmat_graph(WRITE_GRAPH, seed * 1_000 + 97)
    return graphs
