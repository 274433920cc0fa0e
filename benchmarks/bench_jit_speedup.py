"""Benchmark: JIT backend speedup over the NumPy edge-blocked backend.

Runs :func:`repro.bench.bench_jit_speedup` — the same FusedMM call through
the ``optimized`` and ``jit`` backends — and gates on the
repo's acceptance criterion: ``jit`` ≥3× faster than ``optimized`` on the
``sigmoid_embedding`` pattern (d=128, RMAT graph).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_jit_speedup.py [--quick] [--json PATH]

or via the CLI: ``python -m repro bench jit``.  Without numba installed the
jit rows are skipped and the script exits 0 (the gate only applies where
the compiled tier exists); ``--no-check`` always reports only.  ``--json``
writes a machine-readable ``BENCH_jit.json`` via :mod:`repro.bench.record`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.jit_bench import DEFAULT_MIN_SPEEDUP, bench_jit_speedup  # noqa: E402
from repro.bench.record import record_benchmark  # noqa: E402
from repro.bench.tables import format_table  # noqa: E402
from repro.core.jit import jit_available  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--avg-degree", type=int, default=16)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--patterns", nargs="+", default=["sigmoid_embedding", "fr_layout", "gcn"]
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=DEFAULT_MIN_SPEEDUP,
        help="required jit speedup over the optimized backend on sigmoid_embedding",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write BENCH_jit.json-style results to PATH",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="report only; do not fail on missed targets",
    )
    args = parser.parse_args(argv)

    nodes = args.nodes or (4_000 if args.quick else 20_000)
    dim = args.dim or (32 if args.quick else 128)
    repeats = args.repeats or (2 if args.quick else 3)

    rows = bench_jit_speedup(
        num_nodes=nodes,
        avg_degree=args.avg_degree,
        dim=dim,
        repeats=repeats,
        patterns=args.patterns,
    )
    print(format_table(rows, title="JIT backend speedup (vs the NumPy backend)"))
    if args.json:
        print(f"wrote {record_benchmark('jit', rows, path=args.json)}")

    if not jit_available():
        print("numba is not installed: jit rows skipped, speedup gate not applicable")
        return 0
    if args.no_check:
        return 0

    gate_rows = [
        r
        for r in rows
        if r["backend"] == "jit" and r["pattern"] == "sigmoid_embedding"
    ]
    ok = True
    for row in gate_rows:
        speedup = row["speedup_vs_optimized"]
        if speedup < args.min_speedup:
            print(
                f"FAIL: jit speedup {speedup:.2f}x < required "
                f"{args.min_speedup:.1f}x on sigmoid_embedding"
            )
            ok = False
        if row["max_abs_err"] > 1e-3:
            print(f"FAIL: jit result drifted from optimized: {row['max_abs_err']}")
            ok = False
    if ok and gate_rows:
        print(
            "OK: jit beats optimized by "
            f"{gate_rows[0]['speedup_vs_optimized']:.2f}x on sigmoid_embedding"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
