"""Compare two sets of benchmark results, never across different hosts.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` files that
``run.py`` writes to ``.perfbench_out/``.  For every workload and end-to-end
metric it prints both medians, the base's quartile spread and a verdict
against the bound in ``BENCHMARK.json``: ``worse`` beyond the bound,
``unresolved`` when the base's own spread exceeds the bound, else ``ok``.

Exit status: 3 when the two sets come from different host descriptions
(CPU count, CPU model, numba, a C compiler, or STREAM bandwidth more than
25% apart), 1 when any metric is worse beyond its bound, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HOST_KEYS = ("nproc", "cpu_model", "numba", "cc")
STREAM_TOLERANCE = 0.25


def load(directory: str) -> list:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-trace0.json"))]


def host(results: list):
    """The one host description of a result set (exit 3 if it has several)."""
    kinds = {tuple(r["host"][k] for k in HOST_KEYS) for r in results}
    if len(kinds) != 1:
        print(f"results mix host descriptions: {sorted(kinds)}")
        sys.exit(3)
    return kinds.pop(), statistics.median(r["host"]["stream_gbs"] for r in results)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("no *-trace0.json results in one of the directories")
        return 2
    (base_kind, base_bw), (new_kind, new_bw) = host(base), host(new)
    if base_kind != new_kind or abs(new_bw - base_bw) > STREAM_TOLERANCE * base_bw:
        print(f"refusing to compare: host {base_kind} @ {base_bw:.1f} GB/s "
              f"vs {new_kind} @ {new_bw:.1f} GB/s")
        return 3
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    values = {"base": defaultdict(lambda: defaultdict(list)), "new": defaultdict(lambda: defaultdict(list))}
    for side, results in (("base", base), ("new", new)):
        for r in results:
            for name, m in r["metrics"].items():
                values[side][r["workload"]][name].append(m["value"])
    status = 0
    for workload in sorted(set(values["base"]) & set(values["new"])):
        print(workload)
        for metric in spec["end_to_end"]:
            b = values["base"][workload][metric["name"]]
            n = values["new"][workload][metric["name"]]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            worse = (mn - mb) / mb if metric["better"] == "lower" else (mb - mn) / mb
            q = statistics.quantiles(b, n=4) if len(b) > 1 else [mb, mb, mb]
            spread = (q[2] - q[0]) / mb
            if worse > metric["bound"]:
                verdict, status = "worse", 1
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {metric['name']:14s} base {mb:12.4f}  new {mn:12.4f} {metric['unit']:6s} "
                  f"worse by {worse:+.3f} (bound {metric['bound']}, base spread {spread:.3f}) {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
