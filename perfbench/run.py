"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload kernels_full --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process.  Run from the root of a checkout (the program is imported from
``src/``).
With ``--trace 0`` the last stdout line is the JSON result with every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it carries every
per-layer metric instead (0 for a layer the workload does not exercise).
The lines before it give the host description and the workload's own
named metrics.  Results and spans are also written under ``.perfbench_out/``.
Workloads, metric definitions and the layer -> metric predictions are in
``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("kernels_full", "force2vec_train", "serve_rw")


def main() -> int:
    parser = argparse.ArgumentParser(description="FusedMM stack benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        for workload in WORKLOADS:
            print(f"== {workload}", flush=True)
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(argv).returncode != 0:
                return 1
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Import the checkout's program and the benchmark package, never an
    # installed copy; drop this script's own directory from the path.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    host = json.loads(
        subprocess.run(
            [sys.executable, "-m", "perfbench.host"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
    )
    OUT.mkdir(exist_ok=True)

    from perfbench import force2vec_train, kernels_full, serve_rw

    runner = {
        "kernels_full": kernels_full.run,
        "force2vec_train": force2vec_train.run,
        "serve_rw": lambda *a: serve_rw.run(*a, out_dir=OUT),
    }[args.workload]
    trace = bool(args.trace)
    result = runner(args.seed, args.seconds, trace, host["stream_gbs"])

    attempted, failed = int(result["attempted"]), int(result["failed"])
    if attempted == 0:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    if trace:
        values = dict(result["layers"], **{"host.stream_gbs": host["stream_gbs"]})
        names = spec["per_layer"]
    else:
        values = dict(result["e2e"], success_rate=(attempted - failed) / attempted)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in names}
    detail = {k: {"value": float(v), "unit": u} for k, (v, u) in result["detail"].items()}
    detail["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            dict(
                record,
                workload=args.workload,
                seed=args.seed,
                host=host,
                detail=detail,
                samples=result["samples"],
            )
        )
    )
    if "spans" in result:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(result["spans"]))
    print("host:", json.dumps(host))
    print("detail:", json.dumps(detail))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
