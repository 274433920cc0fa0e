"""Server process of the serve_rw workload.

Builds a ``KernelServer`` (HTTP + wire listeners on ephemeral ports),
registers the seed's graphs before the listeners open, prints one JSON line
with the ports, and serves until SIGTERM.  With ``--trace-out`` the server's
layer boundaries are traced from the start; SIGUSR1 removes the tracing and
SIGUSR2 puts it back, so the client can measure an untraced stretch against
a traced one on the same server.  On exit it writes the spans (when traced)
and prints a last JSON line with the process's peak RSS.

Run: ``PYTHONPATH=src:. python -m perfbench.launcher --seed 1 --jobs-dir DIR``
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import shutil
import signal


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs-dir", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    from repro.serve import KernelServer, ServeConfig

    from . import inputs
    from .tracing import SERVER_TARGETS, Recorder

    rec = Recorder()
    if args.trace_out:
        rec.install(SERVER_TARGETS)
    server = KernelServer(
        ServeConfig(
            port=0, wire_port=0, models=(), num_threads=inputs.nproc(), job_dir=args.jobs_dir
        )
    )
    for name, A in inputs.serve_graphs(args.seed).items():
        server.registry.register_graph(name, A)

    async def serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        if args.trace_out:
            loop.add_signal_handler(signal.SIGUSR1, rec.uninstall)
            loop.add_signal_handler(signal.SIGUSR2, rec.install, SERVER_TARGETS)
        print(json.dumps({"http_port": server.port, "wire_port": server.wire_port}), flush=True)
        await stop.wait()
        await server.shutdown()

    try:
        asyncio.run(serve())
    finally:
        shutil.rmtree(args.jobs_dir, ignore_errors=True)
    if args.trace_out:
        rec.uninstall()
        with open(args.trace_out, "w") as fh:
            json.dump(rec.spans, fh)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak}), flush=True)


if __name__ == "__main__":
    main()
