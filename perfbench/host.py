"""Host description recorded with every result.

Run as its own process (``python -m perfbench.host``) so the STREAM arrays
never count toward the workload's peak RSS.  Results from hosts whose
description differs are not compared (see ``compare.py``).
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import platform
import shutil

STREAM_MB = 192.0  # total of the three triad arrays


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _llc_mb() -> float:
    """Size of the highest cache level the kernel reports for cpu0."""
    best = (0, 0.0)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1:], 1 / 1048576)
        mb = float(size.rstrip("KMG")) * scale
        best = max(best, (level, mb))
    return best[1]


def _importable(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def describe() -> dict:
    from repro.perf.roofline import measure_stream_bandwidth

    from .inputs import nproc

    llc = _llc_mb()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "numba": _importable("numba"),
        "cc": shutil.which("cc") is not None,
        "stream_gbs": measure_stream_bandwidth(size_mb=STREAM_MB, repeats=5),
        "stream_arrays_mb": STREAM_MB,
        "llc_mb": llc,
        # STREAM needs arrays of at least 4x the last-level cache to measure
        # memory rather than cache; larger ones do not fit a shared host.
        "stream_in_cache_risk": STREAM_MB < 4 * llc,
    }


if __name__ == "__main__":
    print(json.dumps(describe()))
