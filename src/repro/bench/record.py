"""Machine-readable benchmark records (``BENCH_<name>.json``).

Every system benchmark writes its rows through :func:`record_benchmark`, so
the repository accumulates a uniform, diffable performance trajectory: one
JSON file per benchmark with the environment it ran in and the raw rows the
human-readable table was printed from.  CI uploads these files as build
artifacts from the ``runtime-smoke`` job.

Schema (version 1)::

    {
      "schema_version": 1,
      "benchmark": "runtime",
      "created_unix": 1700000000.0,
      "environment": {"python": "...", "platform": "...", "cpus": 8,
                      "numba": "0.59.1" | null,
                      "compiler": {"path": "/usr/bin/cc", "version": "..."} | null,
                      ...},
      "rows": [{...}, ...]
    }
"""

from __future__ import annotations

import importlib.metadata
import importlib.util
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.compiled import compiler_description
from ..core.parallel import available_threads
from ..version import __version__

__all__ = ["bench_environment", "record_benchmark", "load_benchmark"]

SCHEMA_VERSION = 1


def _numba_version() -> Optional[str]:
    """numba's version when it is installed (without importing it)."""
    if importlib.util.find_spec("numba") is None:
        return None
    try:
        return importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def bench_environment() -> Dict[str, object]:
    """The environment fingerprint stored alongside benchmark rows.

    ``cpus``, ``numba`` and ``compiler`` describe the host's kernel tiers;
    :mod:`repro.bench.trend` refuses to compare records that differ in any
    of them.
    """
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": available_threads(),
        "numba": _numba_version(),
        "compiler": compiler_description(),
        "numpy": np.__version__,
        "repro": __version__,
    }


def _jsonable(value):
    """Coerce NumPy scalars/arrays so rows serialise without custom hooks."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def record_benchmark(
    name: str,
    rows: List[Dict[str, object]],
    *,
    path: Optional[Union[str, Path]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Path:
    """Write benchmark ``rows`` to ``BENCH_<name>.json`` and return the path.

    ``path`` overrides the default location (the current working
    directory); ``extra`` lands as additional top-level keys (e.g. the
    benchmark's configuration).
    """
    out = Path(path) if path is not None else Path(f"BENCH_{name}.json")
    payload: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": name,
        "created_unix": time.time(),
        "environment": bench_environment(),
        "rows": [_jsonable(row) for row in rows],
    }
    if extra:
        payload.update(_jsonable(extra))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return out


def load_benchmark(path: Union[str, Path]) -> Dict[str, object]:
    """Read a ``BENCH_*.json`` file back (tests, trend tooling)."""
    return json.loads(Path(path).read_text())
