"""Transport-neutral codec for the worker execution protocol.

The sharded execution tier speaks one logical protocol over two
transports: duplex pipes to local :class:`~repro.runtime.workers.WorkerPool`
processes (operands ride in shared memory) and framed TCP to remote
:mod:`~repro.runtime.remote` worker hosts (operands ride as npy blobs on
:mod:`repro.framing` frames).  This module holds everything both sides
must agree on so the transports can never drift:

* the TCP opcodes and the ``b"RK"`` :class:`~repro.framing.FrameCodec`;
* CSR and run-spec serialisation (JSON meta + named arrays — no pickles
  cross the network);
* the worker-side config rebuild (:func:`build_worker_config`) and its
  cache key (:func:`config_cache_key`), shared by the shm worker loop and
  the remote agent so a row executes through the *same* dispatch config
  whichever host it lands on.

Determinism note: a run spec carries everything the parent resolved — the
backend ``kind`` that runs (after ``auto`` resolution and any autotuned
pin or demotion) and the autotuned block size — so rebuilt configs
execute exactly the kernel a single-process call would: the
bitwise-identity contract across shard counts extends across hosts.
A worker that cannot run the shipped kind (no C compiler for
``"compiled"``, say) fails the job instead of picking another kernel.
"""

from __future__ import annotations

import pickle
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.patterns import OpPattern
from ..framing import FrameCodec
from ..sparse import CSRMatrix

__all__ = [
    "WORKER_MAGIC",
    "WORKER_VERSION",
    "WORKER_CODEC",
    "WORKER_MAX_PAYLOAD",
    "OP_REGISTER",
    "OP_WELCOME",
    "OP_PING",
    "OP_LOAD",
    "OP_DROP",
    "OP_RUN",
    "OP_EXIT",
    "OP_LOAD_DELTA",
    "OP_RESULT",
    "OP_ERROR",
    "encode_csr",
    "decode_csr",
    "encode_csr_delta",
    "splice_csr_delta",
    "plan_spec_from_plan",
    "remote_spec_meta",
    "spec_from_meta",
    "build_worker_config",
    "config_cache_key",
]

WORKER_MAGIC = b"RK"
WORKER_VERSION = 1

#: Default per-frame payload cap for the worker transport (both sides).
#: Frames carry whole CSRs and operand blocks, so the bound is generous —
#: but it must exist: a forged 4-byte length field must never drive an
#: unbounded allocation.  Override per agent/controller for bigger jobs.
WORKER_MAX_PAYLOAD = 1 << 30

#: agent → controller, once per connection: {"name", "slots", "threads", "pid"}
OP_REGISTER = 0x01
#: controller → agent, the registration ack: {"host_id"}
OP_WELCOME = 0x02
#: controller → agent heartbeat; answered with an empty OP_RESULT
OP_PING = 0x03
#: controller → agent: cache a CSR under meta["key"] (idempotent)
OP_LOAD = 0x10
#: controller → agent: release the CSR under meta["key"]
OP_DROP = 0x11
#: controller → agent: execute meta["parts"] row-ranges of meta["key"]
OP_RUN = 0x12
#: controller → agent: leave the serve loop
OP_EXIT = 0x13
#: controller → agent: cache meta["key"] by splicing dirty rows onto the
#: already-loaded CSR under meta["base_key"] (dynamic-graph re-ship; the
#: payload is proportional to the dirty rows, not the matrix).  Agents
#: advertise support with ``"delta": 1`` in REGISTER; the controller
#: falls back to a full OP_LOAD for agents that don't, or when the base
#: was evicted (ERROR {missing_key: base_key}).
OP_LOAD_DELTA = 0x14
#: success reply (payload depends on the request opcode)
OP_RESULT = 0x20
#: failure reply: {"status", "error"} (+ "missing_key" for evicted CSRs)
OP_ERROR = 0x21

#: The worker transport's frame codec — same mechanics as the serving
#: wire protocol (:data:`repro.serve.wire.WIRE_CODEC`), different magic.
WORKER_CODEC = FrameCodec(WORKER_MAGIC, WORKER_VERSION)


# ---------------------------------------------------------------------- #
# CSR serialisation
# ---------------------------------------------------------------------- #
def encode_csr(A: CSRMatrix) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``A`` as (meta, arrays) for one LOAD payload."""
    meta = {"nrows": int(A.nrows), "ncols": int(A.ncols)}
    arrays = {
        "indptr": np.asarray(A.indptr),
        "indices": np.asarray(A.indices),
        "data": np.asarray(A.data),
    }
    return meta, arrays


def decode_csr(meta: dict, arrays: Dict[str, np.ndarray]) -> CSRMatrix:
    """Rebuild the CSR a LOAD payload carries (validated on arrival).

    ``check=False`` mirrors the shm worker: the parent validated this
    matrix when it was constructed and the npy codec is bitwise-faithful.
    """
    return CSRMatrix(
        int(meta["nrows"]),
        int(meta["ncols"]),
        arrays["indptr"],
        arrays["indices"],
        arrays["data"],
        check=False,
    )


def encode_csr_delta(
    base_key: str,
    rows: np.ndarray,
    counts: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """A dirty-row splice as (meta, arrays) for one LOAD_DELTA payload.

    ``rows``/``counts`` name the replaced rows and their new lengths;
    ``indices``/``data`` carry the new rows' contents concatenated in row
    order — the same arguments :func:`repro.sparse.delta.splice_rows`
    takes, so both sides splice through the one shared primitive.
    """
    meta = {"base_key": str(base_key)}
    arrays = {
        "rows": np.ascontiguousarray(rows, dtype=np.int64),
        "counts": np.ascontiguousarray(counts, dtype=np.int64),
        "indices": np.ascontiguousarray(indices, dtype=np.int64),
        "data": np.ascontiguousarray(data),
    }
    return meta, arrays


def splice_csr_delta(base: CSRMatrix, arrays: Dict[str, np.ndarray]) -> CSRMatrix:
    """Rebuild the new matrix version a LOAD_DELTA payload describes."""
    from ..sparse.delta import splice_rows

    return splice_rows(
        base,
        arrays["rows"],
        arrays["counts"],
        arrays["indices"],
        arrays["data"],
    )


# ---------------------------------------------------------------------- #
# Run specs
# ---------------------------------------------------------------------- #
def plan_spec_from_plan(plan) -> Optional[Dict[str, object]]:
    """The picklable execution spec of a :class:`~repro.runtime.plan.KernelPlan`.

    Workers rebuild the dispatch config from this spec; the parent resolves
    everything host- and data-dependent (the backend kind, autotuned block
    size) *before* shipping, so every worker executes exactly the kernel a
    single-process call would.  ``backend`` (the requested name) rides
    along for ``auto``'s last-resort generic fallback.  Returns ``None``
    when the pattern cannot be pickled (user-supplied lambda operators) —
    callers fall back to in-process execution.
    """
    spec = {
        "op_pattern": plan.op_pattern,
        "backend": plan.backend,
        "kind": plan.kind,
        "block_size": plan.block_size,
    }
    try:
        pickle.dumps(spec["op_pattern"])
    except Exception:
        return None
    return spec


_PATTERN_SLOTS = ("vop", "rop", "sop", "mop", "aop")


def remote_spec_meta(spec: Optional[Dict[str, object]]) -> Optional[dict]:
    """A run spec as JSON-able RUN meta, or ``None`` if not remotable.

    The network transport is stricter than the pipe transport: patterns
    cross as their five operator *names*, so a pattern is remotable only
    when every slot is a registered-operator name (every built-in pattern
    is).  Callable operators — even picklable ones — stay host-local.
    """
    if spec is None:
        return None
    pattern: OpPattern = spec["op_pattern"]
    slots = {slot: getattr(pattern, slot) for slot in _PATTERN_SLOTS}
    if not all(isinstance(value, str) for value in slots.values()):
        return None
    return {
        "pattern": {"name": pattern.name, **slots},
        "backend": spec["backend"],
        "kind": spec["kind"],
        "block_size": spec["block_size"],
    }


def spec_from_meta(meta: dict) -> Dict[str, object]:
    """Rebuild the worker-side run spec a RUN meta describes."""
    pattern = dict(meta["pattern"])
    op_pattern = OpPattern(
        name=str(pattern["name"]),
        **{slot: str(pattern[slot]) for slot in _PATTERN_SLOTS},
    )
    block_size = meta["block_size"]
    return {
        "op_pattern": op_pattern,
        "backend": str(meta["backend"]),
        "kind": str(meta["kind"]),
        "block_size": None if block_size is None else int(block_size),
    }


# ---------------------------------------------------------------------- #
# Worker-side config rebuild (shared by shm workers and remote agents)
# ---------------------------------------------------------------------- #
def build_worker_config(spec: Dict[str, object], *, num_threads: int = 1):
    """Rebuild the dispatch config a run spec describes (worker side).

    The shipped ``kind`` is resolved as an explicit backend, so a host
    that cannot run it raises :class:`~repro.errors.BackendError` rather
    than silently running a different kernel.
    """
    from .plan import make_config

    op_pattern = spec["op_pattern"]
    return make_config(
        op_pattern,
        op_pattern.resolved(),
        backend=spec["backend"],
        kind=spec["kind"],
        block_size=spec["block_size"],
        num_threads=num_threads,
    )


def config_cache_key(spec: Dict[str, object]) -> tuple:
    """Hashable identity of a run spec's dispatch config."""
    from .plan import pattern_key

    return (
        pattern_key(spec["op_pattern"].resolved()),
        spec["backend"],
        spec["kind"],
        spec["block_size"],
    )
