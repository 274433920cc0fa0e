"""Length-prefixed binary wire protocol for the serving front-end.

The HTTP/1.1 front-end is the compatibility surface; on 1 CPU its parse +
JSON framing dominates small requests, so the transport — not the kernel
— bounds small-request throughput.  This module adds the transport-light
alternative: a framed binary protocol over raw asyncio sockets that
shares the :class:`~repro.serve.coalescer.Coalescer` and
:class:`~repro.serve.registry.ModelRegistry` with the HTTP server, so
responses stay bitwise identical to serial execution regardless of which
front door a request used.

Frame layout (network byte order)::

    magic      2 bytes   b"RW"
    version    1 byte    WIRE_VERSION (1)
    opcode     1 byte    OP_*
    request_id 8 bytes   client-assigned; echoed on the response
    length     4 bytes   payload byte count
    payload    <length>  opcode-specific container (below)

Payload container: ``meta_len:u32 | meta JSON | (blob_len:u32 | npy blob)``
repeated once per name in ``meta["arrays"]`` — arrays ride as NumPy
``.npy`` blobs (bitwise-faithful dtypes, no float→decimal round trip),
everything scalar rides in the small JSON meta block.

Connection protocol:

* On connect the server sends one ``OP_HELLO`` frame (request-id 0)
  whose meta carries the **credit grant**: the number of outstanding
  (unanswered) requests this connection may pipeline.  Each request
  consumes a credit; each response (result or error) replenishes it.
  Exceeding the grant is a protocol error — the server answers with a
  status-400 error frame and closes.  Credits bound per-connection
  memory without touching the global admission queue.
* Clients **pipeline**: many request-ids may be outstanding and
  responses arrive in *completion* order, not submission order.
* Errors mirror the HTTP status mapping (429 queue full, 503 draining,
  504 deadline expired, 400/404 malformed or unknown names) as
  ``OP_ERROR`` frames carrying ``{"status": ..., "error": ...}``.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import DatasetError, JobNotFoundError, ReproError, ServeError
from ..framing import (
    FRAME_HEADER,
    FrameCodec,
    ProtocolError,
    decode_payload,
    encode_payload,
    error_from_meta,
    error_payload as _error_payload,
)
from ..resilience import RetryPolicy
from ..runtime import KernelRequest
from ..sparse import CSRMatrix
from .config import resolve_deadline_ms

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WIRE_CODEC",
    "OP_HELLO",
    "OP_KERNEL",
    "OP_EMBED",
    "OP_STATZ",
    "OP_TRAIN",
    "OP_JOB",
    "OP_MUTATE",
    "OP_RESULT",
    "OP_ERROR",
    "FRAME_HEADER",
    "pack_frame",
    "unpack_header",
    "encode_payload",
    "decode_payload",
    "WireServer",
    "WireClient",
]

WIRE_MAGIC = b"RW"
WIRE_VERSION = 1

OP_HELLO = 0x01
OP_KERNEL = 0x10
OP_EMBED = 0x11
OP_STATZ = 0x12
OP_TRAIN = 0x13
OP_JOB = 0x14
OP_MUTATE = 0x15
OP_RESULT = 0x20
OP_ERROR = 0x21

_REQUEST_OPS = (OP_KERNEL, OP_EMBED, OP_STATZ, OP_TRAIN, OP_JOB, OP_MUTATE)

#: The frame codec of this protocol.  Mechanics (header layout, payload
#: container, blocking/async readers) live in :mod:`repro.framing` and are
#: shared with the distributed worker transport; only the magic/version
#: stamp differs.
WIRE_CODEC = FrameCodec(WIRE_MAGIC, WIRE_VERSION)


# ---------------------------------------------------------------------- #
# Frame codec (module-level aliases kept for compatibility)
# ---------------------------------------------------------------------- #
def pack_frame(opcode: int, request_id: int, payload: bytes) -> bytes:
    """One serialised frame: fixed header + payload."""
    return WIRE_CODEC.pack_frame(opcode, request_id, payload)


def unpack_header(blob: bytes) -> Tuple[int, int, int]:
    """Parse a header → ``(opcode, request_id, payload_length)``."""
    return WIRE_CODEC.unpack_header(blob)


async def _read_frame(
    reader: asyncio.StreamReader, *, max_payload: int
) -> Optional[Tuple[int, int, bytes]]:
    """One frame off an asyncio reader; ``None`` on clean EOF."""
    return await WIRE_CODEC.read_frame_async(reader, max_payload=max_payload)


# ---------------------------------------------------------------------- #
# Server
# ---------------------------------------------------------------------- #
class _Connection:
    """One wire connection's state, as the wind-down sees it."""

    def __init__(self, reader: asyncio.StreamReader, writer) -> None:
        self.reader = reader
        self.writer = writer
        #: admitted request frames not yet answered
        self.outstanding: "set[asyncio.Task]" = set()
        #: the read loop is waiting for the next frame
        self.parked = False
        #: set when the server winds down: hang up as soon as idle
        self.closing = False

    def finished(self, job: asyncio.Task) -> None:
        self.outstanding.discard(job)
        self.hang_up_if_idle()

    def hang_up_if_idle(self) -> None:
        """While closing, end the read loop once nothing is outstanding:
        stop reading and mark EOF.  Frames already buffered are still
        read and answered; the loop then sees a clean EOF and closes the
        socket.  A frame caught half-received gets the truncated-frame
        error."""
        if self.closing and self.parked and not self.outstanding:
            self.writer.transport.pause_reading()
            self.reader.feed_eof()


class WireServer:
    """The binary-protocol listener beside a ``KernelServer``.

    Owns no kernel state: requests decode into the *same*
    :class:`~repro.runtime.KernelRequest` objects and flow through the
    same coalescer as HTTP traffic, so the bitwise-identity contract
    holds across transports.  The owning server starts/stops it and is
    consulted for its registry, coalescer and config.
    """

    def __init__(self, owner) -> None:
        self._owner = owner
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[asyncio.Task, _Connection] = {}
        self._started = time.monotonic()
        self.frames_served = 0
        self.errors_sent = 0
        self.protocol_errors = 0
        self.connections_accepted = 0

    # ------------------------------------------------------------------ #
    @property
    def config(self):
        return self._owner.config

    @property
    def port(self) -> int:
        """The bound wire port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self.config.wire_port or 0
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "WireServer":
        assert self.config.wire_port is not None, "wire_port not configured"
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.wire_port,
        )
        self._started = time.monotonic()
        return self

    async def stop_accepting(self) -> None:
        """Close the listener; existing connections keep draining."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def close(self, timeout: Optional[float] = None) -> None:
        """Wind down connections after the coalescer drained.

        Cancelling read loops outright would silently drop any request
        frames a client pipelined that are still buffered unread on the
        socket — the contract is that every received frame is answered
        (with a 503 error frame once draining).  So connections first get
        ``timeout`` seconds to finish naturally: readers keep serving
        (drain answers), clients collect their outstanding responses and
        hang up.  The coalescer has drained by now, so a connection with
        nothing outstanding is only waiting for its client: the server
        hangs up on it as soon as it is idle instead of waiting out the
        grace.  Whatever is still connected after the grace is cut.
        """
        for conn in list(self._connections.values()):
            conn.closing = True
            conn.hang_up_if_idle()
        if self._connections and timeout:
            await asyncio.wait(set(self._connections), timeout=timeout)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    def describe(self) -> Dict[str, object]:
        """The ``wire`` block of ``/statz``."""
        return {
            "port": self.port,
            "credits": self.config.wire_credits,
            "connections_accepted": self.connections_accepted,
            "frames_served": self.frames_served,
            "errors_sent": self.errors_sent,
            "protocol_errors": self.protocol_errors,
        }

    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        outstanding = conn.outstanding
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = conn
            task.add_done_callback(lambda t: self._connections.pop(t, None))
        self.connections_accepted += 1
        write_lock = asyncio.Lock()

        async def send(opcode: int, request_id: int, payload: bytes) -> None:
            # Responses come from concurrently completing tasks; the lock
            # keeps frames from interleaving mid-write.
            async with write_lock:
                writer.write(pack_frame(opcode, request_id, payload))
                await writer.drain()

        try:
            await send(
                OP_HELLO,
                0,
                encode_payload(
                    {
                        "version": WIRE_VERSION,
                        "credits": self.config.wire_credits,
                        "max_payload": self.config.max_body_bytes,
                    }
                ),
            )
            while True:
                conn.parked = True
                conn.hang_up_if_idle()
                frame = await _read_frame(
                    reader, max_payload=self.config.max_body_bytes
                )
                conn.parked = False
                if frame is None:
                    break
                opcode, request_id, payload = frame
                if opcode not in _REQUEST_OPS:
                    raise ProtocolError(f"unexpected opcode 0x{opcode:02x}")
                if len(outstanding) >= self.config.wire_credits:
                    # The client wrote past its grant: protocol misuse,
                    # not load — deliberately 400, never 429, so flow
                    # control violations stay distinguishable from
                    # admission-control shedding.
                    raise ProtocolError(
                        f"credit limit exceeded ({self.config.wire_credits} "
                        "outstanding requests allowed)"
                    )
                injector = getattr(self._owner, "fault_injector", None)
                if injector is not None and injector:
                    fault = injector.step()
                    if fault is not None:
                        if fault.kind == "delay":
                            await asyncio.sleep(fault.arg)
                        elif fault.kind == "drop_frame":
                            # Mid-frame cut: half a response, then sever.
                            blob = pack_frame(
                                OP_RESULT,
                                request_id,
                                encode_payload({"status": 200}),
                            )
                            async with write_lock:
                                writer.write(blob[: max(1, len(blob) // 2)])
                                await writer.drain()
                            break
                        else:  # crash / disconnect: sever unanswered
                            break
                job = asyncio.ensure_future(
                    self._serve_frame(send, opcode, request_id, payload)
                )
                outstanding.add(job)
                job.add_done_callback(conn.finished)
        except ProtocolError as exc:
            self.protocol_errors += 1
            try:
                await send(OP_ERROR, 0, _error_payload(exc.status, str(exc)))
            except (ConnectionError, RuntimeError, OSError):
                pass
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            # Clean EOF: let pipelined requests already admitted finish
            # and flush their responses before tearing the socket down.
            if outstanding:
                await asyncio.gather(*outstanding, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover - teardown races
                pass

    async def _serve_frame(
        self, send, opcode: int, request_id: int, payload: bytes
    ) -> None:
        """Decode → execute → respond for one request frame.

        Mirrors ``KernelServer._dispatch``'s error mapping so both
        transports answer identical statuses for identical failures.
        """
        try:
            meta, arrays = decode_payload(payload)
            if opcode == OP_STATZ:
                self.frames_served += 1
                body = encode_payload(
                    {"status": 200, "statz": self._owner.statz()}
                )
            elif opcode == OP_TRAIN:
                self.frames_served += 1
                body = self._handle_train(meta)
            elif opcode == OP_JOB:
                self.frames_served += 1
                body = self._handle_job(meta)
            elif opcode == OP_MUTATE:
                body = await self._handle_mutate(meta, arrays)
                self.frames_served += 1
            else:
                if opcode == OP_KERNEL:
                    result = await self._handle_kernel(meta, arrays)
                else:
                    result = self._handle_embed(meta, arrays)
                self.frames_served += 1
                body = encode_payload(
                    {"status": 200, "shape": list(result.shape)}, {"z": result}
                )
            response = (OP_RESULT, body)
        except ProtocolError as exc:
            response = (OP_ERROR, _error_payload(exc.status, str(exc)))
        except ServeError as exc:
            response = (OP_ERROR, _error_payload(exc.http_status, str(exc)))
        except (DatasetError, JobNotFoundError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            response = (OP_ERROR, _error_payload(404, str(message)))
        except ReproError as exc:
            response = (OP_ERROR, _error_payload(400, str(exc)))
        except Exception as exc:  # pragma: no cover - defensive
            response = (OP_ERROR, _error_payload(500, f"internal error: {exc}"))
        if response[0] == OP_ERROR:
            self.errors_sent += 1
        try:
            await send(response[0], request_id, response[1])
        except (ConnectionError, RuntimeError, OSError):
            # The client hung up before its response; nothing to tell it.
            pass

    # ------------------------------------------------------------------ #
    def _job_manager(self):
        jobs = self._owner.jobs
        if jobs is None:
            raise ProtocolError("server not started", status=503)
        return jobs

    def _handle_train(self, meta: dict) -> bytes:
        """``OP_TRAIN``: the meta block *is* the job spec."""
        from ..jobs import JobSpec

        doc = dict(meta)
        doc.pop("arrays", None)  # payload-container bookkeeping, not spec
        if "checkpoint_every" not in doc:
            doc["checkpoint_every"] = self.config.job_checkpoint_every
        job_id = self._job_manager().submit(JobSpec.from_dict(doc))
        return encode_payload(
            {"status": 200, "job_id": job_id, "state": "pending"}
        )

    def _handle_job(self, meta: dict) -> bytes:
        """``OP_JOB``: ``meta["action"]`` is status/list/cancel/result."""
        jobs = self._job_manager()
        action = str(meta.get("action", "status"))
        if action == "list":
            return encode_payload({"status": 200, "jobs": jobs.list_jobs()})
        job_id = meta.get("job_id")
        if not job_id:
            raise ProtocolError(f"job action {action!r} needs 'job_id'")
        job_id = str(job_id)
        if action == "status":
            return encode_payload({"status": 200, "job": jobs.status(job_id)})
        if action == "cancel":
            return encode_payload({"status": 200, "job": jobs.cancel(job_id)})
        if action == "result":
            rows = jobs.result(job_id)
            return encode_payload(
                {"status": 200, "shape": list(rows.shape)}, {"z": rows}
            )
        raise ProtocolError(f"unknown job action {action!r}")

    async def _handle_mutate(
        self, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> bytes:
        """``OP_MUTATE``: apply one edge batch to a registered graph.

        The mutation itself is CPU work behind the graph's write lock, so
        it runs on a worker thread — the event loop keeps serving reads
        pinned to the pre-mutation version while the new one builds.
        """
        model = meta.get("model")
        if not model:
            raise ProtocolError("mutate frame needs 'model'")
        insert = arrays.get("insert")
        delete = arrays.get("delete")
        if insert is None and delete is None:
            raise ProtocolError(
                "mutate frame needs an 'insert' (n,3) and/or 'delete' (n,2) "
                "array"
            )
        result = await asyncio.to_thread(
            self._owner.registry.mutate_graph, str(model), insert, delete
        )
        return encode_payload(
            {"status": 200, "graph": str(model), **result.as_dict()}
        )

    # ------------------------------------------------------------------ #
    def _resolve_adjacency(
        self, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> CSRMatrix:
        model = meta.get("model")
        if model is not None:
            return self._owner.registry.graph(str(model))
        if "indptr" not in arrays or "indices" not in arrays:
            raise ProtocolError(
                "kernel frame needs 'model' (a registered graph) or inline "
                "'indptr'/'indices' arrays"
            )
        try:
            indptr = arrays["indptr"].astype(np.int64, copy=False)
            indices = arrays["indices"].astype(np.int64, copy=False)
            data = arrays.get(
                "data", np.ones(indices.shape[0], dtype=np.float32)
            ).astype(np.float32, copy=False)
            shape = meta.get("graph_shape")
            nrows = int(shape[0]) if shape else indptr.shape[0] - 1
            ncols = int(shape[1]) if shape else nrows
            return CSRMatrix(nrows, ncols, indptr, indices, data)
        except ReproError:
            raise
        except Exception as exc:
            raise ProtocolError(f"malformed inline graph: {exc}") from exc

    async def _handle_kernel(
        self, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> np.ndarray:
        coalescer = self._owner.coalescer
        if coalescer is None:
            raise ProtocolError("server not started", status=503)
        A = self._resolve_adjacency(meta, arrays)
        try:
            deadline_ms = resolve_deadline_ms(
                meta.get("deadline_ms"), self.config.default_deadline_ms
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"invalid deadline_ms: {meta.get('deadline_ms')!r}"
            ) from exc
        request = KernelRequest(
            A=A,
            X=arrays.get("x"),
            Y=arrays.get("y"),
            pattern=str(meta.get("pattern", "sigmoid_embedding")),
            backend=str(meta.get("backend", "auto")),
        )
        return await coalescer.submit(request, deadline_ms=deadline_ms)

    def _handle_embed(
        self, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> np.ndarray:
        model = meta.get("model")
        if not model:
            raise ProtocolError("embed frame needs 'model'")
        ids = meta.get("ids")
        if "ids" in arrays:
            id_array: Optional[np.ndarray] = arrays["ids"].astype(
                np.int64, copy=False
            )
        elif ids is not None:
            try:
                id_array = np.asarray(ids, dtype=np.int64)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid ids: {exc}") from exc
        else:
            id_array = None
        return self._owner.registry.embeddings(str(model), id_array)


# ---------------------------------------------------------------------- #
# Client
# ---------------------------------------------------------------------- #
class WireClient:
    """Blocking wire-protocol client with explicit pipelining.

    One-shot use mirrors :class:`~repro.serve.client.ServeClient`::

        with WireClient(port=wire_port) as client:
            Z = client.kernel(model="cora-f2v", x=X)

    Pipelined use separates submission from collection — up to
    :attr:`credits` requests may be outstanding::

        ids = [client.send_kernel(model="m", x=x) for x in chunk]
        for _ in ids:
            rid, value = client.recv()   # completion order

    ``recv`` returns ``(request_id, ndarray)`` for results and
    ``(request_id, ServeError)`` for error frames — pipelined callers
    need per-request failures, not an exception that aborts the batch.

    ``retry=`` arms opt-in policy-driven retries on the *convenience*
    calls (:meth:`kernel`, :meth:`embed`, :meth:`statz`): connection
    failures reconnect and re-send under the
    :class:`~repro.resilience.RetryPolicy`, and transient admission
    errors (429 queue-full, 503 draining) are re-sent after backoff.
    Safe because those calls are pure.  Explicit pipelining
    (``send_*``/``recv``) is never retried implicitly — a reconnect
    would silently drop the other outstanding responses — and a
    convenience call with other requests still pending raises instead
    of retrying for the same reason.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self.retry = retry
        self.retries_attempted = 0
        self._next_id = 1
        self._pending: "set[int]" = set()
        self._ready: Dict[int, object] = {}
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._dial()

    def _dial(self) -> None:
        self._sock = socket.create_connection(
            self._address, timeout=self._timeout
        )
        self._sock.settimeout(self._timeout)
        self._rfile = self._sock.makefile("rb")
        opcode, _, payload = self._read_frame()
        if opcode != OP_HELLO:
            raise ProtocolError(
                f"expected HELLO frame, got opcode 0x{opcode:02x}"
            )
        meta, _ = decode_payload(payload)
        #: the server's per-connection pipelining grant
        self.credits = int(meta.get("credits", 1))
        self.max_payload = int(meta.get("max_payload", 64 * 1024 * 1024))

    def _reconnect(self) -> None:
        """Fresh socket + HELLO; outstanding ids of the dead connection
        are forgotten (their responses can never arrive)."""
        try:
            self.close()
        except OSError:  # pragma: no cover - teardown race
            pass
        self._pending.clear()
        self._dial()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        try:
            if self._rfile is not None:
                self._rfile.close()
        finally:
            if self._sock is not None:
                self._sock.close()

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------ #
    def _read_frame(self) -> Tuple[int, int, bytes]:
        frame = WIRE_CODEC.read_frame(self._rfile)
        if frame is None:
            # A response is always owed when this is called, so even a
            # frame-boundary EOF is the server hanging up on us.
            raise ConnectionError(
                "connection closed while waiting for a response frame"
            )
        return frame

    def _send(self, opcode: int, meta: dict, arrays: Dict[str, np.ndarray]) -> int:
        if len(self._pending) >= self.credits:
            raise RuntimeError(
                f"out of credits: {self.credits} requests already "
                "outstanding; recv() before sending more"
            )
        request_id = self._next_id
        self._next_id += 1
        self._sock.sendall(
            pack_frame(opcode, request_id, encode_payload(meta, arrays))
        )
        self._pending.add(request_id)
        return request_id

    # ------------------------------------------------------------------ #
    def send_kernel(
        self,
        *,
        model: Optional[str] = None,
        graph=None,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        X: Optional[np.ndarray] = None,
        Y: Optional[np.ndarray] = None,
        pattern: str = "sigmoid_embedding",
        backend: str = "auto",
        deadline_ms: Optional[float] = None,
    ) -> int:
        """Pipeline one kernel request; returns its request-id.

        Operands are accepted under either spelling (``x``/``X``,
        ``y``/``Y``) so :func:`repro.serve.connect` callers can use one
        spelling against both transports.
        """
        if X is not None:
            x = X
        if Y is not None:
            y = Y
        meta: Dict[str, object] = {"pattern": pattern, "backend": backend}
        if deadline_ms is not None:
            meta["deadline_ms"] = deadline_ms
        arrays: Dict[str, np.ndarray] = {}
        if model is not None:
            meta["model"] = model
        elif graph is not None:
            meta["graph_shape"] = list(graph.shape)
            arrays["indptr"] = np.asarray(graph.indptr)
            arrays["indices"] = np.asarray(graph.indices)
            arrays["data"] = np.asarray(graph.data)
        if x is not None:
            arrays["x"] = np.asarray(x)
        if y is not None:
            arrays["y"] = np.asarray(y)
        return self._send(OP_KERNEL, meta, arrays)

    def send_embed(
        self, model: str, ids: Optional[object] = None
    ) -> int:
        """Pipeline one embedding lookup; returns its request-id."""
        meta: Dict[str, object] = {"model": model}
        arrays: Dict[str, np.ndarray] = {}
        if ids is not None:
            arrays["ids"] = np.asarray(ids, dtype=np.int64)
        return self._send(OP_EMBED, meta, arrays)

    def send_statz(self) -> int:
        """Pipeline one stats snapshot request; returns its request-id."""
        return self._send(OP_STATZ, {}, {})

    def send_train(self, **spec) -> int:
        """Pipeline one training-job submission; returns its request-id.
        ``spec`` is the :class:`~repro.jobs.JobSpec` document."""
        return self._send(OP_TRAIN, dict(spec), {})

    def send_job(self, action: str, job_id: Optional[str] = None) -> int:
        """Pipeline one job query (status/list/cancel/result)."""
        meta: Dict[str, object] = {"action": action}
        if job_id is not None:
            meta["job_id"] = job_id
        return self._send(OP_JOB, meta, {})

    def send_mutate(
        self,
        model: str,
        insert: Optional[object] = None,
        delete: Optional[object] = None,
    ) -> int:
        """Pipeline one edge-batch mutation; returns its request-id.

        ``insert`` rows are ``(u, v, weight)`` triples; ``delete`` rows
        are ``(u, v)`` pairs.  Endpoints must be integer-valued.
        """
        arrays: Dict[str, np.ndarray] = {}
        if insert is not None:
            arrays["insert"] = np.asarray(insert, dtype=np.float64).reshape(-1, 3)
        if delete is not None:
            arrays["delete"] = np.asarray(delete, dtype=np.float64).reshape(-1, 2)
        return self._send(OP_MUTATE, {"model": model}, arrays)

    def recv(self) -> Tuple[int, object]:
        """The next response in completion order.

        Returns ``(request_id, ndarray)`` for kernel/embed results,
        ``(request_id, dict)`` for meta-only results (statz), or
        ``(request_id, ServeError)`` for error frames.  A status-400
        error frame with request-id 0 (a connection-level protocol
        violation) is raised immediately — the server has already hung
        up.
        """
        opcode, request_id, payload = self._read_frame()
        meta, arrays = decode_payload(payload)
        if opcode == OP_RESULT:
            self._pending.discard(request_id)
            return request_id, arrays["z"] if "z" in arrays else meta
        if opcode == OP_ERROR:
            error = error_from_meta(meta)
            if request_id == 0:
                # Connection-level failure, not a per-request one.
                raise error
            self._pending.discard(request_id)
            return request_id, error
        raise ProtocolError(f"unexpected response opcode 0x{opcode:02x}")

    def _wait_for(self, request_id: int) -> object:
        if request_id in self._ready:
            return self._ready.pop(request_id)
        while True:
            rid, value = self.recv()
            if rid == request_id:
                return value
            self._ready[rid] = value

    # ------------------------------------------------------------------ #
    #: Transient admission statuses worth re-sending under a policy —
    #: the request was shed at the door, never executed.
    _RETRYABLE_STATUSES = frozenset({429, 503})

    def _call(self, send_fn) -> object:
        """Submit-and-wait with the optional retry policy applied."""
        state = self.retry.start() if self.retry is not None else None
        need_reconnect = False
        while True:
            try:
                if need_reconnect:
                    self._reconnect()
                    need_reconnect = False
                value = self._wait_for(send_fn())
            except (ProtocolError, ConnectionError, OSError):
                if state is None or len(self._pending) > 1:
                    # No policy, or other pipelined requests would lose
                    # their responses in a reconnect: propagate.
                    raise
                delay = state.next_delay()
                if delay is None:
                    raise
                self.retries_attempted += 1
                need_reconnect = True
                time.sleep(delay)
                continue
            if isinstance(value, Exception):
                status = getattr(value, "http_status", None)
                if (
                    state is not None
                    and status in self._RETRYABLE_STATUSES
                ):
                    delay = state.next_delay()
                    if delay is not None:
                        self.retries_attempted += 1
                        time.sleep(delay)
                        continue
                raise value
            return value

    def kernel(self, **kwargs) -> np.ndarray:
        """Submit one kernel request and wait for its result."""
        return self._call(lambda: self.send_kernel(**kwargs))

    def embed(self, model: str, ids: Optional[object] = None) -> np.ndarray:
        """Fetch rows of a model's servable output matrix."""
        return self._call(lambda: self.send_embed(model, ids))

    def statz(self) -> dict:
        """Fetch the server's stats snapshot (mirrors ``GET /statz``)."""
        value = self._call(self.send_statz)
        return dict(value.get("statz", {}))

    # ------------------------------------------------------------------ #
    # Training jobs (mirror POST /v1/train and /v1/jobs/*)
    # ------------------------------------------------------------------ #
    def train(self, **spec) -> dict:
        """Submit a training job; returns ``{"job_id": ..., "state": ...}``.

        Deliberately *not* retried on transport failure even with a
        policy armed: a submission is not idempotent — a resend after an
        ambiguous failure could start the job twice.
        """
        value = self._wait_for(self.send_train(**spec))
        if isinstance(value, Exception):
            raise value
        return dict(value)

    def mutate(
        self,
        model: str,
        insert: Optional[object] = None,
        delete: Optional[object] = None,
    ) -> dict:
        """Apply one edge batch to a registered graph; returns the
        mutation document (new version, fingerprint, edge counts).

        Like :meth:`train`, deliberately *not* retried on transport
        failure: a resend after an ambiguous failure would apply the
        batch twice (inserts upsert, but deletes-then-reinserts and the
        version counter are not idempotent).
        """
        value = self._wait_for(self.send_mutate(model, insert, delete))
        if isinstance(value, Exception):
            raise value
        return dict(value)

    def job(self, job_id: str) -> dict:
        """Status + per-epoch progress of one job."""
        value = self._call(lambda: self.send_job("status", job_id))
        return dict(value["job"])

    def jobs(self) -> list:
        """Summaries of every known job."""
        value = self._call(lambda: self.send_job("list"))
        return list(value["jobs"])

    def cancel_job(self, job_id: str) -> dict:
        """Request cancellation; returns the job document."""
        value = self._call(lambda: self.send_job("cancel", job_id))
        return dict(value["job"])

    def job_result(self, job_id: str) -> np.ndarray:
        """The completed job's output matrix."""
        return self._call(lambda: self.send_job("result", job_id))
