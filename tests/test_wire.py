"""Binary wire protocol: frame codec, flow control, transport equivalence.

Covers the framed transport at three levels: pure codec (header/payload
round trips, every malformed-frame class), a live server over real
sockets (pipelining, credit enforcement, drain behaviour), and a
hypothesis property that the wire and HTTP front-ends answer identical
requests with bitwise-identical bytes — the transports share one
coalescer, so divergence would mean one of them corrupted a payload.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fused import fusedmm
from repro.errors import DrainingError, ServeError
from repro.serve import ProtocolError, ServeClient, ServeConfig, WireClient
from repro.serve.runner import BackgroundServer
from repro.serve.wire import (
    FRAME_HEADER,
    OP_ERROR,
    OP_HELLO,
    OP_KERNEL,
    OP_RESULT,
    WIRE_MAGIC,
    WIRE_VERSION,
    _read_frame,
    decode_payload,
    encode_payload,
    pack_frame,
    unpack_header,
)
from repro.sparse import random_csr

from _helpers import make_xy


def _mk_problem(n: int, d: int, seed: int, dtype=np.float32):
    A = random_csr(n, n, density=min(1.0, 4.0 / max(n, 1)), seed=seed)
    X, Y = make_xy(A, d, seed=seed)
    return A, X.astype(dtype), Y.astype(dtype)


# ---------------------------------------------------------------------- #
# Frame + payload codec
# ---------------------------------------------------------------------- #
class TestFrameCodec:
    def test_header_round_trip(self):
        frame = pack_frame(OP_KERNEL, 0xDEADBEEF, b"abc")
        assert len(frame) == FRAME_HEADER.size + 3
        opcode, request_id, length = unpack_header(frame[: FRAME_HEADER.size])
        assert (opcode, request_id, length) == (OP_KERNEL, 0xDEADBEEF, 3)

    def test_bad_magic_and_version_rejected(self):
        good = pack_frame(OP_RESULT, 1, b"")[: FRAME_HEADER.size]
        with pytest.raises(ProtocolError, match="magic"):
            unpack_header(b"XX" + good[2:])
        bad_version = FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION + 9, OP_RESULT, 1, 0)
        with pytest.raises(ProtocolError, match="version"):
            unpack_header(bad_version)

    def test_payload_round_trip_bitwise(self, rng):
        arrays = {
            "x": rng.normal(size=(5, 3)).astype(np.float32),
            "y": rng.normal(size=(4, 2)).astype(np.float64),
            "ids": np.arange(7, dtype=np.int64),
        }
        meta, out = decode_payload(
            encode_payload({"pattern": "gcn", "deadline_ms": 0}, arrays)
        )
        assert meta["pattern"] == "gcn"
        assert meta["deadline_ms"] == 0
        assert meta["arrays"] == ["x", "y", "ids"]
        for name, arr in arrays.items():
            assert out[name].dtype == arr.dtype
            np.testing.assert_array_equal(out[name], arr)

    def test_truncated_and_trailing_payloads_rejected(self, rng):
        blob = encode_payload(
            {"k": 1}, {"x": rng.normal(size=(3, 2)).astype(np.float32)}
        )
        for cut in (2, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ProtocolError, match="truncated"):
                decode_payload(blob[:cut])
        with pytest.raises(ProtocolError, match="trailing"):
            decode_payload(blob + b"x")
        with pytest.raises(ProtocolError, match="meta"):
            decode_payload(b"\x00\x00\x00\x02{]")

    def _read(self, raw: bytes, **kwargs):
        async def _run():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await _read_frame(reader, **kwargs)

        return asyncio.run(_run())

    def test_read_frame_eof_truncation_and_cap(self):
        # Clean EOF at a frame boundary is a normal hang-up...
        assert self._read(b"", max_payload=100) is None
        # ...EOF mid-header or mid-payload is not.
        with pytest.raises(ProtocolError, match="truncated"):
            self._read(pack_frame(OP_KERNEL, 1, b"")[:7], max_payload=100)
        with pytest.raises(ProtocolError, match="truncated"):
            self._read(pack_frame(OP_KERNEL, 1, b"abcdef")[:-2], max_payload=100)
        # Oversized frames answer 413 before any payload is buffered.
        with pytest.raises(ProtocolError) as exc:
            self._read(pack_frame(OP_KERNEL, 1, b"x" * 50), max_payload=10)
        assert exc.value.status == 413

    def test_read_frame_round_trip(self):
        payload = encode_payload({"status": 200})
        frame = self._read(pack_frame(OP_RESULT, 42, payload), max_payload=1 << 20)
        assert frame == (OP_RESULT, 42, payload)


# ---------------------------------------------------------------------- #
# Live server: pipelining + flow control over real sockets
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def wire_server():
    config = ServeConfig(
        port=0,
        wire_port=0,
        wire_credits=8,
        models=(),
        max_batch=8,
        max_wait_ms=2.0,
    )
    bg = BackgroundServer(config)
    A = random_csr(48, 48, density=0.1, seed=3)
    bg.server.registry.register_graph("g", A)
    with bg:
        yield bg, A


class TestWireEndToEnd:
    def test_hello_grants_credits(self, wire_server):
        bg, _A = wire_server
        with WireClient(bg.host, bg.wire_port) as client:
            assert client.credits == 8
            assert client.outstanding == 0

    def test_kernel_bitwise_and_statz_surfacing(self, wire_server):
        bg, A = wire_server
        X, Y = make_xy(A, 4, seed=1)
        expected = fusedmm(A, X, Y, pattern="sigmoid_embedding")
        with WireClient(bg.host, bg.wire_port) as client:
            Z = client.kernel(model="g", x=X, y=Y)
            np.testing.assert_array_equal(Z, expected)
            assert Z.dtype == expected.dtype
        stats = bg.server.statz()
        assert stats["wire"]["frames_served"] >= 1
        assert stats["wire"]["port"] == bg.wire_port

    def test_inline_graph_kernel(self, wire_server):
        bg, _A = wire_server
        A, X, Y = _mk_problem(30, 4, 11)
        expected = fusedmm(A, X, Y, pattern="gcn")
        with WireClient(bg.host, bg.wire_port) as client:
            Z = client.kernel(graph=A, x=X, y=Y, pattern="gcn")
            np.testing.assert_array_equal(Z, expected)

    def test_pipelined_responses_complete_out_of_order(self, wire_server):
        """Responses are matched by request-id, not arrival order: waiting
        on the *last* submitted id first forces the client to buffer any
        earlier responses, which must then resolve from the buffer."""
        bg, A = wire_server
        X, _ = make_xy(A, 4, seed=2)
        expected = fusedmm(A, X, X, pattern="sigmoid_embedding")
        with WireClient(bg.host, bg.wire_port) as client:
            rids = [client.send_kernel(model="g", x=X) for _ in range(5)]
            assert client.outstanding == 5
            # Deliberately collect in reverse submission order.
            for rid in reversed(rids):
                value = client._wait_for(rid)
                assert not isinstance(value, Exception)
                np.testing.assert_array_equal(value, expected)
            assert client.outstanding == 0

    def test_client_side_credit_guard(self, wire_server):
        bg, A = wire_server
        X, _ = make_xy(A, 4, seed=4)
        with WireClient(bg.host, bg.wire_port) as client:
            rids = [
                client.send_kernel(model="g", x=X) for _ in range(client.credits)
            ]
            with pytest.raises(RuntimeError, match="credits"):
                client.send_kernel(model="g", x=X)
            for _ in rids:
                rid, value = client.recv()
                assert not isinstance(value, Exception)

    def test_error_frames_carry_typed_statuses(self, wire_server):
        bg, A = wire_server
        X, _ = make_xy(A, 4, seed=5)
        with WireClient(bg.host, bg.wire_port) as client:
            with pytest.raises(ServeError) as exc:
                client.kernel(model="no-such-graph", x=X)
            assert exc.value.http_status == 404
            with pytest.raises(ServeError) as exc:
                client.kernel(model="g", x=X, pattern="nope")
            assert exc.value.http_status == 400
            # The connection survives per-request errors.
            Z = client.kernel(model="g", x=X)
            np.testing.assert_array_equal(
                Z, fusedmm(A, X, X, pattern="sigmoid_embedding")
            )

    def test_server_enforces_credit_limit(self):
        """A client writing past its grant gets a status-400 error frame
        (not 429 — protocol misuse, not load) and loses the connection."""
        config = ServeConfig(
            port=0,
            wire_port=0,
            wire_credits=2,
            models=(),
            max_batch=64,
            max_wait_ms=500.0,
            idle_flush_ms=0.0,
        )
        bg = BackgroundServer(config)
        A = random_csr(32, 32, density=0.1, seed=6)
        bg.server.registry.register_graph("g", A)
        X, _ = make_xy(A, 4, seed=6)
        with bg:
            with WireClient(bg.host, bg.wire_port) as client:
                # Bypass the client-side guard: write three raw frames
                # while the 500ms window parks the first two unanswered.
                for rid in (101, 102, 103):
                    client._sock.sendall(
                        pack_frame(
                            OP_KERNEL,
                            rid,
                            encode_payload(
                                {"model": "g", "pattern": "sigmoid_embedding"},
                                {"x": X},
                            ),
                        )
                    )
                # The violation is answered before either parked request
                # completes, as a connection-level (id 0) error frame.
                with pytest.raises(ServeError, match="credit") as exc:
                    while True:
                        client.recv()
            assert exc.value.http_status == 400
            stats = bg.server.statz()
            assert stats["wire"]["protocol_errors"] == 1

    def test_drain_answers_new_frames_with_503(self):
        """Frames arriving while the coalescer drains get DrainingError
        frames on a live connection — never silence or a dead socket."""
        config = ServeConfig(
            port=0,
            wire_port=0,
            models=(),
            max_batch=8,
            max_wait_ms=2.0,
        )
        bg = BackgroundServer(config)
        A = random_csr(32, 32, density=0.1, seed=7)
        bg.server.registry.register_graph("g", A)
        X, _ = make_xy(A, 4, seed=7)
        with bg:
            with WireClient(bg.host, bg.wire_port) as client:
                Z = client.kernel(model="g", x=X)  # connection is live
                np.testing.assert_array_equal(
                    Z, fusedmm(A, X, X, pattern="sigmoid_embedding")
                )
                bg.run_coroutine(bg.server.coalescer.drain())
                for _ in range(2):
                    rid = client.send_kernel(model="g", x=X)
                    got_rid, value = client.recv()
                    assert got_rid == rid
                    assert isinstance(value, DrainingError)
                    assert value.http_status == 503

    def test_mid_pipeline_drain_answers_every_outstanding_id(self):
        """Drain beginning with requests pipelined: each outstanding id is
        answered (result or 503) before the server hangs up."""
        config = ServeConfig(
            port=0,
            wire_port=0,
            wire_credits=8,
            models=(),
            max_batch=64,
            max_wait_ms=50.0,
            idle_flush_ms=0.0,
        )
        bg = BackgroundServer(config)
        A = random_csr(32, 32, density=0.1, seed=8)
        bg.server.registry.register_graph("g", A)
        X, _ = make_xy(A, 4, seed=8)
        expected = fusedmm(A, X, X, pattern="sigmoid_embedding")
        with bg:
            with WireClient(bg.host, bg.wire_port) as client:
                rids = {client.send_kernel(model="g", x=X) for _ in range(4)}
                # Shutdown from another thread while all four sit in the
                # open 50ms window.
                stopper = threading.Thread(target=bg.stop)
                t0 = time.monotonic()
                stopper.start()
                answered = {}
                for _ in range(len(rids)):
                    rid, value = client.recv()
                    answered[rid] = value
                stopper.join()
                # The idle connection is hung up once drained, not held
                # for the whole drain_timeout_s grace.
                assert time.monotonic() - t0 < config.drain_timeout_s / 2
            assert set(answered) == rids
            for value in answered.values():
                if isinstance(value, Exception):
                    assert isinstance(value, DrainingError)
                else:
                    np.testing.assert_array_equal(value, expected)


# ---------------------------------------------------------------------- #
# Wire ≡ HTTP: the transports answer with identical bytes
# ---------------------------------------------------------------------- #
class TestTransportEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 50),
        n=st.integers(8, 60),
        d=st.sampled_from([1, 3, 8]),
        dtype=st.sampled_from([np.float32, np.float64]),
        pattern=st.sampled_from(["sigmoid_embedding", "gcn", "spmm"]),
    )
    def test_wire_and_http_bitwise_equal(
        self, wire_server, seed, n, d, dtype, pattern
    ):
        bg, _A = wire_server
        A, X, Y = _mk_problem(n, d, seed, dtype)
        expected = fusedmm(A, X, Y, pattern=pattern)
        with WireClient(bg.host, bg.wire_port) as wire:
            Z_wire = wire.kernel(graph=A, x=X, y=Y, pattern=pattern)
        with ServeClient(bg.host, bg.port) as http:
            Z_http = http.kernel(graph=A, X=X, Y=Y, pattern=pattern, binary=True)
        assert Z_wire.dtype == Z_http.dtype == expected.dtype
        np.testing.assert_array_equal(Z_wire, Z_http)
        np.testing.assert_array_equal(Z_wire, expected)

    def test_hello_and_error_opcodes_reserved(self):
        # Opcode values are wire ABI: renumbering breaks deployed clients.
        assert (OP_HELLO, OP_KERNEL, OP_RESULT, OP_ERROR) == (
            0x01,
            0x10,
            0x20,
            0x21,
        )
