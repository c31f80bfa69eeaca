"""Wire fuzz for binary chunk frames.

A valid chunk frame is ``[4-byte length]`` ``\\x00`` ``[4-byte header
length][JSON header][float64 samples]``.  Each example breaks one of
its rules on a fresh connection to a listening service — the
single-process :class:`DetectionService` and a 1-worker
:class:`ServiceShardPool` — and checks the documented answer:

* a frame that cannot be parsed (truncated, a header length past the
  payload, a declared length that differs from the tail, a tail on a
  non-chunk op) gets a coded ``protocol`` error frame, then the server
  hangs up; a stream cut inside a frame is closed without a reply;
* a parsed chunk the service cannot take (version 1's base64 ``data``
  string, NaN or inf samples) gets a coded ``protocol`` error frame and
  the connection stays usable.

Throughout, the listener keeps accepting, and a bystander session on a
second connection streams a whole record to the batch decisions.
"""

import asyncio
import base64
import json
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import (
    DetectionService,
    ServiceConfig,
    ServiceShardPool,
    batch_window_decisions,
)
from repro.service.client import ServiceClient
from repro.service.framing import PROTOCOL_VERSION, chunk_message, encode_frame

FS = 256
_LEN = struct.Struct(">I")
FUZZ_SESSION = "fuzz"
NON_CHUNK_OPS = ["open", "poll", "close", "telemetry", "hello", "swap_detector", "x"]


class _Served:
    """A service listening from its own event-loop thread, so blocking
    clients can talk to it across many examples."""

    def __init__(self, factory) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.service = self.call(self._make(factory))
        self.host, self.port = self.call(self.service.serve())

    @staticmethod
    async def _make(factory):
        return factory()

    def call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout=120)

    def stop(self) -> None:
        try:
            self.call(self.service.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=60)
            self.loop.close()


@pytest.fixture(scope="module", params=["single", "pool"])
def served(request):
    config = ServiceConfig(queue_depth=512)
    if request.param == "single":
        running = _Served(lambda: DetectionService(config))
    else:
        running = _Served(lambda: ServiceShardPool(config))
    yield running
    running.stop()


def _recv_exactly(sock, n):
    data = b""
    while len(data) < n:
        part = sock.recv(n - len(data))
        if not part:
            return None
        data += part
    return data


def _read_reply(sock):
    """One reply frame as a dict, or ``None`` when the server hung up."""
    head = _recv_exactly(sock, _LEN.size)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    body = _recv_exactly(sock, length)
    assert body is not None, "server hung up inside a reply frame"
    return json.loads(body)


def _connect(served):
    # A healthy service answers in milliseconds; a reply or hang-up that
    # never comes fails the example instead of stalling the run.
    sock = socket.create_connection((served.host, served.port), timeout=5)
    sock.sendall(encode_frame({"op": "hello", "version": PROTOCOL_VERSION}))
    assert _read_reply(sock)["ok"]
    return sock


def _binary(header: dict, tail: bytes, header_length=None) -> bytes:
    """A binary payload with a hand-set header and tail."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    size = len(text) if header_length is None else header_length
    return b"\x00" + _LEN.pack(size) + text + tail


def _frame(payload: bytes) -> bytes:
    return _LEN.pack(len(payload)) + payload


def _chunk(draw, special=None) -> np.ndarray:
    n = draw(st.integers(min_value=1, max_value=3 * FS))
    samples = np.random.default_rng(n).normal(scale=30.0, size=(2, n))
    if special is not None:
        samples[draw(st.integers(0, 1)), draw(st.integers(0, n - 1))] = special
    return samples


@st.composite
def broken_frames(draw):
    """``(case, bytes to send, half-close after sending)``."""
    case = draw(st.sampled_from([
        "truncated", "truncated-payload", "header-overrun", "declared",
        "non-chunk-tail", "base64", "non-finite",
    ]))
    good = encode_frame(chunk_message(FUZZ_SESSION, None, _chunk(draw)))
    payload = good[_LEN.size :]
    if case == "truncated":
        # The stream ends inside the frame: no request to answer.
        return case, good[: draw(st.integers(0, len(good) - 1))], True
    if case == "truncated-payload":
        cut = draw(st.integers(0, len(payload) - 1))
        return case, _frame(payload[:cut]), False
    (size,) = _LEN.unpack_from(payload, 1)
    header = json.loads(payload[1 + _LEN.size : 1 + _LEN.size + size])
    tail = payload[1 + _LEN.size + size :]
    if case == "header-overrun":
        past = len(payload) - 1 - _LEN.size + 1
        size = draw(st.integers(past, 2**32 - 1))
        return case, _frame(_binary(header, tail, size)), False
    if case == "declared":
        declared = draw(st.one_of(
            st.integers(0, 2**40).filter(lambda v: v != len(tail)),
            st.sampled_from([None, True, "16", float(len(tail)), [len(tail)]]),
        ))
        return case, _frame(_binary(dict(header, data=declared), tail)), False
    if case == "non-chunk-tail":
        op = draw(st.sampled_from(NON_CHUNK_OPS))
        return case, _frame(_binary(dict(header, op=op), tail)), False
    if case == "base64":
        # A version-1 chunk: samples as base64 text inside the JSON.
        legacy = dict(header, data=base64.b64encode(tail).decode("ascii"))
        return case, _frame(json.dumps(legacy).encode()), False
    special = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    frame = encode_frame(chunk_message(FUZZ_SESSION, None, _chunk(draw, special)))
    return case, frame, False


def _is_protocol_error(reply) -> bool:
    return (
        isinstance(reply, dict)
        and reply.get("ok") is False
        and reply.get("code") == "protocol"
    )


class TestBinaryChunkFuzz:
    def test_broken_frames_get_protocol_errors(self, served, sample_record):
        data = sample_record.data
        step = 2 * FS
        with ServiceClient(served.host, served.port) as bystander, ServiceClient(
            served.host, served.port
        ) as owner:
            owner.open(FUZZ_SESSION)
            bystander.open("bystander")
            pushed = 0
            events = []

            def bystander_step():
                nonlocal pushed
                if pushed < data.shape[1]:
                    chunk = data[:, pushed : pushed + step]
                    assert bystander.push("bystander", chunk, seq=pushed // step).accepted
                    pushed += chunk.shape[1]
                events.extend(bystander.poll("bystander"))

            @settings(
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            )
            @given(broken=broken_frames())
            def check(broken):
                case, frame, half_close = broken
                sock = _connect(served)  # the listener is still accepting
                try:
                    sock.sendall(frame)
                    if half_close:
                        sock.shutdown(socket.SHUT_WR)
                    reply = _read_reply(sock)
                    if case == "truncated":
                        assert reply is None
                    else:
                        assert _is_protocol_error(reply), (case, reply)
                    if case in ("base64", "non-finite"):
                        # A per-request error: the connection stays usable.
                        sock.sendall(encode_frame({"op": "poll", "session": FUZZ_SESSION}))
                        assert _read_reply(sock) == {"ok": True, "events": []}
                    elif reply is not None:
                        # A framing error: the server hung up after replying.
                        assert _read_reply(sock) is None
                finally:
                    sock.close()
                bystander_step()

            check()
            while pushed < data.shape[1]:
                bystander_step()
            summary = bystander.close("bystander")
            events.extend(summary.trailing_events)
            assert owner.close(FUZZ_SESSION).windows == 0
        assert events == batch_window_decisions(sample_record)


class TestChunkCodec:
    def test_round_trip_owns_its_samples(self):
        from repro.service.framing import decode_chunk, decode_payload

        samples = np.random.default_rng(3).normal(size=(2, 1024))
        frame = encode_frame(chunk_message("s", 4, samples))
        assert frame[_LEN.size] == 0
        message = decode_payload(frame[_LEN.size :])
        assert message["data"].nbytes == samples.nbytes
        decoded = decode_chunk(message)
        assert np.array_equal(decoded.view(np.int64), samples.view(np.int64))
        # A copy: the journal may still hold the payload it came from.
        assert decoded.flags.owndata and decoded.flags.writeable
        # The frame is 4 + 1 + 4 bytes of prefixes, the header, the samples.
        header = {"data": samples.nbytes, "op": "chunk", "seq": 4, "session": "s",
                  "shape": [2, 1024]}
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert len(frame) == 9 + len(text) + samples.nbytes

    def test_other_frames_stay_json(self):
        message = {"op": "poll", "session": "p", "max": 2}
        text = json.dumps(message, sort_keys=True, separators=(",", ":")).encode()
        assert encode_frame(message) == _LEN.pack(len(text)) + text
