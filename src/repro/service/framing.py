"""The service's wire codec: length-prefixed frames, shared by every
transport.

One frame is ``[4-byte big-endian payload length][payload]``.  Every
payload is a UTF-8 JSON object, except a ``chunk``'s: its samples
travel as raw bytes behind a small JSON header,

``b"\\x00"`` ``[4-byte header length]`` ``[sorted-key JSON header]``
``[row-major float64 samples]``,

where the header's ``data`` field holds the sample byte count.  No
JSON payload can begin with ``\\x00``, so the first byte tells the two
forms apart.  In memory a chunk frame is a dict like any other, with
the samples as a bytes-like ``data`` value: :func:`encode_frame` writes
a dict whose ``data`` is bytes-like in the binary form, and
:func:`decode_payload` gives the tail back as a read-only
``memoryview`` of the payload.

The codec grew up inside :mod:`repro.service.ingest` for the client
socket protocol; the multi-process shard pool (:mod:`repro.service
.fleet`) speaks the *same* frames over its parent↔worker pipes and
keeps them in its re-home journal, so the encode/decode/limit logic
lives here once and both transports import it — a frame captured on
either wire is readable by the same tooling.

Two I/O flavors cover both sides of the shard boundary:

* :func:`read_frame` / :func:`write_frame` — asyncio streams (the
  parent process: client listener and per-shard pipe clients);
* :func:`read_frame_sync` / :func:`write_frame_sync` — blocking binary
  file objects (the single-threaded shard worker loop).

Both enforce :data:`MAX_FRAME_BYTES` and the same payload validation,
raising :class:`~repro.exceptions.ServiceError` on violations; a clean
EOF reads as ``None`` so callers can tell "peer hung up" from "peer
sent garbage".

:func:`chunk_message` / :func:`decode_chunk` are the only sample
encode/decode pair, so the parent can route a client's chunk frame to
a shard verbatim and the shard decodes it exactly as the
single-process service would.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import BinaryIO

import numpy as np

from ..exceptions import (
    AuthError,
    BackpressureError,
    QuotaError,
    ServiceError,
    ServiceErrorCode,
    ShardDeathError,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "chunk_message",
    "decode_chunk",
    "decode_payload",
    "encode_frame",
    "error_frame",
    "exception_for",
    "read_frame",
    "read_frame_sync",
    "write_frame",
    "write_frame_sync",
]

#: Upper bound of one frame's payload; a length prefix past this is
#: treated as a protocol violation (protects the server from a single
#: garbage frame allocating gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Version of the socket protocol a ``hello`` handshake names.  Version
#: 2 carries chunk samples as a raw float64 tail (version 1 sent them as
#: base64 inside the JSON).  Clients that send no hello speak the same
#: frames; they stay accepted while the service has auth disabled.
PROTOCOL_VERSION = 2

_LEN = struct.Struct(">I")

#: First byte of a binary chunk payload, followed by the header length.
_CHUNK_MARK = b"\x00"
_CHUNK_HEAD = len(_CHUNK_MARK) + _LEN.size

_BYTES_LIKE = (bytes, bytearray, memoryview)


def _json(message: dict) -> bytes:
    return json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def encode_frame(message: dict) -> bytes:
    """One canonical frame: length prefix + compact sorted-key JSON, or
    for a message whose ``data`` is bytes-like, the binary chunk form
    (JSON header with ``data`` as the byte count, then the bytes)."""
    data = message.get("data")
    if isinstance(data, _BYTES_LIKE):
        header = _json({**message, "data": len(data)})
        return b"".join((
            _LEN.pack(_CHUNK_HEAD + len(header) + len(data)),
            _CHUNK_MARK,
            _LEN.pack(len(header)),
            header,
            data,
        ))
    payload = _json(message)
    return _LEN.pack(len(payload)) + payload


def _json_object(text: bytes) -> dict:
    try:
        message = json.loads(str(text, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed frame: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError("frame payload must be a JSON object")
    return message


def decode_payload(payload: bytes) -> dict:
    """Parse and validate one frame's payload bytes: a JSON object, or a
    chunk's JSON header with its sample tail as ``data``."""
    if payload[:1] != _CHUNK_MARK:
        return _json_object(payload)
    if len(payload) < _CHUNK_HEAD:
        raise ServiceError("malformed frame: truncated chunk header")
    (size,) = _LEN.unpack_from(payload, len(_CHUNK_MARK))
    start = _CHUNK_HEAD + size
    if start > len(payload):
        raise ServiceError(
            f"malformed frame: chunk header of {size} bytes overruns "
            f"the {len(payload)}-byte payload"
        )
    message = _json_object(payload[_CHUNK_HEAD:start])
    if message.get("op") != "chunk":
        raise ServiceError(
            f"malformed frame: op {message.get('op')!r} carries a "
            f"binary tail; only chunk frames do"
        )
    declared = message.get("data")
    tail = len(payload) - start
    if type(declared) is not int or declared != tail:
        raise ServiceError(
            f"malformed frame: chunk header declares {declared!r} "
            f"sample bytes, the payload carries {tail}"
        )
    message["data"] = memoryview(payload)[start:]
    return message


#: code string -> exception class, the inverse of ``exc.code`` for
#: clients rebuilding a typed exception from a wire error frame.
_CODE_CLASSES: dict[str, type[ServiceError]] = {
    ServiceErrorCode.AUTH.value: AuthError,
    ServiceErrorCode.QUOTA.value: QuotaError,
    ServiceErrorCode.BACKPRESSURE.value: BackpressureError,
    ServiceErrorCode.PROTOCOL.value: ServiceError,
    ServiceErrorCode.SHARD_DEATH.value: ShardDeathError,
}


def error_frame(
    exc: Exception | str, code: ServiceErrorCode | None = None
) -> dict:
    """The one structured error frame: ``{"ok": False, "error", "code"}``.

    Every error any transport emits is built here so the ``code`` field
    is never forgotten.  Pass an exception (a :class:`ServiceError`'s
    class carries its code; anything else is ``protocol``) or a bare
    message, plus an optional explicit code override.
    """
    if code is None:
        code = getattr(exc, "code", ServiceErrorCode.PROTOCOL)
    return {"ok": False, "error": str(exc), "code": code.value}


def exception_for(reply: dict) -> ServiceError:
    """Rebuild the typed exception an error reply encodes.

    Unknown or missing codes degrade to plain :class:`ServiceError`
    (``protocol``), so old servers and hand-built frames stay readable.
    """
    message = str(reply.get("error", "service error"))
    cls = _CODE_CLASSES.get(str(reply.get("code", "")), ServiceError)
    return cls(message)


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            f"limit"
        )


# ---------------------------------------------------------------------------
# asyncio flavor
# ---------------------------------------------------------------------------
async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from an asyncio stream; ``None`` on EOF.

    As in :func:`read_frame_sync`, a mid-frame EOF (the peer hung up
    between prefix and the payload's end) reads as ``None``: a stream
    cut inside a frame holds no request to answer.
    """
    try:
        head = await reader.readexactly(_LEN.size)
        (length,) = _LEN.unpack(head)
        _check_length(length)
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    return decode_payload(payload)


def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Queue one frame on an asyncio stream (caller drains)."""
    writer.write(encode_frame(message))


# ---------------------------------------------------------------------------
# blocking flavor (shard worker loop)
# ---------------------------------------------------------------------------
def read_frame_sync(fp: BinaryIO) -> dict | None:
    """Read one frame from a blocking binary file; ``None`` on EOF.

    A mid-frame EOF (the peer died between prefix and payload) also
    reads as ``None`` — for the worker loop any EOF means "parent is
    gone, wind down", never a recoverable condition.
    """
    head = fp.read(_LEN.size)
    if len(head) < _LEN.size:
        return None
    (length,) = _LEN.unpack(head)
    _check_length(length)
    payload = fp.read(length)
    if len(payload) < length:
        return None
    return decode_payload(payload)


def write_frame_sync(fp: BinaryIO, message: dict) -> None:
    """Write and flush one frame to a blocking binary file."""
    fp.write(encode_frame(message))
    fp.flush()


# ---------------------------------------------------------------------------
# chunk payloads
# ---------------------------------------------------------------------------
def chunk_message(session_id: str, seq: int | None, chunk: np.ndarray) -> dict:
    """Build the ``chunk`` frame for one sample block, its samples as
    raw float64 bytes (a copy, so the caller may reuse ``chunk``).

    The inverse of :func:`decode_chunk`; benchmarks, tests, and the
    shard pool's in-process ingest path all build their frames here so
    the encoding is defined exactly once.
    """
    chunk = np.ascontiguousarray(chunk, dtype=np.float64)
    if chunk.ndim == 1:
        chunk = chunk[None, :]
    message = {
        "op": "chunk",
        "session": str(session_id),
        "shape": list(chunk.shape),
        "data": chunk.tobytes(),
    }
    if seq is not None:
        message["seq"] = int(seq)
    return message


def decode_chunk(message: dict) -> np.ndarray:
    """Decode a ``chunk`` frame's samples back into a float64 array.

    The array owns its memory: the payload it was read from may live on
    (the pool's re-home journal keeps admitted frames).
    """
    raw = message.get("data")
    if not isinstance(raw, _BYTES_LIKE):
        raise ServiceError(
            f"bad chunk frame: samples travel as the frame's binary tail "
            f"(protocol version {PROTOCOL_VERSION}), got 'data' of type "
            f"{type(raw).__name__}"
        )
    try:
        shape = tuple(int(v) for v in message["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"bad chunk frame: {exc}") from None
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 0:
        raise ServiceError(f"bad chunk shape {shape}")
    expected = shape[0] * shape[1] * 8
    if len(raw) != expected:
        raise ServiceError(
            f"chunk payload is {len(raw)} bytes, shape {shape} needs "
            f"{expected}"
        )
    return np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
