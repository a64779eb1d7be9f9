"""Length-prefixed binary frames for the serving wire.

The JSON-Lines protocol (:mod:`repro.service.protocol`) stays the
default and the only thing an unsuspecting client ever sees.  A client
that wants length-prefixed framing sends one ordinary JSON line first::

    {"op": "hello", "format": "binary"}

and, on an ``ok`` answer confirming ``"format": "binary"``, both
directions of that connection switch to binary frames::

    header   6 B   magic (1 B), version (1 B), payload length (u32 BE)
    payload        the UTF-8 bytes of the JSON line the same message
                   gets on the JSON-Lines wire, minus the newline

So there is one codec: :func:`encode_payload` is
:func:`~repro.service.protocol.encode_response` (sorted keys, compact
separators, :class:`~repro.service.protocol.Fragment` values spliced
verbatim) and :func:`decode_payload` a JSON decode.  A pre-encoded
result travels every hop as the same text.  The header is version 2;
version 1 carried a hand-rolled tag codec, and a version-1 peer gets a
clean header error instead of a misparse.

A payload that is not JSON raises :class:`FrameError`, which a
transport answers with an error frame while the connection survives;
only a corrupted *header* (wrong magic or version, absurd length) is
unsyncable and closes the connection.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional

from ..errors import ReproError
from .protocol import FORMAT_BINARY, FORMAT_JSON, FORMATS, HELLO_OP, encode_response

__all__ = [
    "FORMAT_BINARY",
    "FORMAT_JSON",
    "FORMATS",
    "FrameError",
    "HEADER_SIZE",
    "HELLO_OP",
    "MAX_FRAME_BYTES",
    "decode_header",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "pack_frame",
    "read_frame",
]

_MAGIC = 0xB6
_VERSION = 2
_HEADER = struct.Struct("!BBI")

#: Size of the fixed frame header in bytes (magic, version, length).
HEADER_SIZE = _HEADER.size

#: Upper bound on one frame's payload; anything bigger is a corrupted
#: header, not a request (the largest real envelope is a metrics
#: document, well under a megabyte).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ReproError):
    """A binary frame or its payload could not be encoded or decoded."""


def encode_payload(message: dict[str, Any]) -> bytes:
    """One message as payload bytes: its JSON line, UTF-8, no newline.

    Raises :class:`FrameError` for a value JSON cannot carry (``bytes``,
    NaN or an infinity) before anything reaches the wire.
    """
    try:
        return encode_response(message).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise FrameError(f"cannot encode the message: {error}") from error


def decode_payload(data: bytes) -> Any:
    """Decode payload bytes (one JSON text) back into Python objects."""
    try:
        return json.loads(data)
    except ValueError as error:  # JSONDecodeError and UnicodeDecodeError
        raise FrameError(f"undecodable frame payload: {error}") from error


def pack_frame(payload: bytes) -> bytes:
    """Prefix encoded payload bytes with the frame header."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds the maximum")
    return _HEADER.pack(_MAGIC, _VERSION, len(payload)) + payload


def decode_header(header: bytes) -> int:
    """Validate one frame header and return its payload length.

    Shared by the blocking :func:`read_frame` and the asyncio transport
    (:mod:`repro.service.aio`), so a corrupted header fails identically
    on both.
    """
    magic, version, length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise FrameError(f"bad frame magic 0x{magic:02x}")
    if version != _VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds the maximum")
    return length


def encode_frame(message: dict[str, Any]) -> bytes:
    """One message as a complete wire frame."""
    return pack_frame(encode_payload(message))


def read_frame(stream: Any) -> Optional[bytes]:
    """Read one frame's payload from a file-like stream.

    Returns None on a clean EOF at a frame boundary.  Raises
    :class:`FrameError` for a corrupted header or a mid-frame EOF --
    both unsyncable, the connection must close.
    """
    header = stream.read(HEADER_SIZE)
    if not header:
        return None
    if len(header) < HEADER_SIZE:
        raise FrameError("connection closed mid-frame-header")
    length = decode_header(header)
    payload = stream.read(length)
    if len(payload) < length:
        raise FrameError("connection closed mid-frame")
    return payload
