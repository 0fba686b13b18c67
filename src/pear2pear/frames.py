"""Protocol frames and their canonical wire encoding.

The encoding is deterministic: fixed-width big-endian integers, length-prefixed
byte strings, dict keys sorted. Two frames with equal contents always encode to
identical bytes, which golden-trace comparisons depend on. The decoder accepts
only that encoding (bools are 0 or 1, dict keys strictly ascending), so every
input it accepts re-encodes to the same bytes.
"""

import enum
import struct
from dataclasses import dataclass, field

PROTOCOL_VERSION = 1


class WireError(Exception):
    pass


class FrameKind(enum.IntEnum):
    JOIN_REQUEST = 1
    JOIN_ACCEPT = 2
    JOIN_REJECT = 3
    FILE_LIST = 4
    SCAN_REPORT = 5
    LEAVE_NOTICE = 6
    PING = 7
    PONG = 8
    SEARCH_REQUEST = 9
    SEARCH_RESPONSE = 10
    DOWNLOAD_REQUEST = 11
    SOURCE_LIST = 12
    BLOCK_REQUEST = 13
    BLOCK_RESPONSE = 14
    CATALOG_SNAPSHOT = 15
    COURIER_ORDER = 16
    WANTED_FILE = 17


# Join-phase frames travel over the radio before membership exists; everything
# else requires both ends attached to the same hotspot.
JOIN_PHASE_KINDS = {FrameKind.JOIN_REQUEST, FrameKind.JOIN_ACCEPT, FrameKind.JOIN_REJECT}


@dataclass
class Frame:
    kind: FrameKind
    src: int
    dst: int
    payload: dict = field(default_factory=dict)
    version: int = PROTOCOL_VERSION


_T_NONE = 0x00
_T_INT = 0x01
_T_BYTES = 0x02
_T_STR = 0x03
_T_LIST = 0x04
_T_DICT = 0x05
_T_BOOL = 0x06
_T_FLOAT = 0x07


def _encode_value(value, out: bytearray):
    if value is None:
        out.append(_T_NONE)
    elif isinstance(value, bool):
        out.append(_T_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):
        out.append(_T_INT)
        out += struct.pack(">q", value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += struct.pack(">d", value)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        out += struct.pack(">I", len(value))
        out += value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack(">I", len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out += struct.pack(">I", len(value))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += struct.pack(">I", len(value))
        for key in sorted(value):
            if not isinstance(key, str):
                raise WireError(f"dict keys must be strings, got {key!r}")
            _encode_value(key, out)
            _encode_value(value[key], out)
    else:
        raise WireError(f"unencodable value: {value!r}")


def _decode_value(data: bytes, pos: int):
    if pos >= len(data):
        raise WireError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_BOOL:
        if pos >= len(data):
            raise WireError("truncated bool")
        if data[pos] > 1:
            raise WireError(f"bool byte must be 0 or 1, got {data[pos]}")
        return data[pos] == 1, pos + 1
    if tag == _T_INT:
        return struct.unpack_from(">q", data, pos)[0], pos + 8
    if tag == _T_FLOAT:
        return struct.unpack_from(">d", data, pos)[0], pos + 8
    if tag in (_T_BYTES, _T_STR):
        (n,) = struct.unpack_from(">I", data, pos)
        pos += 4
        raw = data[pos:pos + n]
        if len(raw) != n:
            raise WireError("truncated string")
        if tag == _T_BYTES:
            return raw, pos + n
        try:
            return raw.decode("utf-8"), pos + n
        except UnicodeDecodeError:
            raise WireError("string is not valid UTF-8")
    if tag == _T_LIST:
        (n,) = struct.unpack_from(">I", data, pos)
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        (n,) = struct.unpack_from(">I", data, pos)
        pos += 4
        out = {}
        prev = None
        for _ in range(n):
            key, pos = _decode_value(data, pos)
            if not isinstance(key, str):
                raise WireError(f"dict keys must be strings, got {type(key).__name__}")
            if prev is not None and key <= prev:
                raise WireError(f"dict key {key!r} not after {prev!r}")
            prev = key
            val, pos = _decode_value(data, pos)
            out[key] = val
        return out, pos
    raise WireError(f"unknown tag 0x{tag:02x}")


def encode_frame(frame: Frame) -> bytes:
    out = bytearray()
    out.append(frame.version)
    out.append(int(frame.kind))
    out += struct.pack(">QQ", frame.src, frame.dst)
    _encode_value(frame.payload, out)
    return bytes(out)


def decode_frame(data: bytes) -> Frame:
    if len(data) < 18:
        raise WireError("frame too short")
    version = data[0]
    if version != PROTOCOL_VERSION:
        raise WireError(f"unsupported protocol version {version}")
    try:
        kind = FrameKind(data[1])
    except ValueError:
        raise WireError(f"unknown frame kind {data[1]}")
    src, dst = struct.unpack_from(">QQ", data, 2)
    try:
        payload, pos = _decode_value(data, 18)
    except struct.error:
        raise WireError("truncated frame")
    except RecursionError:
        raise WireError("payload nested too deeply")
    if pos != len(data):
        raise WireError("trailing bytes after payload")
    if not isinstance(payload, dict):
        raise WireError("payload must be a dict")
    return Frame(kind=kind, src=src, dst=dst, payload=payload, version=version)
