"""Protocol frames and their canonical wire encoding (version 3).

A frame is its version byte and kind byte, then `src` and `dst` as unsigned
varints, then the payload dict as one tagged value. A varint is base 128,
least significant group first, with the high bit set on every byte but the
last. In the payload an int is a zigzag varint (0, -1, 1, -2, ... travel as
0, 1, 2, 3, ...), the length of a list, dict, str or bytes is an unsigned
varint, a float is 8 bytes big-endian, a str is UTF-8 and dict keys are
sorted. Payload ints must fit in a signed 64-bit int and `src` and `dst` in
an unsigned one; the encoder raises WireError for anything else.

An array is encoded from a list or a tuple alike, and always decodes as a
tuple. Every payload array is built as a tuple, so a frame decodes back
equal to the frame sent, and an array of scalars held on (a catalog's
snapshot entries) is one the cyclic collector stops tracking.

A str that is an exact SSID rendering (`core.parse_ssid` accepts it) names a
subnet, and travels as its `(root_id, nonce)` pair: the root id as an
unsigned varint, then the nonce as 4 bytes big-endian. With its tag that is
7 bytes for a root id below 2**14, against 31 for the 29-character string.
It decodes back to the rendered str, so the program above the codec only
ever sees SSID strings. A run names few subnets many times over, so the
codec remembers the encodings of the `_SSID_MEMO` renderings last used, and
the renderings of the last encodings decoded.

The encoding is canonical: two frames with equal contents always encode to
identical bytes. The decoder accepts only that encoding (every varint in its
shortest form and below 2**64, bools 0 or 1, dict keys strictly ascending,
no SSID rendering sent as a plain str), so every input it accepts re-encodes
to the same bytes.
"""

import enum
import functools
import struct
from dataclasses import dataclass, field

from .core import SSID_PREFIX, Ssid, parse_ssid, render_ssid

PROTOCOL_VERSION = 3


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


@dataclass(slots=True)
class Frame:
    kind: FrameKind
    src: int
    dst: int
    payload: dict = field(default_factory=dict)


_T_NONE = 0x00
_T_INT = 0x01
_T_BYTES = 0x02
_T_STR = 0x03
_T_LIST = 0x04
_T_DICT = 0x05
_T_BOOL = 0x06
_T_FLOAT = 0x07
_T_SSID = 0x08

_U64 = 1 << 64
_I64 = 1 << 63

_SSID_MEMO = 1024


def _put_uvarint(n: int, out: bytearray):
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)


def _get_uvarint(data: bytes, pos: int):
    """The varint at `pos` and the position after it. Only the shortest form
    of a value below 2**64 is accepted."""
    value = shift = 0
    while True:
        if pos >= len(data):
            raise WireError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            break
        shift += 7
        if shift > 63:
            raise WireError("over-long varint")
    if byte == 0 and shift:
        raise WireError("non-minimal varint")
    if value >= _U64:
        raise WireError("over-long varint")
    return value, pos


@functools.lru_cache(maxsize=_SSID_MEMO)
def _ssid_bytes(text: str):
    """The tag and pair that `text` travels as, or None if it is not an SSID
    rendering."""
    ssid = parse_ssid(text)
    if ssid is None:
        return None
    out = bytearray([_T_SSID])
    _put_uvarint(ssid.root_id, out)
    out += ssid.nonce.to_bytes(4, "big")
    return bytes(out)


@functools.lru_cache(maxsize=_SSID_MEMO)
def _ssid_text(pair: bytes) -> str:
    """The rendering of a pair the decoder has checked: a root id varint,
    then a 4-byte nonce."""
    root_id, pos = _get_uvarint(pair, 0)
    return render_ssid(Ssid(root_id, int.from_bytes(pair[pos:], "big")))


def _encode_value(value, out: bytearray):
    if value is None:
        out.append(_T_NONE)
    elif isinstance(value, bool):
        out.append(_T_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):
        if not -_I64 <= value < _I64:
            raise WireError(f"int {value} does not fit in 64 bits")
        out.append(_T_INT)
        _put_uvarint(value << 1 if value >= 0 else ~value << 1 | 1, out)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += struct.pack(">d", value)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        _put_uvarint(len(value), out)
        out += value
    elif isinstance(value, str):
        wire = _ssid_bytes(value) if value.startswith(SSID_PREFIX) else None
        if wire is not None:
            out += wire
        else:
            raw = value.encode("utf-8")
            out.append(_T_STR)
            _put_uvarint(len(raw), out)
            out += raw
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        _put_uvarint(len(value), out)
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        _put_uvarint(len(value), out)
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
        z, pos = _get_uvarint(data, pos)
        return (~(z >> 1) if z & 1 else z >> 1), pos
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise WireError("truncated float")
        return struct.unpack_from(">d", data, pos)[0], pos + 8
    if tag in (_T_BYTES, _T_STR):
        n, pos = _get_uvarint(data, pos)
        raw = data[pos:pos + n]
        if len(raw) != n:
            raise WireError("truncated string")
        if tag == _T_BYTES:
            return raw, pos + n
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise WireError("string is not valid UTF-8")
        if text.startswith(SSID_PREFIX) and parse_ssid(text) is not None:
            raise WireError(f"SSID {text!r} sent as a str")
        return text, pos + n
    if tag == _T_SSID:
        _, end = _get_uvarint(data, pos)
        end += 4
        if end > len(data):
            raise WireError("truncated SSID nonce")
        return _ssid_text(bytes(data[pos:end])), end
    if tag == _T_LIST:
        n, pos = _get_uvarint(data, pos)
        items = []
        for _ in range(n):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _T_DICT:
        n, pos = _get_uvarint(data, pos)
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
    out = bytearray((PROTOCOL_VERSION, frame.kind))
    for end in (frame.src, frame.dst):
        if not 0 <= end < _U64:
            raise WireError(f"device id {end} does not fit in 64 bits")
        _put_uvarint(end, out)
    _encode_value(frame.payload, out)
    return bytes(out)


def decode_frame(data: bytes) -> Frame:
    if len(data) < 2:
        raise WireError("frame too short")
    if data[0] != PROTOCOL_VERSION:
        raise WireError(f"unsupported protocol version {data[0]}")
    try:
        kind = FrameKind(data[1])
    except ValueError:
        raise WireError(f"unknown frame kind {data[1]}")
    src, pos = _get_uvarint(data, 2)
    dst, pos = _get_uvarint(data, pos)
    try:
        payload, pos = _decode_value(data, pos)
    except RecursionError:
        raise WireError("payload nested too deeply")
    if pos != len(data):
        raise WireError("trailing bytes after payload")
    if not isinstance(payload, dict):
        raise WireError("payload must be a dict")
    return Frame(kind=kind, src=src, dst=dst, payload=payload)
