"""Canonical frame wire encoding."""

import pathlib
import struct

import pytest
from hypothesis import given, strategies as st

from pear2pear.frames import (
    Frame, FrameKind, WireError, decode_frame, encode_frame,
)
from pear2pear.scenario import build_world, load_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _round_trip(frame):
    return decode_frame(encode_frame(frame))


def test_round_trip_basic():
    frame = Frame(kind=FrameKind.JOIN_REQUEST, src=1, dst=2,
                  payload={"ssid": "P2P-X", "wants_catalog": False})
    back = _round_trip(frame)
    assert back == frame


def test_round_trip_all_kinds():
    for kind in FrameKind:
        frame = Frame(kind=kind, src=3, dst=4, payload={"n": 1})
        assert _round_trip(frame).kind == kind


def test_encoding_is_deterministic():
    a = Frame(kind=FrameKind.FILE_LIST, src=1, dst=2,
              payload={"b": [1, 2], "a": "x"})
    b = Frame(kind=FrameKind.FILE_LIST, src=1, dst=2,
              payload={"a": "x", "b": [1, 2]})
    assert encode_frame(a) == encode_frame(b)


def test_unknown_version_rejected():
    raw = bytearray(encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2)))
    raw[0] = 99
    with pytest.raises(WireError):
        decode_frame(bytes(raw))


def test_unknown_kind_rejected():
    raw = bytearray(encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2)))
    raw[1] = 200
    with pytest.raises(WireError):
        decode_frame(bytes(raw))


def test_truncated_frame_rejected():
    raw = encode_frame(Frame(kind=FrameKind.PONG, src=1, dst=2))
    with pytest.raises(WireError):
        decode_frame(raw[:-1])


payload_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2**63, max_value=2**63 - 1)
    | st.floats(allow_nan=False) | st.binary(max_size=64) | st.text(max_size=32),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@given(st.dictionaries(st.text(max_size=8), payload_values, max_size=4),
       st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_round_trip_property(payload, src, dst):
    frame = Frame(kind=FrameKind.SEARCH_RESPONSE, src=src, dst=dst, payload=payload)
    back = _round_trip(frame)
    # tuples come back as lists; payload strategy avoids tuples so equality holds
    assert back == frame
    assert encode_frame(back) == encode_frame(frame)


# --- malformed input --------------------------------------------------------

HEADER = encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2))[:18]


def _dict_of(key: bytes, value: bytes) -> bytes:
    """A frame whose payload is a one-item dict, from pre-encoded parts."""
    return HEADER + b"\x05" + struct.pack(">I", 1) + key + value


def test_truncated_bool_rejected():
    raw = encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2, payload={"a": True}))
    with pytest.raises(WireError):
        decode_frame(raw[:-1])


def test_bad_utf8_rejected():
    raw = encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2, payload={"a": "xy"}))
    with pytest.raises(WireError):
        decode_frame(raw.replace(b"xy", b"\xff\xfe"))


def test_unhashable_dict_key_rejected():
    empty_list = b"\x04" + struct.pack(">I", 0)
    with pytest.raises(WireError):
        decode_frame(_dict_of(empty_list, b"\x00"))


def test_non_string_dict_key_rejected():
    with pytest.raises(WireError):
        encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2, payload={5: None}))
    int_key = b"\x01" + struct.pack(">q", 5)
    with pytest.raises(WireError):
        decode_frame(_dict_of(int_key, b"\x00"))


def test_bool_byte_other_than_0_or_1_rejected():
    raw = bytearray(encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2,
                                       payload={"a": True})))
    raw[-1] = 2
    with pytest.raises(WireError, match="bool"):
        decode_frame(bytes(raw))


def _str(s: bytes) -> bytes:
    return b"\x03" + struct.pack(">I", len(s)) + s


def _dict_of_keys(*keys: bytes) -> bytes:
    """A frame whose payload maps each key, in the given order, to None."""
    return (HEADER + b"\x05" + struct.pack(">I", len(keys))
            + b"".join(_str(k) + b"\x00" for k in keys))


def test_dict_keys_out_of_order_or_repeated_rejected():
    assert decode_frame(_dict_of_keys(b"a", b"b")).payload == {"a": None, "b": None}
    for keys in ((b"b", b"a"), (b"a", b"a"), (b"", b"")):
        with pytest.raises(WireError, match="not after"):
            decode_frame(_dict_of_keys(*keys))


def test_deep_nesting_rejected():
    key = b"\x03" + struct.pack(">I", 1) + b"a"
    nested = (b"\x04" + struct.pack(">I", 1)) * 5000 + b"\x00"
    with pytest.raises(WireError):
        decode_frame(_dict_of(key, nested))


def _real_frames():
    """The first frame of each kind emitted while running the shipped chain
    and swarm scenarios, encoded."""
    frames = {}
    for name in ("chain.json", "swarm.json"):
        sc = load_scenario(str(SCENARIOS / name))
        world = build_world(sc)
        world.metrics.on_frame_emit = lambda f: frames.setdefault(f.kind, encode_frame(f))
        world.run_until(sc.until)
    return [frames[k] for k in sorted(frames)]


REAL_FRAMES = _real_frames()


def _decodes_or_wire_error(data):
    """Malformed input raises WireError; input that decodes is canonical, so
    it re-encodes to the same bytes."""
    try:
        frame = decode_frame(data)
    except WireError:
        return
    assert encode_frame(frame) == data


@given(st.sampled_from(REAL_FRAMES), st.integers(min_value=0))
def test_truncated_real_frames(raw, cut):
    _decodes_or_wire_error(raw[:cut % len(raw)])


@given(st.sampled_from(REAL_FRAMES), st.integers(min_value=0), st.integers(1, 255))
def test_byte_flipped_real_frames(raw, pos, mask):
    flipped = bytearray(raw)
    flipped[pos % len(raw)] ^= mask
    _decodes_or_wire_error(bytes(flipped))
