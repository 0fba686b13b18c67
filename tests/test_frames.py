"""Canonical frame wire encoding."""

import pathlib
import struct

import pytest
from hypothesis import given, strategies as st

from pear2pear.catalog import NetworkFileCatalog
from pear2pear.core import Ssid, make_meta, render_ssid
from pear2pear.frames import (
    _SSID_MEMO, PROTOCOL_VERSION, Frame, FrameKind, WireError, decode_frame, encode_frame,
)
from pear2pear.scenario import build_world, load_scenario

from helpers import merge_whole, record_frames, stranded_courier_world

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


ssids = st.builds(render_ssid, st.builds(Ssid, st.integers(0, 2**64 - 1),
                                         st.integers(0, 2**32 - 1)))
# strings one edit away from a rendering, which must stay plain strs
near_misses = ssids.flatmap(lambda s: st.sampled_from(
    [s + "\n", s.lower(), s[:-1], s + "0", " " + s, s.replace("-", "_", 1)]))

payload_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2**63, max_value=2**63 - 1)
    | st.floats(allow_nan=False) | st.binary(max_size=64) | st.text(max_size=32)
    | ssids | near_misses,
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@given(st.dictionaries(st.text(max_size=8), payload_values, max_size=4),
       st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_round_trip_property(payload, src, dst):
    frame = Frame(kind=FrameKind.SEARCH_RESPONSE, src=src, dst=dst, payload=payload)
    back = _round_trip(frame)
    # arrays come back as tuples, and the strategy builds every array as one
    assert back == frame
    assert encode_frame(back) == encode_frame(frame)


# --- pinned bytes -----------------------------------------------------------

D = b"\xd1\x9e"  # stands in for a 32-byte digest
N = render_ssid(Ssid(300, 0xC0FFEE))      # travels as 08 ac02 00c0ffee
M = render_ssid(Ssid(7, 0xDEADBEEF))      # travels as 08 07 deadbeef
VERSION = f"{PROTOCOL_VERSION:02x}"

# One small frame of each kind, src 300 and dst 1, with its exact encoding
# after the version byte: kind, src ac 02, dst 01, then the payload.
PINNED = [
    (FrameKind.JOIN_REQUEST, {"ssid": N, "wants_catalog": True, "since": 3},
     "01ac02010503030573696e6365010603047373696408ac0200c0ffee"
     "030d77616e74735f636174616c6f670601"),
    (FrameKind.JOIN_ACCEPT, {"ssid": N, "root": 300},
     "02ac020105020304726f6f7401d80403047373696408ac0200c0ffee"),
    (FrameKind.JOIN_REJECT, {"ssid": N},
     "03ac0201050103047373696408ac0200c0ffee"),
    (FrameKind.FILE_LIST,
     {"files": ({"file_id": D, "names": ("a",), "size": 5, "block_count": 1},), "removed": ()},
     "04ac02010502030566696c657304010504030b626c6f636b5f636f756e740102030766696c655f69640202"
     "d19e03056e616d65730401030161030473697a65010a030772656d6f7665640400"),
    (FrameKind.SCAN_REPORT, {"visible": (M,)},
     "05ac02010501030776697369626c6504010807deadbeef"),
    (FrameKind.LEAVE_NOTICE, {}, "06ac02010500"),
    (FrameKind.PING, {}, "07ac02010500"),
    (FrameKind.PONG, {}, "08ac02010500"),
    (FrameKind.SEARCH_REQUEST, {"query": "a", "by": "name"},
     "09ac020105020302627903046e616d6503057175657279030161"),
    (FrameKind.SEARCH_RESPONSE, {"ok": False, "results": (), "query": "a", "by": "name"},
     "0aac020105040302627903046e616d6503026f6b0600030571756572790301610307726573756c74730400"),
    (FrameKind.DOWNLOAD_REQUEST,
     {"file_id": D, "session_id": "1-1", "origin": "1-1", "ttl": 2, "user": True},
     "0bac02010505030766696c655f69640202d19e03066f726967696e0303312d31030a73657373696f6e5f"
     "69640303312d31030374746c01040304757365720601"),
    (FrameKind.SOURCE_LIST, {"ok": False, "session_id": "1-1", "reason": "notfound"},
     "0cac0201050303026f6b06000306726561736f6e03086e6f74666f756e64030a73657373696f6e5f6964"
     "0303312d31"),
    (FrameKind.BLOCK_REQUEST, {"file_id": D, "indices": (0, 2), "session_id": "1-1"},
     "0dac02010503030766696c655f69640202d19e0307696e6469636573040201000104030a73657373696f"
     "6e5f69640303312d31"),
    (FrameKind.BLOCK_RESPONSE,
     {"ok": True, "index": 1, "data": b"xy", "session_id": "1-1"},
     "0eac02010504030464617461020278790305696e646578010203026f6b0601030a73657373696f6e5f69"
     "640303312d31"),
    (FrameKind.CATALOG_SNAPSHOT,
     {"snapshot": {"subnet": N, "entries": ((D, ("a",), 5, 1, 1, ((M, 1, 2),)),),
                   "removed": (), "version": 4, "base": 0},
      "via": N, "mission_id": ""},
     "0fac02010503030a6d697373696f6e5f696403000308736e617073686f740505030462617365010003"
     "07656e7472696573040104060202d19e0401030161010a01020102040104030807deadbeef0102010403"
     "0772656d6f766564040003067375626e657408ac0200c0ffee030776657273696f6e0108030376696108"
     "ac0200c0ffee"),
    (FrameKind.COURIER_ORDER, {"status": "failed", "mission_id": "1-2", "reason": "ttl"},
     "10ac02010503030a6d697373696f6e5f69640303312d320306726561736f6e030374746c03067374"
     "6174757303066661696c6564"),
    (FrameKind.WANTED_FILE, {"query": "a", "by": "name"},
     "11ac020105020302627903046e616d6503057175657279030161"),
]


def test_pinned_bytes_of_every_kind():
    assert [kind for kind, _, _ in PINNED] == list(FrameKind)
    for kind, payload, wire in PINNED:
        frame = Frame(kind=kind, src=300, dst=1, payload=payload)
        assert encode_frame(frame).hex() == VERSION + wire, kind.name
        assert decode_frame(bytes.fromhex(VERSION + wire)) == frame


# Each value as the one item of a payload {"v": value}: zigzag ints, varint
# lengths, big-endian floats, and a subnet as its root id varint and 4-byte
# nonce.
PINNED_VALUES = [
    (None, "00"), (True, "0601"), (False, "0600"),
    (0, "0100"), (-1, "0101"), (1, "0102"), (63, "017e"), (-64, "017f"),
    (64, "018001"), (-65, "018101"), (300, "01d804"),
    (2**63 - 1, "01feffffffffffffffff01"), (-2**63, "01ffffffffffffffffff01"),
    (1.5, "073ff8000000000000"),
    (b"", "0200"), (b"\x00\xff", "020200ff"), ("é", "0302c3a9"), ("x" * 200, "03c801" + "78" * 200),
    ((), "0400"), ((1, (2,)), "0402010204010104"), ({}, "0500"),
    ("P2P-0000000000000001-0000ABCD", "08010000abcd"),
    ("P2P-FFFFFFFFFFFFFFFF-0000002A", "08ffffffffffffffffff010000002a"),
    ("P2P-0000000000000001-0000abcd", "031d" + b"P2P-0000000000000001-0000abcd".hex()),
]


@pytest.mark.parametrize("value, wire", PINNED_VALUES)
def test_pinned_value_encodings(value, wire):
    raw = encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2, payload={"v": value}))
    assert raw.hex() == VERSION + "070102" + "0501030176" + wire
    assert decode_frame(raw).payload == {"v": value}


def test_a_list_encodes_as_the_tuple_it_decodes_to():
    as_lists = Frame(kind=FrameKind.PING, src=1, dst=2, payload={"v": [1, [2, []]]})
    as_tuples = Frame(kind=FrameKind.PING, src=1, dst=2, payload={"v": (1, (2, ()))})
    assert encode_frame(as_lists) == encode_frame(as_tuples)
    assert decode_frame(encode_frame(as_lists)) == as_tuples


# --- malformed input --------------------------------------------------------

HEADER = bytes([PROTOCOL_VERSION, FrameKind.PING, 1, 2])  # version, kind, src 1, dst 2


def _str(s: bytes) -> bytes:
    assert len(s) < 0x80  # a one-byte length
    return b"\x03" + bytes([len(s)]) + s


def _dict_of(key: bytes, value: bytes) -> bytes:
    """A frame whose payload is a one-item dict, from pre-encoded parts."""
    return HEADER + b"\x05\x01" + key + value


def test_header_layout():
    assert encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2)) == HEADER + b"\x05\x00"


def test_truncated_bool_rejected():
    raw = encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2, payload={"a": True}))
    with pytest.raises(WireError):
        decode_frame(raw[:-1])


def test_bad_utf8_rejected():
    raw = encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2, payload={"a": "xy"}))
    with pytest.raises(WireError):
        decode_frame(raw.replace(b"xy", b"\xff\xfe"))


def test_unhashable_dict_key_rejected():
    empty_list = b"\x04\x00"
    with pytest.raises(WireError):
        decode_frame(_dict_of(empty_list, b"\x00"))


def test_non_string_dict_key_rejected():
    with pytest.raises(WireError):
        encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2, payload={5: None}))
    int_key = b"\x01\x0a"  # 5, zigzagged
    with pytest.raises(WireError, match="dict keys"):
        decode_frame(_dict_of(int_key, b"\x00"))


def test_bool_byte_other_than_0_or_1_rejected():
    raw = bytearray(encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2,
                                       payload={"a": True})))
    raw[-1] = 2
    with pytest.raises(WireError, match="bool"):
        decode_frame(bytes(raw))


def _dict_of_keys(*keys: bytes) -> bytes:
    """A frame whose payload maps each key, in the given order, to None."""
    return (HEADER + b"\x05" + bytes([len(keys)])
            + b"".join(_str(k) + b"\x00" for k in keys))


def test_dict_keys_out_of_order_or_repeated_rejected():
    assert decode_frame(_dict_of_keys(b"a", b"b")).payload == {"a": None, "b": None}
    for keys in ((b"b", b"a"), (b"a", b"a"), (b"", b"")):
        with pytest.raises(WireError, match="not after"):
            decode_frame(_dict_of_keys(*keys))


def test_deep_nesting_rejected():
    nested = b"\x04\x01" * 5000 + b"\x00"
    with pytest.raises(WireError):
        decode_frame(_dict_of(_str(b"a"), nested))


def test_non_minimal_varint_rejected():
    # 1 as src, as an int and as a dict length, each padded with a zero group
    for raw in (HEADER[:2] + b"\x81\x00\x02\x05\x00",
                _dict_of(_str(b"a"), b"\x01\x82\x00"),
                HEADER + b"\x05\x80\x00"):
        with pytest.raises(WireError, match="non-minimal"):
            decode_frame(raw)
    assert decode_frame(_dict_of(_str(b"a"), b"\x01\x80\x01")).payload == {"a": 64}


def test_over_long_varint_rejected():
    eleven_bytes = b"\xff" * 10 + b"\x01"
    two_to_the_64 = b"\x80" * 9 + b"\x02"
    for varint in (eleven_bytes, two_to_the_64):
        with pytest.raises(WireError, match="over-long"):
            decode_frame(HEADER[:2] + varint + b"\x02\x05\x00")
        with pytest.raises(WireError, match="over-long"):
            decode_frame(_dict_of(_str(b"a"), b"\x01" + varint))
    largest = b"\xff" * 9 + b"\x01"
    assert decode_frame(HEADER[:2] + largest + b"\x02\x05\x00").src == 2**64 - 1


def test_truncated_varint_rejected():
    for raw in (HEADER[:2] + b"\xac", HEADER[:2] + b"\x01\xff\xff",
                _dict_of(_str(b"a"), b"\x01\x80"), HEADER + b"\x05\x80"):
        with pytest.raises(WireError, match="truncated varint"):
            decode_frame(raw)


def test_version_1_frame_rejected():
    v1_ping = b"\x01\x07" + struct.pack(">QQ", 1, 2) + b"\x05" + struct.pack(">I", 0)
    with pytest.raises(WireError, match="unsupported protocol version 1"):
        decode_frame(v1_ping)


def test_version_2_frame_rejected():
    v2_ping = b"\x02" + HEADER[1:] + b"\x05\x00"
    with pytest.raises(WireError, match="unsupported protocol version 2"):
        decode_frame(v2_ping)


SSID_BYTES = b"P2P-0000000000000001-0000ABCD"
SSID_PAIR = b"\x08\x01\x00\x00\xab\xcd"  # tag, root id 1, nonce 0xABCD


def test_subnet_travels_only_as_its_pair():
    assert decode_frame(_dict_of(_str(b"a"), SSID_PAIR)).payload == {"a": SSID_BYTES.decode()}
    # the same SSID as a plain str would give a second encoding of one frame
    with pytest.raises(WireError, match="SSID"):
        decode_frame(_dict_of(_str(b"a"), _str(SSID_BYTES)))
    # near misses are not renderings, so they stay plain strs
    for near in (SSID_BYTES + b"\n", SSID_BYTES.lower(), SSID_BYTES[:-1]):
        assert decode_frame(_dict_of(_str(b"a"), _str(near))).payload == {"a": near.decode()}


def test_truncated_ssid_nonce_rejected():
    for cut in range(1, len(SSID_PAIR)):
        with pytest.raises(WireError, match="truncated"):
            decode_frame(_dict_of(_str(b"a"), SSID_PAIR[:cut]))


def test_non_minimal_ssid_root_id_rejected():
    with pytest.raises(WireError, match="non-minimal"):
        decode_frame(_dict_of(_str(b"a"), b"\x08\x81\x00" + SSID_PAIR[2:]))


def _uvarint(n: int) -> bytes:
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def test_subnets_encode_alike_cold_remembered_and_evicted():
    # twice as many subnets as the codec remembers, each encoded and decoded
    # three times: first cold, or remembered from an earlier test, then
    # remembered, then evicted
    roots = list(range(2 * _SSID_MEMO)) + [2**63]
    for _ in range(3):
        for root in roots:
            nonce = root * 7919 % 2**32
            ssid = render_ssid(Ssid(root, nonce))
            raw = encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2, payload={"v": ssid}))
            assert raw == _dict_of(_str(b"v"), b"\x08" + _uvarint(root) + nonce.to_bytes(4, "big"))
            assert decode_frame(raw).payload == {"v": ssid}


def test_ints_beyond_64_bits_are_refused_by_the_encoder():
    for payload in ({"n": 2**63}, {"n": -2**63 - 1}, {"n": [2**70]}):
        with pytest.raises(WireError, match="64 bits"):
            encode_frame(Frame(kind=FrameKind.PING, src=1, dst=2, payload=payload))
    for src, dst in ((2**64, 1), (1, 2**64), (-1, 1)):
        with pytest.raises(WireError, match="64 bits"):
            encode_frame(Frame(kind=FrameKind.PING, src=src, dst=dst))


# --- real frames ------------------------------------------------------------

def _scenario_frames():
    """The first frame of each kind emitted while running the shipped chain,
    swarm and intra-subnet scenarios, encoded."""
    frames = {}
    for name in ("chain.json", "swarm.json", "intra_subnet.json"):
        sc = load_scenario(str(SCENARIOS / name))
        world = build_world(sc)
        world.metrics.on_frame_emit = lambda f: frames.setdefault(f.kind, encode_frame(f))
        world.run_until(sc.until)
    return [frames[k] for k in sorted(frames)]


def _built_frames():
    """The kinds the scenarios do not emit, and a catalog snapshot whose
    entries carry local holders and a remote record, built by hand."""
    net_a, net_c = render_ssid(Ssid(1, 0xA)), render_ssid(Ssid(5, 0xC))
    near, far = NetworkFileCatalog(net_a, 8), NetworkFileCatalog(net_c, 8)
    near.register_files(1, [make_meta("a.txt", b"aaa", 16)])
    far.register_files(5, [make_meta("a.txt", b"aaa", 16), make_meta("song", b"tune", 16)])
    merge_whole(near, far.snapshot(0), net_c, now=0.0)
    snapshot = {"snapshot": near.snapshot(0), "via": net_a, "mission_id": "1-7"}
    assert [len(e[-1]) for e in snapshot["snapshot"]["entries"]] == [1, 1]
    return [encode_frame(f) for f in (
        Frame(FrameKind.JOIN_REJECT, 2**64 - 1, 300, {"ssid": "P2P-FFFFFFFFFFFFFFFF-0000002A"}),
        Frame(FrameKind.WANTED_FILE, 1, 4, {"query": "album.ogg", "by": "name"}),
        Frame(FrameKind.CATALOG_SNAPSHOT, 1, 2**40, snapshot),
    )]


def _visiting_courier_frames():
    """PING and PONG, which only a courier that stays at its target for a
    scan period draws: root 200 pings stranded courier 103."""
    w = stranded_courier_world()
    frames = {}
    w.metrics.on_frame_emit = lambda f: frames.setdefault((f.kind, f.src, f.dst), encode_frame(f))
    w.run_until(175.0)
    return [frames[FrameKind.PING, 200, 103], frames[FrameKind.PONG, 103, 200]]


REAL_FRAMES = _scenario_frames() + _built_frames() + _visiting_courier_frames()


def test_real_frames_cover_every_kind():
    assert {decode_frame(raw).kind for raw in REAL_FRAMES} == set(FrameKind)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_every_frame_a_shipped_scenario_emits_decodes_back_equal(name):
    # an array decodes as a tuple, so a payload array built as a list fails
    sc = load_scenario(str(SCENARIOS / name))
    world = build_world(sc)
    frames = record_frames(world)
    world.run_until(sc.until)
    assert frames
    for frame in frames:
        assert decode_frame(encode_frame(frame)) == frame, frame.kind.name


def _decodes_or_wire_error(data):
    """Malformed input raises WireError; input that decodes is canonical, so
    it re-encodes to the same bytes."""
    try:
        frame = decode_frame(data)
    except WireError:
        return
    assert encode_frame(frame) == data


def test_every_truncation_and_flip_of_real_frames():
    # 0x80 flips a varint's continuation bit
    for raw in REAL_FRAMES:
        for cut in range(len(raw)):
            with pytest.raises(WireError):
                decode_frame(raw[:cut])
        for pos in range(len(raw)):
            for mask in (0x01, 0x7F, 0x80, 0xFF):
                flipped = bytearray(raw)
                flipped[pos] ^= mask
                _decodes_or_wire_error(bytes(flipped))


@given(st.sampled_from(REAL_FRAMES), st.integers(min_value=0))
def test_truncated_real_frames(raw, cut):
    _decodes_or_wire_error(raw[:cut % len(raw)])


@given(st.sampled_from(REAL_FRAMES), st.integers(min_value=0), st.integers(1, 255))
def test_byte_flipped_real_frames(raw, pos, mask):
    flipped = bytearray(raw)
    flipped[pos % len(raw)] ^= mask
    _decodes_or_wire_error(bytes(flipped))
