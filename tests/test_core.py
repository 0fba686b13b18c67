"""Identity primitives: content hashing, SSID scheme, passphrase derivation."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from pear2pear import core
from pear2pear.core import (
    FileId, Ssid, allocate_nonce, block_count_for, block_payload,
    compute_file_id, derive_passphrase, make_meta, parse_ssid, render_ssid,
)

# sha256 of zero bytes, frozen from the reference implementation
EMPTY_DIGEST = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_empty_content_digest():
    assert compute_file_id(b"").digest == bytes.fromhex(EMPTY_DIGEST)


def test_one_byte_difference_changes_id():
    a = b"the same song content"
    b = b"the same song contenu"
    # reference digests computed independently
    assert hashlib.sha256(a).digest() != hashlib.sha256(b).digest()
    assert compute_file_id(a) != compute_file_id(b)


def test_file_id_ignores_name():
    content = b"identical bytes"
    assert make_meta("a.mp3", content, 16).file_id == make_meta("b.mp3", content, 16).file_id


@given(st.binary(max_size=512), st.binary(max_size=512))
def test_content_addressing(a, b):
    assert (a == b) == (compute_file_id(a) == compute_file_id(b))


def test_file_id_length_enforced():
    with pytest.raises(ValueError):
        FileId(b"short")


@pytest.mark.parametrize("size,block_size,count", [
    (0, 16, 1), (1, 16, 1), (16, 16, 1), (17, 16, 2), (160, 16, 10), (161, 16, 11),
])
def test_block_count(size, block_size, count):
    assert block_count_for(size, block_size) == count


def test_block_payload_short_final_block():
    content = b"x" * 33
    assert block_payload(content, 0, 16) == b"x" * 16
    assert block_payload(content, 2, 16) == b"x"
    with pytest.raises(IndexError):
        block_payload(content, 3, 16)


def test_block_payload_empty_file():
    assert block_payload(b"", 0, 16) == b""


# --- SSID scheme ----------------------------------------------------------

def test_ssid_round_trip_simple():
    s = Ssid(root_id=7, nonce=0)
    assert parse_ssid(render_ssid(s)) == s


@given(st.integers(min_value=0, max_value=core.DEVICE_ID_LIMIT - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_ssid_round_trip(root_id, nonce):
    # Every device id a scenario accepts names its root in a parseable SSID.
    s = Ssid(root_id, nonce)
    assert parse_ssid(render_ssid(s)) == s


def test_foreign_ssid_rejected():
    assert parse_ssid("HomeWifi-2.4G") is None
    assert parse_ssid("") is None
    assert parse_ssid("P2P-xyz") is None


@pytest.mark.parametrize("near_miss", [
    "P2P-0000000000000001-0000ABCD\n",  # `$` alone would match before the newline
    "P2P-0000000000000001-0000abcd",    # lowercase hex
    "P2P-000000000000001-0000ABCD",     # 28 characters
    "P2P-0000000000000001-0000ABCDE",   # 30 characters
    " P2P-0000000000000001-0000ABCD",
])
def test_only_an_exact_rendering_parses(near_miss):
    assert parse_ssid("P2P-0000000000000001-0000ABCD") == Ssid(1, 0xABCD)
    assert parse_ssid(near_miss) is None


def test_distinct_roots_distinct_ssids():
    assert render_ssid(Ssid(1, 5)) != render_ssid(Ssid(2, 5))


def test_ssid_order_follows_root_id():
    # the join tie-break picks the lexicographically smallest rendered SSID
    assert render_ssid(Ssid(3, 0xFFFFFFFF)) < render_ssid(Ssid(10, 0))


def test_nonce_allocator_distinct_per_device_and_generation():
    assert allocate_nonce(1, 1) != allocate_nonce(2, 1)
    assert allocate_nonce(1, 1) != allocate_nonce(1, 2)


# --- passphrase -----------------------------------------------------------

def test_passphrase_deterministic():
    s = render_ssid(Ssid(42, 9))
    assert derive_passphrase(s) == derive_passphrase(s)


def test_passphrase_differs_by_nonce():
    a = derive_passphrase(render_ssid(Ssid(42, 1)))
    b = derive_passphrase(render_ssid(Ssid(42, 2)))
    assert a != b


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_passphrase_length_and_ascii(root_id, nonce):
    p = derive_passphrase(render_ssid(Ssid(root_id, nonce)))
    assert len(p) >= 16
    assert all(32 < ord(c) < 127 for c in p)
