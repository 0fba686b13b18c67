"""TransferSession block bookkeeping and courier order payloads."""

import math
from dataclasses import replace

import pytest

from pear2pear.core import block_count_for, block_payload, compute_file_id, make_meta
from pear2pear.frames import Frame, FrameKind, decode_frame, encode_frame
from pear2pear.params import Params
from pear2pear.transfer import (
    PHASE_PULL, PHASE_PUSH, CourierMission, TransferSession,
)

BS = 16


def _pull_session(content, sources, block_range=None, name="f"):
    meta = make_meta(name, content, BS)
    sess = TransferSession("s1", file_id=meta.file_id)
    sess.begin(meta, sources, block_range)
    return sess, meta


def test_requests_round_robin_over_sorted_sources():
    sess, _ = _pull_session(b"x" * (BS * 5), sources=[30, 10])
    reqs = sess.next_requests(now=0.0)
    # sources sorted -> [10, 30]; block i -> sources[i % 2]
    assert reqs == [(10, 0), (30, 1), (10, 2), (30, 3), (10, 4)]
    # nothing is re-requested while in flight
    assert sess.next_requests(now=1.0) == []


def test_completion_and_assembly():
    content = bytes(range(BS)) * 3 + b"tail"
    sess, meta = _pull_session(content, sources=[1])
    sess.next_requests(now=0.0)
    for i in range(meta.block_count):
        assert sess.on_block(i, block_payload(content, i, BS))
    assert sess.complete()
    assert sess.assemble() == content
    assert sess.verify()


def test_duplicate_block_ignored():
    sess, _ = _pull_session(b"x" * BS, sources=[1])
    sess.next_requests(now=0.0)
    assert sess.on_block(0, b"x" * BS)
    assert not sess.on_block(0, b"y" * BS)
    assert sess.assemble() == b"x" * BS


def test_out_of_range_block_ignored():
    sess, _ = _pull_session(b"x" * BS, sources=[1])
    assert not sess.on_block(5, b"junk")


def test_drop_source_requeues_inflight_blocks():
    sess, _ = _pull_session(b"x" * (BS * 4), sources=[10, 20])
    sess.next_requests(now=0.0)
    sess.on_block(0, b"x" * BS)
    sess.drop_source(10)
    assert sess.sources == [20]
    # block 2 was assigned to 10 and must be requeued; block 0 stays held
    assert sess.inflight == {1: (20, 0.0), 3: (20, 0.0)}
    assert list(sess.buffers) == [0]
    reqs = sess.next_requests(now=1.0)
    assert reqs == [(20, 2)]


def test_overdue_sources():
    sess, _ = _pull_session(b"x" * (BS * 2), sources=[10, 20])
    sess.next_requests(now=0.0)
    sess.on_block(0, b"x" * BS)
    assert sess.overdue_sources(now=4.9, timeout=5.0) == []
    assert sess.overdue_sources(now=5.0, timeout=5.0) == [20]


def test_block_is_overdue_exactly_at_its_deadline():
    # The block timer for a block sent at t fires at t + timeout, and
    # (t + timeout) - t rounds below timeout for some t (27.02, 30.2, ...):
    # the check must still find the block overdue when that timer fires.
    timeout = Params().block_timeout
    for k in range(2001):
        sent = 20.0 + k * 0.01
        sess, _ = _pull_session(b"x" * BS, sources=[10])
        sess.next_requests(now=sent)
        assert sess.overdue_sources(now=sent + timeout, timeout=timeout) == [10], sent
        before = math.nextafter(sent + timeout, 0.0)
        assert sess.overdue_sources(now=before, timeout=timeout) == [], sent


def test_block_range_limits_wanted():
    sess, _ = _pull_session(b"x" * (BS * 10), sources=[1], block_range=(3, 6))
    assert list(sess.wanted) == [3, 4, 5]
    sess.next_requests(now=0.0)
    for i in (3, 4, 5):
        sess.on_block(i, b"x" * BS)
    assert sess.complete()


def test_push_session_has_no_sources():
    meta = make_meta("f", b"x" * (BS * 2), BS)
    sess = TransferSession("s2", file_id=meta.file_id)
    sess.begin(meta, ())
    assert sess.phase == PHASE_PUSH
    assert sess.next_requests(now=0.0) == []
    sess.on_block(0, b"x" * BS)
    sess.on_block(1, b"x" * BS)
    assert sess.complete()


def test_verify_catches_corruption_and_retry_resets():
    content = b"good content here"
    sess, meta = _pull_session(content, sources=[1])
    sess.next_requests(now=0.0)
    sess.on_block(0, b"bad content here!"[:BS])
    sess.on_block(1, block_payload(content, 1, BS))
    assert sess.complete()
    assert not sess.verify()
    sess.reset_for_retry()
    assert sess.hash_retry_used
    assert not sess.complete()
    assert sess.inflight == {} and sess.buffers == {}


def test_single_byte_file_is_one_block():
    sess, meta = _pull_session(b"z", sources=[1])
    assert meta.block_count == 1
    assert list(sess.wanted) == [0]
    sess.next_requests(now=0.0)
    sess.on_block(0, b"z")
    assert sess.complete() and sess.verify()


# --- held-block count -------------------------------------------------------

def test_held_ignores_duplicates_and_out_of_range_blocks():
    sess, _ = _pull_session(b"x" * (BS * 3), sources=[1])
    sess.next_requests(now=0.0)
    assert len(sess.buffers) == 0
    sess.on_block(0, b"x" * BS)
    sess.on_block(0, b"x" * BS)
    sess.on_block(7, b"x" * BS)
    sess.on_block(-1, b"x" * BS)
    assert len(sess.buffers) == 1 and not sess.complete()
    sess.on_block(1, b"x" * BS)
    sess.on_block(2, b"x" * BS)
    assert len(sess.buffers) == 3 and sess.complete()


def test_held_counts_a_block_once_across_a_dropped_source():
    sess, _ = _pull_session(b"x" * (BS * 4), sources=[10, 20])
    sess.next_requests(now=0.0)
    sess.on_block(0, b"x" * BS)          # from 10, before it is dropped
    sess.drop_source(10)                 # block 2 goes back to missing
    assert len(sess.buffers) == 1
    assert sess.next_requests(now=1.0) == [(20, 2)]
    sess.on_block(2, b"x" * BS)          # late copy from the dropped source
    sess.on_block(2, b"x" * BS)          # the re-request's copy
    assert len(sess.buffers) == 2
    sess.on_block(1, b"x" * BS)
    sess.on_block(3, b"x" * BS)
    assert len(sess.buffers) == 4 and sess.complete()


def test_reset_for_retry_restarts_the_held_count():
    sess, _ = _pull_session(b"x" * (BS * 2), sources=[1])
    sess.next_requests(now=0.0)
    sess.on_block(0, b"x" * BS)
    sess.on_block(1, b"x" * BS)
    assert sess.complete()
    sess.reset_for_retry()
    assert len(sess.buffers) == 0 and not sess.complete()
    sess.next_requests(now=1.0)
    sess.on_block(0, b"x" * BS)
    assert len(sess.buffers) == 1 and not sess.complete()
    sess.on_block(1, b"x" * BS)
    assert len(sess.buffers) == 2 and sess.complete()


def test_held_restarts_with_a_new_range():
    sess, meta = _pull_session(b"x" * (BS * 4), sources=[1], block_range=(0, 2))
    sess.on_block(0, b"x" * BS)
    sess.begin(meta, (), block_range=(2, 4))
    assert len(sess.buffers) == 0
    sess.on_block(0, b"x" * BS)
    assert len(sess.buffers) == 0


TARGET = "P2P-000000000000000A-0000002A"
FID = compute_file_id(b"courier cargo")

ORDERS = [
    (CourierMission("1-3", "catalog", TARGET, since=7),
     {"mission": "catalog", "target": TARGET, "mission_id": "1-3", "ttl": 1,
      "session_id": "", "origin": "", "since": 7}),
    (CourierMission("1-4", "file", TARGET, ttl=2, file_id=FID, requester=5,
                    session_id="11-1/sub", origin="5-2"),
     {"mission": "file", "target": TARGET, "mission_id": "1-4", "ttl": 2,
      "session_id": "11-1/sub", "origin": "5-2", "file_id": FID.digest,
      "requester": 5}),
    (CourierMission("1-5", "file", TARGET, ttl=3, file_id=FID, block_range=(11, 22),
                    requester=5, session_id="5-2", origin="5-2"),
     {"mission": "file", "target": TARGET, "mission_id": "1-5", "ttl": 3,
      "session_id": "5-2", "origin": "5-2", "file_id": FID.digest,
      "requester": 5, "range": (11, 22)}),
]


@pytest.mark.parametrize("mission,payload", ORDERS, ids=["catalog", "file", "range"])
def test_an_order_renders_and_round_trips(mission, payload):
    assert mission.order() == payload
    frame = Frame(kind=FrameKind.COURIER_ORDER, src=1, dst=2, payload=mission.order())
    back = decode_frame(encode_frame(frame))
    assert back == frame
    home = "P2P-0000000000000001-00000001"
    flown = CourierMission.from_order(back.payload, home)
    assert flown == replace(mission, home=home)


def test_an_order_without_an_origin_serves_its_own_session():
    payload = ORDERS[1][1] | {"origin": ""}
    assert CourierMission.from_order(payload, "").origin == "11-1/sub"
