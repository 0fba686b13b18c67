"""A device's own requests inside its subnet: a root that searches and
downloads for itself, one block request per holder, a holder that refuses
its blocks, a holder that serves corrupt bytes, a holder away on a courier
order, and a search by id for a file that appears later."""

import pathlib

import pytest

from pear2pear.core import make_meta
from pear2pear.frames import FrameKind
from pear2pear.scenario import build_world, load_scenario

from helpers import (
    make_world, only_download, random_content, record_frames, star, trace_events,
)

BLOCK = 1024
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _pull_world(holders, requester, blocks=8):
    """Root 1; `holders` share one file of `blocks` blocks, `requester` does
    not. Returns the world, the file id and the content."""
    content = random_content(blocks, blocks * BLOCK)
    w = make_world(block_size=BLOCK)
    star(w, 1, sorted(set(holders) | {requester} - {1}),
         files={h: [("f.bin", content)] for h in holders})
    return w, make_meta("f.bin", content, BLOCK).file_id, content


def test_a_root_searches_and_downloads_a_members_file():
    w, fid, content = _pull_world(holders=[2], requester=1)
    w.schedule(2.0, "search", device=1, query="f.bin")
    w.schedule(3.0, "download", device=1, file_id=fid)
    w.run_until(20.0)
    (found,) = trace_events(w, "search-result", device=1)
    assert found.details["ok"] and found.details["count"] == 1
    assert only_download(w)["success"]
    root = w.nodes[1]
    assert root.files[fid] == content
    assert root.catalog.entries[fid.digest].holders == {1, 2}


def _block_requests(frames):
    """(dst, indices) of each recorded BLOCK_REQUEST, in order."""
    return [(f.dst, f.payload["indices"]) for f in frames if f.kind == FrameKind.BLOCK_REQUEST]


def test_a_pull_asks_each_holder_once_for_all_its_blocks():
    w, fid, content = _pull_world(holders=[2, 3], requester=4)
    frames = record_frames(w)
    w.schedule(2.0, "download", device=4, file_id=fid)
    w.run_until(20.0)
    assert only_download(w)["success"]
    assert _block_requests(frames) == [(2, (0, 2, 4, 6)), (3, (1, 3, 5, 7))]
    answers = [(f.src, f.payload["index"]) for f in frames if f.kind == FrameKind.BLOCK_RESPONSE]
    assert answers == [(2, 0), (2, 2), (2, 4), (2, 6), (3, 1), (3, 3), (3, 5), (3, 7)]
    assert w.nodes[4].files[fid] == content


def test_a_silent_holders_blocks_are_asked_of_the_other_in_one_frame():
    # holder 2 leaves without a word before its request lands; at the block
    # timeout its four blocks go to holder 3 in one request
    w, fid, content = _pull_world(holders=[2, 3], requester=4)
    frames = record_frames(w)
    w.schedule(2.0, "download", device=4, file_id=fid)
    w.schedule(2.025, "depart", device=2, silent=True)
    w.run_until(20.0)
    (reassign,) = trace_events(w, "reassign", device=4)
    assert reassign.details["dropped"] == 2
    assert _block_requests(frames) == [(2, (0, 2, 4, 6)), (3, (1, 3, 5, 7)), (3, (0, 2, 4, 6))]
    assert only_download(w)["success"]
    assert w.nodes[4].files[fid] == content


def test_a_holder_that_refuses_every_block_is_dropped_once():
    # holder 2 lost the file but is still listed: asked for its four blocks
    # in one request, it refuses the first and answers no further. That one
    # refusal moves all four to holder 3.
    w, fid, content = _pull_world(holders=[2, 3], requester=4)
    w.run_until(1.0)
    del w.nodes[2].files[fid]
    frames = record_frames(w)
    w.schedule(2.0, "download", device=4, file_id=fid)
    w.run_until(20.0)
    rec = only_download(w)
    assert rec["success"], rec
    (reassign,) = trace_events(w, "reassign", device=4)
    assert reassign.details["dropped"] == 2
    (refusal,) = [f.payload for f in frames
                  if f.kind == FrameKind.BLOCK_RESPONSE and not f.payload["ok"]]
    assert refusal["index"] == 0 and "file_id" not in refusal
    assert _block_requests(frames) == [(2, (0, 2, 4, 6)), (3, (1, 3, 5, 7)), (3, (0, 2, 4, 6))]
    assert w.nodes[4].files[fid] == content


def test_corrupt_blocks_are_retried_once_then_fail_the_pull():
    w, fid, content = _pull_world(holders=[2, 3], requester=4)
    w.run_until(1.0)
    w.nodes[3].files[fid] = bytes(len(content))
    frames = record_frames(w)
    w.schedule(2.0, "download", device=4, file_id=fid)
    w.run_until(20.0)
    (retry,) = trace_events(w, "hash-retry", device=4)
    (failed,) = trace_events(w, "download-failed", device=4)
    assert failed.details["reason"] == "hash-mismatch"
    assert failed.time > retry.time
    assert fid not in w.nodes[4].files and w.nodes[4].sessions == {}
    # the retry asks each holder once again for its blocks
    assert _block_requests(frames) == [(2, (0, 2, 4, 6)), (3, (1, 3, 5, 7))] * 2


def test_a_lone_holder_that_refuses_is_reassigned_then_exhausted():
    # a refusal takes the same path as a block timeout: the lost source's
    # blocks go to the others, here none, so the pull fails
    w, fid, _ = _pull_world(holders=[2], requester=3)
    w.run_until(1.0)
    del w.nodes[2].files[fid]
    w.schedule(2.0, "download", device=3, file_id=fid)
    w.run_until(20.0)
    (reassign,) = trace_events(w, "reassign", device=3)
    assert reassign.details["dropped"] == 2
    (failed,) = trace_events(w, "download-failed", device=3)
    assert failed.details["reason"] == "sources-exhausted"
    assert failed.time == reassign.time


def _away_holder_world(holders):
    """`_pull_world` with requester 4, where holder 2 also sees root 10: root
    1 orders it on a catalog run at 20 s, and it is away until it reports
    home at about 24 s. Device 4 downloads the file at 21 s."""
    w, fid, content = _pull_world(holders=holders, requester=4)
    star(w, 10, [11])
    w.add_edge(2, 10)
    w.schedule(21.0, "download", device=4, file_id=fid)
    return w, fid, content, record_frames(w)


def _source_lists(frames):
    return [f.payload for f in frames if f.kind == FrameKind.SOURCE_LIST]


def test_a_holder_away_on_an_order_is_not_listed_as_a_source():
    w, fid, content, frames = _away_holder_world(holders=[2, 3])
    w.run_until(30.0)
    (order,) = trace_events(w, "courier-assign", device=1)
    assert order.time == 20.0 and order.details["courier"] == 2
    (listed,) = _source_lists(frames)
    assert listed["sources"] == (3,)
    assert only_download(w)["success"]
    assert trace_events(w, "reassign", device=4) == []
    assert w.nodes[4].files[fid] == content


def test_a_sole_holder_away_on_an_order_is_refused():
    w, fid, _, frames = _away_holder_world(holders=[2])
    w.run_until(30.0)
    (refused,) = _source_lists(frames)
    assert refused["ok"] is False and refused["reason"] == "holder-away"
    (failed,) = trace_events(w, "download-failed", device=4)
    assert failed.details["reason"] == "holder-away"
    assert failed.time == pytest.approx(21.02)
    assert not [f for f in frames if f.kind == FrameKind.BLOCK_REQUEST]


@pytest.mark.parametrize("spell", [str.lower, str.upper], ids=["lower", "upper"])
def test_a_search_by_id_waits_for_the_file_to_appear(spell):
    # device 2 looks an absent file up by id and asks for it: both miss,
    # and root 1 keeps one wanted entry for the id. Holder 3 arrives at 15;
    # its FILE_LIST resolves the entry and answers 2's search. An id in
    # upper case names the same file, and so shares and resolves that entry.
    content = b"late content" * 40
    w = make_world()
    star(w, 1, [2])
    w.add_device(3, [("late.txt", content)])
    w.add_edge(3, 1)
    fid = make_meta("late.txt", content, w.p.block_size).file_id
    query = spell(fid.hex)
    w.schedule(5.0, "search", device=2, query=query, by="id")
    w.schedule(6.0, "download", device=2, file_id=fid)
    w.schedule(15.0, "arrive", device=3)
    w.schedule(20.0, "search", device=2, query=query, by="id")
    w.run_until(25.0)
    results = trace_events(w, "search-result", device=2)
    assert [r.details["ok"] for r in results] == [False, True, True]
    assert results[0].time == pytest.approx(5.02)
    assert results[1].time == pytest.approx(15.04)
    (failed,) = trace_events(w, "download-failed", device=2)
    assert failed.details["reason"] == "notfound"
    assert len(trace_events(w, "wanted-emit", device=1)) == 1
    (resolved,) = trace_events(w, "wanted-resolved", device=1)
    assert resolved.details["key"] == f"id:{fid.hex}"
    assert resolved.time == pytest.approx(15.03)


def test_a_search_reads_each_files_locality_and_hops():
    # three chained subnets, 100 -> 200 -> 300, through gateways 103 and
    # 203: 102 holds same.txt, and 301 holds far.txt and same.txt. By 150 s
    # root 100's catalog has both from 300, two hops away; a local holder
    # beats the remote copy.
    w = make_world()
    star(w, 100, [101, 102, 103], files={102: [("same.txt", b"same" * 50)]})
    star(w, 200, [201, 202, 203])
    star(w, 300, [301], files={301: [("far.txt", b"far" * 50), ("same.txt", b"same" * 50)]})
    w.add_edge(103, 200)
    w.add_edge(203, 300)
    for t, query in [(150.0, "far.txt"), (151.0, "same.txt"), (152.0, "none.txt")]:
        w.schedule(t, "search", device=101, query=query)
    frames = record_frames(w)
    w.run_until(155.0)
    answers = {f.payload["query"]: f.payload for f in frames
               if f.kind == FrameKind.SEARCH_RESPONSE and f.dst == 101}
    (far,) = answers["far.txt"]["results"]
    assert answers["far.txt"]["ok"] and (far["locality"], far["hops"]) == ("remote", 2)
    assert far["names"] == ("far.txt",)
    (same,) = answers["same.txt"]["results"]
    assert answers["same.txt"]["ok"] and (same["locality"], same["hops"]) == ("local", 0)
    assert answers["none.txt"]["ok"] is False and answers["none.txt"]["results"] == ()


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_no_block_response_or_source_list_carries_a_file_id(name):
    # the session id names the download; the file's digest travels in a
    # source list's meta and in each block request only
    sc = load_scenario(str(SCENARIOS / name))
    world = build_world(sc)
    frames = record_frames(world)
    world.run_until(sc.until)
    kinds = (FrameKind.BLOCK_RESPONSE, FrameKind.SOURCE_LIST)
    sent = [f for f in frames if f.kind in kinds]
    assert {f.kind for f in sent} == set(kinds)
    assert [f.payload for f in sent if "file_id" in f.payload] == []
