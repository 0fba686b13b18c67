"""A device's own requests inside its subnet: a root that searches and
downloads for itself, a holder that refuses its blocks, and a holder that
serves corrupt bytes."""

from pear2pear.core import make_meta

from helpers import make_world, only_download, random_content, star, trace_events

BLOCK = 1024


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
    assert root.catalog.entries[fid].holders == {1, 2}


def test_a_holder_that_refuses_every_block_is_dropped_once():
    # holder 2 lost the file but is still listed: it refuses each of its
    # four in-flight blocks. The first refusal moves them to holder 3; the
    # other three come from a source already dropped and change nothing.
    w, fid, content = _pull_world(holders=[2, 3], requester=4)
    w.run_until(1.0)
    del w.nodes[2].files[fid]
    w.schedule(2.0, "download", device=4, file_id=fid)
    w.run_until(20.0)
    rec = only_download(w)
    assert rec["success"], rec
    (reassign,) = trace_events(w, "reassign", device=4)
    assert reassign.details["dropped"] == 2
    assert w.nodes[4].files[fid] == content


def test_corrupt_blocks_are_retried_once_then_fail_the_pull():
    w, fid, content = _pull_world(holders=[2, 3], requester=4)
    w.run_until(1.0)
    w.nodes[3].files[fid] = bytes(len(content))
    w.schedule(2.0, "download", device=4, file_id=fid)
    w.run_until(20.0)
    (retry,) = trace_events(w, "hash-retry", device=4)
    (failed,) = trace_events(w, "download-failed", device=4)
    assert failed.details["reason"] == "hash-mismatch"
    assert failed.time > retry.time
    assert fid not in w.nodes[4].files and w.nodes[4].sessions == {}
