"""NetworkFileCatalog and SubnetCatalog behaviour."""

from pear2pear.catalog import Mirror, NetworkFileCatalog, SubnetCatalog
from pear2pear.core import make_meta

from helpers import merge_whole

BS = 16


def _cat_with(*files, root=1):
    """files are (name, content) pairs registered to `root`."""
    return NetworkFileCatalog.init_from(root, [make_meta(n, c, BS) for n, c in files])


def test_init_registers_root_holdings():
    cat = _cat_with(("a.txt", b"aaa"), ("b.txt", b"bbb"))
    assert len(cat.entries) == 2
    for entry in cat.entries.values():
        assert entry.holders == {1}


def test_register_same_content_merges_names():
    cat = _cat_with(("a.txt", b"same"))
    cat.register_files(2, [make_meta("copy-of-a.txt", b"same", BS)])
    assert len(cat.entries) == 1
    (entry,) = cat.entries.values()
    assert entry.meta.names == {"a.txt", "copy-of-a.txt"}
    assert entry.holders == {1, 2}


def test_register_is_idempotent():
    meta = make_meta("a.txt", b"x", BS)
    cat = NetworkFileCatalog.init_from(1, [meta])
    before = cat.snapshot("S")
    cat.register_files(1, [meta])
    assert cat.snapshot("S") == before


def test_lookup_by_any_name():
    cat = _cat_with(("a.txt", b"same"))
    cat.register_files(2, [make_meta("other.txt", b"same", BS)])
    fid = make_meta("x", b"same", BS).file_id
    assert cat.lookup_name("a.txt") == [fid]
    assert cat.lookup_name("other.txt") == [fid]
    assert cat.lookup_name("missing.txt") == []


def test_file_change_removes_and_collapses():
    cat = _cat_with(("a.txt", b"x"))
    fid = make_meta("a.txt", b"x", BS).file_id
    cat.register_files(2, [make_meta("a.txt", b"x", BS)])
    cat.apply_file_change(1, [], [fid])
    assert cat.entries[fid].holders == {2}
    cat.apply_file_change(2, [], [fid])
    assert fid not in cat.entries


def test_drop_holder_keeps_entries_with_remote_copies():
    cat = _cat_with(("a.txt", b"x"))
    fid = make_meta("a.txt", b"x", BS).file_id
    snap = _cat_with(("a.txt", b"x"), root=9).snapshot("NET-B")
    merge_whole(cat, snap, via_gateway="NET-B", home_ssid="NET-A", now=0.0)
    cat.drop_holder(1)
    assert fid in cat.entries
    assert not cat.entries[fid].holders
    assert "NET-B" in cat.entries[fid].remote


def test_merge_adds_one_hop_per_jump():
    # C holds the file; B merged C's snapshot; A merges B's.
    b = NetworkFileCatalog()
    merge_whole(b, _cat_with(("song", b"tune"), root=5).snapshot("NET-C"),
                via_gateway="NET-C", home_ssid="NET-B", now=0.0)
    a = NetworkFileCatalog()
    merge_whole(a, b.snapshot("NET-B"), via_gateway="NET-B", home_ssid="NET-A", now=0.0)
    fid = make_meta("song", b"tune", BS).file_id
    rec = a.entries[fid].remote["NET-C"]
    assert rec.hops == 2
    assert rec.gateway == "NET-B"


def test_merge_keeps_minimum_hops():
    fid = make_meta("song", b"tune", BS).file_id
    a = NetworkFileCatalog()
    far = {"subnet": "NET-X", "entries": [
        [fid.digest, ["song"], 4, 1, 0, [["NET-C", 3, 1]]],
    ]}
    x = Mirror()
    merge_whole(a, far, via_gateway="NET-X", home_ssid="NET-A", now=0.0, mirror=x)
    assert a.entries[fid].remote["NET-C"].hops == 4
    merge_whole(a, _cat_with(("song", b"tune"), root=5).snapshot("NET-C"),
                via_gateway="NET-C", home_ssid="NET-A", now=1.0)
    assert a.entries[fid].remote["NET-C"].hops == 1
    # a longer path later must not displace the shorter one
    merge_whole(a, far, via_gateway="NET-X", home_ssid="NET-A", now=2.0, mirror=x)
    rec = a.entries[fid].remote["NET-C"]
    assert rec.hops == 1
    assert rec.last_refresh == 1.0


def test_merge_skips_records_about_home():
    a = _cat_with(("song", b"tune"))
    fid = make_meta("song", b"tune", BS).file_id
    # neighbor knows our copy at hops 1; merging must not create a remote
    # record pointing back at ourselves
    snap = {"subnet": "NET-B", "entries": [
        [fid.digest, ["song"], 4, 1, 0, [["NET-A", 1, 1]]],
    ]}
    merge_whole(a, snap, via_gateway="NET-B", home_ssid="NET-A", now=0.0)
    assert a.entries[fid].remote == {}


def test_remote_ttl_expiry():
    a = NetworkFileCatalog()
    fid = make_meta("song", b"tune", BS).file_id
    merge_whole(a, _cat_with(("song", b"tune"), root=5).snapshot("NET-C"),
                via_gateway="NET-C", home_ssid="NET-A", now=10.0)
    a.expire_remote(now=69.0, ttl=60.0)
    assert fid in a.entries
    a.expire_remote(now=70.0, ttl=60.0)
    assert fid not in a.entries


def test_expiry_after_a_partial_sweep():
    # records refreshed at 0, 10 and 30; the sweep at 60 removes only the
    # first, and the one from 10 must still expire at 70
    a, c = NetworkFileCatalog(), Mirror()
    fids = []
    for t, content in ((0.0, b"zero"), (10.0, b"ten"), (30.0, b"thirty")):
        merge_whole(a, _cat_with(("f", content), root=5).snapshot("NET-C"),
                    via_gateway="NET-C", home_ssid="NET-A", now=t, mirror=c)
        fids.append(make_meta("f", content, BS).file_id)
    a.expire_remote(now=60.0, ttl=60.0)
    assert set(a.entries) == set(fids[1:])
    a.expire_remote(now=70.0, ttl=60.0)
    assert set(a.entries) == {fids[2]}


def test_drop_via_gateways():
    a = NetworkFileCatalog()
    fid = make_meta("song", b"tune", BS).file_id
    merge_whole(a, _cat_with(("song", b"tune"), root=5).snapshot("NET-C"),
                via_gateway="NET-B", home_ssid="NET-A", now=0.0)
    a.drop_via_gateways({"NET-B"})
    assert fid not in a.entries


def test_snapshot_deterministic_and_sorted():
    cat = _cat_with(("z.txt", b"zz"), ("a.txt", b"aa"), ("m.txt", b"mm"))
    snap = cat.snapshot("NET-A")
    ids = [e[0] for e in snap["entries"]]
    assert ids == sorted(ids)
    assert snap == cat.snapshot("NET-A")


def test_mirror_refuses_a_delta_cut_against_another_version():
    cat = _cat_with(("a.txt", b"x"), root=9)
    held = Mirror()
    assert held.apply(cat.snapshot("NET-B", 0))
    cat.register_files(3, [make_meta("b.txt", b"y", BS)])
    newer = Mirror()
    assert newer.apply(cat.snapshot("NET-B", 0))
    cat.apply_file_change(9, [], [make_meta("a.txt", b"x", BS).file_id])
    delta = cat.snapshot("NET-B", newer.version)
    assert delta["entries"] == []
    assert len(delta["removed"]) == 1
    before = (held.version, held.entries)
    assert not held.apply(delta)
    assert (held.version, held.entries) == before
    assert newer.apply(delta)
    assert newer.entries == cat.snapshot("NET-B")["entries"]
    # a repeat cut of an unchanged catalog ships nothing
    again = cat.snapshot("NET-B", newer.version)
    assert (again["entries"], again["removed"]) == ([], [])


def test_delta_carries_a_holder_count_refresh():
    # an equal-hop record whose holder count changes is a change to ship
    meta = make_meta("song", b"tune", BS)

    def far(holders):
        return {"subnet": "NET-C", "entries": [
            [meta.file_id.digest, ["song"], meta.size, meta.block_count, holders, []]]}

    a, c = NetworkFileCatalog(), Mirror()
    merge_whole(a, far(1), via_gateway="NET-C", home_ssid="NET-A", now=0.0, mirror=c)
    held = Mirror()
    assert held.apply(a.snapshot("NET-A", 0))
    merge_whole(a, far(2), via_gateway="NET-C", home_ssid="NET-A", now=1.0, mirror=c)
    delta = a.snapshot("NET-A", held.version)
    # an entry's remote records are its last field, a record's holders its last
    assert [e[-1][0][-1] for e in delta["entries"]] == [2]
    assert held.apply(delta)
    assert held.entries == a.snapshot("NET-A")["entries"]


# --- SubnetCatalog --------------------------------------------------------

def test_scan_report_add_and_withdraw():
    sub = SubnetCatalog()
    sub.report_scan(2, ["NET-B", "NET-C"], now=0.0)
    sub.report_scan(3, ["NET-B"], now=1.0)
    assert sub.neighbors["NET-B"].reachable_by == {2, 3}
    assert sub.neighbors["NET-C"].reachable_by == {2}
    # peer 2 moved; it no longer sees NET-C
    sub.report_scan(2, ["NET-B"], now=2.0)
    assert sub.neighbors["NET-C"].reachable_by == set()


def test_neighbor_expiry_returns_purged():
    sub = SubnetCatalog()
    sub.report_scan(2, ["NET-B"], now=0.0)
    sub.report_scan(2, ["NET-C"], now=30.0)
    assert sub.expire(now=60.0, ttl=60.0) == ["NET-B"]
    assert set(sub.neighbors) == {"NET-C"}


def test_drop_peer():
    sub = SubnetCatalog()
    sub.report_scan(2, ["NET-B"], now=0.0)
    sub.drop_peer(2)
    assert sub.neighbors["NET-B"].reachable_by == set()
