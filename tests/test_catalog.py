"""NetworkFileCatalog and SubnetCatalog behaviour."""

import gc

from pear2pear.catalog import Mirror, NetworkFileCatalog, SubnetCatalog
from pear2pear.core import FileId, FileMeta, make_meta

from helpers import merge_whole

BS = 16
CAP = 8  # the hop cap, as courier_ttl's default


def _cat(ssid="NET-A"):
    return NetworkFileCatalog(ssid, CAP)


def _cat_with(*files, root=1, ssid="NET-A"):
    """files are (name, content) pairs registered to `root`."""
    cat = _cat(ssid)
    cat.register_files(root, [make_meta(n, c, BS) for n, c in files])
    return cat


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
    assert entry.names == ("a.txt", "copy-of-a.txt")
    assert entry.holders == {1, 2}


def test_register_is_idempotent():
    meta = make_meta("a.txt", b"x", BS)
    cat = _cat()
    cat.register_files(1, [meta])
    before = cat.snapshot(0)
    cat.register_files(1, [meta])
    assert cat.snapshot(0) == before


def test_lookup_by_any_name():
    cat = _cat_with(("a.txt", b"same"))
    cat.register_files(2, [make_meta("other.txt", b"same", BS)])
    fid = make_meta("x", b"same", BS).file_id
    assert cat.lookup_name("a.txt") == [fid.digest]
    assert cat.lookup_name("other.txt") == [fid.digest]
    assert cat.lookup_name("missing.txt") == []


def test_file_change_removes_and_collapses():
    cat = _cat_with(("a.txt", b"x"))
    fid = make_meta("a.txt", b"x", BS).file_id
    cat.register_files(2, [make_meta("a.txt", b"x", BS)])
    cat.apply_file_change(1, [], [fid])
    assert cat.entries[fid.digest].holders == {2}
    cat.apply_file_change(2, [], [fid])
    assert fid.digest not in cat.entries


def test_drop_holder_keeps_entries_with_remote_copies():
    cat = _cat_with(("a.txt", b"x"))
    fid = make_meta("a.txt", b"x", BS).file_id
    snap = _cat_with(("a.txt", b"x"), root=9, ssid="NET-B").snapshot(0)
    merge_whole(cat, snap, "NET-B", now=0.0)
    cat.drop_holder(1)
    assert fid.digest in cat.entries
    assert not cat.entries[fid.digest].holders
    assert "NET-B" in cat.entries[fid.digest].remote


def _far(holders, *records):
    """A neighbour's catalog holding the song on `holders` members and
    knowing these (subnet, hops, holder_count) records of it."""
    meta = make_meta("song", b"tune", BS)
    return {"entries": [
        [meta.file_id.digest, ["song"], meta.size, meta.block_count, holders,
         [list(r) for r in sorted(records)]]]}


SONG = make_meta("song", b"tune", BS).file_id


def test_merge_adds_one_hop_per_jump():
    # C holds the file; B merged C's snapshot; A merges B's.
    b = _cat("NET-B")
    merge_whole(b, _cat_with(("song", b"tune"), root=5, ssid="NET-C").snapshot(0), "NET-C", now=0.0)
    a = _cat()
    merge_whole(a, b.snapshot(0), "NET-B", now=0.0)
    hops, _, gateway = a.entries[SONG.digest].remote["NET-C"]
    assert hops == 2
    assert gateway == "NET-B"


def test_merge_keeps_minimum_hops():
    a = _cat()
    far = _far(0, ("NET-C", 3, 1))
    merge_whole(a, far, "NET-X", now=0.0)
    assert a.entries[SONG.digest].remote["NET-C"][0] == 4
    merge_whole(a, _cat_with(("song", b"tune"), root=5, ssid="NET-C").snapshot(0), "NET-C", now=1.0)
    assert a.entries[SONG.digest].remote["NET-C"][0] == 1
    # a longer path later must not displace the shorter one
    merge_whole(a, far, "NET-X", now=2.0)
    hops, _, gateway = a.entries[SONG.digest].remote["NET-C"]
    assert (hops, gateway) == (1, "NET-C")


def test_merge_skips_records_about_home():
    a = _cat_with(("song", b"tune"))
    # neighbor knows our copy at hops 1; merging must not create a remote
    # record pointing back at ourselves
    merge_whole(a, _far(0, ("NET-A", 1, 1)), "NET-B", now=0.0)
    assert a.entries[SONG.digest].remote == {}


def test_equal_hop_offers_give_one_record_whatever_the_merge_order():
    # B and D both offer C's song at two hops, with different holder counts:
    # the record is B's, the gateway first in SSID order, in either order
    offers = [("NET-B", _far(0, ("NET-C", 1, 2))),
              ("NET-D", _far(0, ("NET-C", 1, 5)))]
    for order in (offers, offers[::-1]):
        a = _cat()
        for t, (gateway, snap) in enumerate(order):
            merge_whole(a, snap, gateway, now=float(t))
        assert a.entries[SONG.digest].remote["NET-C"] == (2, 2, "NET-B")
        assert a.snapshot(0)["entries"][0][-1] == (("NET-C", 2, 2),)


def test_a_withdrawn_record_falls_back_to_a_longer_offer():
    a = _cat()
    merge_whole(a, _far(0, ("NET-C", 1, 2)), "NET-B", now=0.0)
    merge_whole(a, _far(0, ("NET-C", 2, 3)), "NET-D", now=0.0)
    assert a.entries[SONG.digest].remote["NET-C"][2] == "NET-B"
    # B's next delta removes the song: D's three-hop offer takes over at once
    b = a.mirrors["NET-B"]
    delta = {"entries": [], "removed": [SONG.digest],
             "version": b.version + 1, "base": b.version}
    assert a.merge_snapshot(delta, "NET-B", now=1.0)
    assert a.entries[SONG.digest].remote["NET-C"] == (3, 3, "NET-D")


def test_remote_ttl_expiry():
    a = _cat()
    merge_whole(a, _cat_with(("song", b"tune"), root=5, ssid="NET-C").snapshot(0), "NET-C", now=10.0)
    a.expire_remote(now=69.0, ttl=60.0)
    assert SONG.digest in a.entries
    a.expire_remote(now=70.0, ttl=60.0)
    assert SONG.digest not in a.entries
    assert a.mirrors == {}


def test_an_expired_mirror_takes_only_what_it_alone_offered():
    # B (merged at 0) offers the song and file f; D (merged at 30) offers
    # the song one hop further. B's expiry at 60 leaves the song to D.
    f = make_meta("f", b"only-b", BS)
    b = _far(0, ("NET-C", 1, 1))
    b["entries"] = sorted(b["entries"] + [[f.file_id.digest, ["f"], f.size, f.block_count, 1, []]])
    a = _cat()
    merge_whole(a, b, "NET-B", now=0.0)
    merge_whole(a, _far(0, ("NET-C", 2, 4)), "NET-D", now=30.0)
    a.expire_remote(now=59.9, ttl=60.0)
    assert set(a.mirrors) == {"NET-B", "NET-D"}
    a.expire_remote(now=60.0, ttl=60.0)
    assert set(a.mirrors) == {"NET-D"}
    assert f.file_id.digest not in a.entries
    assert a.entries[SONG.digest].remote["NET-C"] == (3, 4, "NET-D")
    a.expire_remote(now=90.0, ttl=60.0)
    assert a.entries == {}


def test_drop_via_gateways():
    a = _cat()
    merge_whole(a, _cat_with(("song", b"tune"), root=5, ssid="NET-B").snapshot(0), "NET-B", now=0.0)
    merge_whole(a, _far(0, ("NET-E", 1, 1)), "NET-D", now=0.0)
    a.drop_via_gateways({"NET-B"})
    assert set(a.mirrors) == {"NET-D"}
    assert set(a.entries[SONG.digest].remote) == {"NET-E"}
    a.drop_via_gateways({"NET-D"})
    assert SONG.digest not in a.entries


def test_a_malformed_digest_gets_no_entry():
    # a neighbour's snapshot is outside input: an id that is no 32-byte
    # digest neither enters the catalog nor travels on in its snapshots
    snap = _far(1)
    snap["entries"] = sorted(snap["entries"] + [[b"short", ["bad"], 3, 1, 1, []]])
    a = _cat()
    merge_whole(a, snap, "NET-B", now=0.0)
    assert list(a.entries) == [SONG.digest]
    assert [e[0] for e in a.snapshot(0)["entries"]] == [SONG.digest]


def test_no_snapshot_ships_a_record_at_the_hop_cap():
    # a record CAP hops away is kept here but not shipped: no neighbour
    # could hold it at more than CAP
    a = _cat()
    merge_whole(a, _far(1, ("NET-C", CAP - 2, 1), ("NET-D", CAP - 1, 1)), "NET-B", now=0.0)
    assert {s: r[0] for s, r in a.entries[SONG.digest].remote.items()} == \
        {"NET-B": 1, "NET-C": CAP - 1, "NET-D": CAP}
    assert a.snapshot(0)["entries"][0][-1] == (("NET-B", 1, 1), ("NET-C", CAP - 1, 1))


def test_snapshot_deterministic_and_sorted():
    cat = _cat_with(("z.txt", b"zz"), ("a.txt", b"aa"), ("m.txt", b"mm"))
    snap = cat.snapshot(0)
    ids = [e[0] for e in snap["entries"]]
    assert ids == sorted(ids)
    assert snap == cat.snapshot(0)


def test_mirror_refuses_a_delta_cut_against_another_version():
    cat = _cat_with(("a.txt", b"x"), root=9, ssid="NET-B")
    held = Mirror()
    assert held.apply(cat.snapshot(0))
    cat.register_files(3, [make_meta("b.txt", b"y", BS)])
    newer = Mirror()
    assert newer.apply(cat.snapshot(0))
    cat.apply_file_change(9, [], [make_meta("a.txt", b"x", BS).file_id])
    delta = cat.snapshot(newer.version)
    assert delta["entries"] == ()
    assert len(delta["removed"]) == 1
    before = (held.version, dict(held.entries))
    assert not held.apply(delta)
    assert (held.version, held.entries) == before
    assert newer.apply(delta)
    assert newer.entries == {e[0]: e for e in cat.snapshot(0)["entries"]}
    # a repeat cut of an unchanged catalog ships nothing
    again = cat.snapshot(newer.version)
    assert (again["entries"], again["removed"]) == ((), ())


def test_mirror_reports_exactly_what_changed():
    def raw(n, holders):
        return [bytes([n]) * 32, [f"f{n}"], 16, 1, holders, []]

    kept, old, dropped = raw(1, 1), raw(2, 1), raw(3, 1)
    new, added = raw(2, 2), raw(4, 1)
    mirror = Mirror(5, {e[0]: e for e in (kept, old, dropped)})
    # a full dump over the held entries: one unchanged (an equal copy, as
    # decoded off the wire), one changed, one dropped and one new
    dump = {"entries": [list(kept), new, added],
            "removed": [], "version": 7, "base": 0}
    assert mirror.apply(dump) == {"entries": [new, added], "removed": [dropped[0]]}
    assert mirror.entries == {e[0]: e for e in (kept, new, added)}
    # a delta that re-sends an identical entry and removes a digest never
    # held reports neither, only its real change and removal
    changed = raw(4, 3)
    delta = {"entries": [list(new), changed],
             "removed": [kept[0], raw(9, 1)[0]], "version": 8, "base": 7}
    assert mirror.apply(delta) == {"entries": [changed], "removed": [kept[0]]}
    assert (mirror.version, mirror.entries) == (8, {e[0]: e for e in (new, changed)})


def test_a_refused_delta_asks_for_a_full_dump():
    a = _cat()
    merge_whole(a, _far(1), "NET-B", now=0.0)
    stale = {"entries": [], "removed": [SONG.digest], "version": 9, "base": 7}
    assert not a.merge_snapshot(stale, "NET-B", now=1.0)
    assert a.mirrors["NET-B"].version == 0
    assert set(a.entries[SONG.digest].remote) == {"NET-B"}


def test_delta_carries_a_holder_count_refresh():
    # an equal-hop record whose holder count changes is a change to ship
    a = _cat()
    merge_whole(a, _far(1), "NET-C", now=0.0)
    held = Mirror()
    assert held.apply(a.snapshot(0))
    merge_whole(a, _far(2), "NET-C", now=1.0)
    delta = a.snapshot(held.version)
    # an entry's remote records are its last field, a record's holders its last
    assert [e[-1][0][-1] for e in delta["entries"]] == [2]
    assert held.apply(delta)
    assert held.entries == {e[0]: e for e in a.snapshot(0)["entries"]}


def _reached(obj):
    """Every object the collector reaches from `obj`, classes aside."""
    seen, todo = {id(obj)}, [obj]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if not isinstance(ref, type) and id(ref) not in seen:
                seen.add(id(ref))
                todo.append(ref)
                yield ref


def test_records_and_names_are_values_the_collector_stops_tracking():
    # C holds the song and f; B merged C. A holds f itself and merges B, then
    # C, whose one-hop offers displace B's two-hop records
    f = make_meta("f", b"more", BS)
    c = _cat_with(("song", b"tune"), ("f", b"more"), root=5, ssid="NET-C")
    b = _cat("NET-B")
    merge_whole(b, c.snapshot(0), "NET-C", now=0.0)
    a = _cat_with(("f", b"more"))
    merge_whole(a, b.snapshot(0), "NET-B", now=0.0)
    merge_whole(a, c.snapshot(0), "NET-C", now=1.0)
    assert a.entries[SONG.digest].remote == {"NET-C": (1, 1, "NET-C")}
    assert a.entries[f.file_id.digest].remote == {"NET-C": (1, 1, "NET-C")}
    a.snapshot(0)  # so that each entry holds its snapshot entry too
    # one record per file, keyed by its digest alone
    assert all(type(d) is bytes and len(d) == 32 for d in a.entries)
    for entry in a.entries.values():
        assert not [o for o in _reached(entry) if isinstance(o, (FileId, FileMeta))]
    gc.collect()
    for entry in a.entries.values():
        assert not gc.is_tracked(entry.remote)
        assert not any(gc.is_tracked(r) for r in entry.remote.values())
        assert not gc.is_tracked(entry.names)
    # a remote-only entry shares one empty holder set with every other, also
    # once its last local holder has gone
    song = a.entries[SONG.digest]
    assert not song.holders and type(song.holders) is not set
    a.drop_holder(1)
    assert a.entries[f.file_id.digest].holders is song.holders


def test_snapshot_entries_and_mirrors_are_values_the_collector_stops_tracking():
    # B merged C, and A merges B: A's mirror of B holds B's snapshot entries,
    # each with a remote record of C's files
    c = _cat_with(("song", b"tune"), ("f", b"more"), root=5, ssid="NET-C")
    b = _cat("NET-B")
    merge_whole(b, c.snapshot(0), "NET-C", now=0.0)
    a = _cat_with(("f", b"more"))
    merge_whole(a, b.snapshot(0), "NET-B", now=0.0)
    a.snapshot(0)  # so that each entry holds its snapshot entry too
    # a full collection untracks a tuple of values it has already found
    # untracked, and then a dict of such: one level of nesting each, up to
    # the mirror's dict of entries of records
    for _ in range(3):
        gc.collect()
    mirrored = [e for m in a.mirrors.values() for e in m.entries.values()]
    cached = [e.wire for cat in (a, b, c) for e in cat.entries.values()]
    assert len(mirrored) == 2 and None not in cached
    assert all(e[5] for e in mirrored)
    for m in a.mirrors.values():
        assert not gc.is_tracked(m.entries)
    for entry in mirrored + cached:
        assert not gc.is_tracked(entry)
        assert not gc.is_tracked(entry[1])
        assert not any(gc.is_tracked(r) for r in entry[5])


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
