"""NetworkFileCatalog's incremental bookkeeping against from-scratch oracles.

Random sequences of catalog operations run on one catalog. After every step
its snapshot must equal a full rendering of its entries, every snapshot it
returned earlier must be unchanged, and its remote records must be those a
from-scratch derivation over its mirrors gives (`reference_catalog.py`). A
delta cut against every earlier version must bring a replica of that version
to the snapshot, and a `since` the catalog cannot answer must get a full
dump.

A second test exchanges catalogs with neighbours whose catalogs change, tie
and contest each other's holder counts, through every kind of fetch, expiry
and gateway drop a root makes, and checks the same after every step, with
the hop cap small enough to bite.
"""

import copy

from hypothesis import example, given, settings, strategies as st

from pear2pear.catalog import Mirror, NetworkFileCatalog
from pear2pear.core import make_meta

from helpers import merge_whole
from reference_catalog import check

BS = 16
HOME = "NET-H"
SUBNETS = ["NET-A", "NET-B", HOME]
CONTENTS = [b"alpha", b"bravo" * 7, b"charlie" * 3]
NAMES = [[f"f{i}.bin", f"copy-{i}.bin", f"other-{i}.bin"] for i in range(len(CONTENTS))]
METAS = [[make_meta(n, c, BS) for n in names] for c, names in zip(CONTENTS, NAMES)]
TTL = 60.0
# Clock steps: sums of these land on, just short of and just past TTL
# boundaries, some of them through floating-point rounding.
STEPS = [0.0, 0.1, 0.2, 10.0, 29.9, 30.0, 59.9, 60.0]


def render(cat):
    """The full dump, rendered from scratch as before caching."""
    entries = []
    for digest in sorted(cat.entries):
        e = cat.entries[digest]
        entries.append((
            digest,
            tuple(sorted(e.names)),
            e.size,
            e.block_count,
            len(e.holders),
            tuple((s, hops, count) for s, (hops, count, _) in sorted(e.remote.items())
                  if hops < cat.max_hops),
        ))
    return {"subnet": cat.ssid, "entries": tuple(entries), "removed": (),
            "version": cat._version, "base": 0}


files = st.integers(0, len(CONTENTS) - 1)
metas = st.builds(lambda f, n: METAS[f][n], files, st.integers(0, 2))
peers = st.integers(1, 3)


@st.composite
def raw_entries(draw, subnets=SUBNETS):
    """A neighbour catalog's snapshot entries: one per file, in digest
    order, each naming a subnet at most once."""
    entries = []
    for f in draw(st.sets(files, min_size=1)):
        meta = METAS[f][0]
        records = draw(st.dictionaries(st.sampled_from(subnets),
                                       st.tuples(st.integers(1, 2), st.integers(0, 2))))
        entries.append((
            meta.file_id.digest,
            tuple(sorted(draw(st.sets(st.sampled_from(NAMES[f]), min_size=1)))),
            meta.size,
            meta.block_count,
            draw(st.integers(0, 2)),
            tuple((s, hops, count) for s, (hops, count) in sorted(records.items())),
        ))
    return tuple(sorted(entries))


steps = st.sampled_from(STEPS)
merges = st.tuples(st.just("merge"), st.sampled_from(SUBNETS), raw_entries(), steps)
expiries = st.tuples(st.just("expire"), steps)
operations = st.one_of(
    st.tuples(st.just("register"), peers, st.lists(metas, max_size=3)),
    st.tuples(st.just("change"), peers, st.lists(metas, max_size=2),
              st.lists(files, max_size=2)),
    st.tuples(st.just("drop_holder"), peers),
    merges, merges, expiries, expiries,
    st.tuples(st.just("drop_via"), st.sets(st.sampled_from(SUBNETS), max_size=2)),
)


def check_replicas(cat, snap, replicas):
    """`replicas` holds (version, snapshot) pairs of every earlier state."""
    assert len(cat._tombstones) <= len(cat.entries)
    live = {e[0] for e in snap["entries"]}
    for since, then in replicas:
        delta = cat.snapshot(since)
        assert delta["version"] == cat._version
        assert delta["base"] == (since if since >= cat._floor else 0)
        assert live.isdisjoint(delta["removed"])
        replica = Mirror(since, {e[0]: e for e in then["entries"]})
        assert replica.apply(delta)
        assert replica.entries == {e[0]: e for e in snap["entries"]}


def check_deltas(cat, snap, replicas, data):
    check_replicas(cat, snap, replicas)
    future = cat._version + data.draw(st.integers(1, 3), label="ahead")
    for since in {0, -1, cat._floor - 1, future}:
        dump = cat.snapshot(since)
        assert (dump["base"], dump["removed"]) == (0, ())
        assert dump["entries"] == snap["entries"]


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=40), st.data())
def test_incremental_catalog_matches_full_rendering(ops, data):
    cat = NetworkFileCatalog(HOME, 8)
    earlier = []
    replicas = [(0, cat.snapshot(0))]
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "register":
            cat.register_files(op[1], op[2])
        elif kind == "change":
            cat.apply_file_change(op[1], op[2], [METAS[f][0].file_id for f in op[3]])
        elif kind == "drop_holder":
            cat.drop_holder(op[1])
        elif kind == "merge":
            now += op[3]
            merge_whole(cat, {"subnet": op[1], "entries": op[2]}, op[1], now)
        elif kind == "expire":
            now += op[1]
            kept = {g for g, m in cat.mirrors.items() if now - m.merged < TTL}
            cat.expire_remote(now, TTL)
            assert set(cat.mirrors) == kept
        else:
            cat.drop_via_gateways(op[1])
            assert cat.mirrors.keys().isdisjoint(op[1])
        check(cat)
        snap = cat.snapshot(0)
        assert snap == render(cat)
        for old, frozen in earlier:
            assert old == frozen
        earlier.append((snap, copy.deepcopy(snap)))
        replicas.append((cat._version, snap))
        check_deltas(cat, snap, replicas, data)


# --- exchanges with neighbours, against the derivation ------------------------

GATEWAYS = ["NET-A", "NET-B", "NET-C"]
# What a neighbour may know of beyond itself.
FAR = ["NET-X", "NET-Y", HOME, *GATEWAYS]
# Far records of two hops reach a neighbour at three and stop there.
CAP = 3
gateways = st.sampled_from(GATEWAYS)
fetches = st.tuples(st.just("fetch"), st.lists(gateways, min_size=1, max_size=4),
                    st.sampled_from(["delta", "delta", "dump", "stale"]), steps)
exchanges = st.one_of(
    # a neighbour's members change their files
    st.tuples(st.just("files"), gateways, peers, st.lists(metas, max_size=2),
              st.lists(files, max_size=2)),
    # neighbours merge the same far catalog whole, which home then sees
    # through each of them at equal hops; or one drops what it learned
    st.tuples(st.just("learn"), st.sets(gateways, min_size=1), st.sampled_from(FAR[:2]),
              raw_entries(FAR)),
    st.tuples(st.just("forget"), gateways, st.sets(st.sampled_from(FAR), min_size=1)),
    # home fetches neighbours' catalogs one after another at one time: the
    # delta its mirror asks for, a full dump, or a delta cut against
    # another version
    fetches, fetches,
    st.tuples(st.just("expire"), steps),
    st.tuples(st.just("drop_via"), st.sets(gateways, min_size=1, max_size=2)),
    st.tuples(st.just("home"), peers, st.lists(metas, max_size=2), st.lists(files, max_size=2)),
)


def far_entry(f, holders):
    meta = METAS[f][0]
    return (meta.file_id.digest, (NAMES[f][0],), meta.size, meta.block_count, holders, ())


A, B = GATEWAYS[:2]


@settings(max_examples=300, deadline=None)
@given(st.lists(exchanges, min_size=12, max_size=40))
# An equal-hop tie fetched twice at one time; the tie's winner dropped, and
# back with a full dump; a holder count contested both ways.
@example([("learn", {A, B}, "NET-X", [far_entry(0, 1)]),
          ("fetch", [A], "delta", 0.0), ("fetch", [B], "delta", 0.0),
          ("drop_via", {A}), ("learn", {B}, "NET-X", [far_entry(0, 2)]),
          ("fetch", [B], "delta", 10.0), ("fetch", [A], "delta", 10.0),
          ("fetch", [B], "delta", 10.0), ("expire", 59.9), ("fetch", [A], "delta", 0.1),
          ("expire", 10.0), ("expire", 30.0)])
# A delta refused, then a full dump that lacks a file the mirror held; a
# file that drops out of a neighbour and comes back; expiry at the TTL edge.
@example([("files", A, 1, [METAS[0][0], METAS[1][0]], []), ("fetch", [A], "delta", 0.0),
          ("files", A, 1, [], [1]), ("fetch", [A], "stale", 10.0),
          ("fetch", [A], "delta", 10.0), ("files", A, 1, [], [0]), ("fetch", [A], "delta", 10.0),
          ("files", A, 2, [METAS[0][1]], []), ("fetch", [A], "delta", 29.9),
          ("expire", 0.1), ("expire", 10.0), ("expire", 30.0)])
# Two files that leave a neighbour at different times: each goes with the
# delta that removes it.
@example([("files", A, 1, [METAS[0][0], METAS[1][0]], []), ("fetch", [A], "delta", 0.0),
          ("files", A, 1, [], [0]), ("fetch", [A], "delta", 10.0),
          ("files", A, 1, [], [1]), ("fetch", [A], "delta", 10.0),
          ("expire", 30.0), ("expire", 10.0), ("expire", 10.0)])
# Two tied gateways stop offering a record one after the other: it falls
# back to the other at once, then goes.
@example([("learn", {A, B}, "NET-X", [far_entry(0, 1)]), ("fetch", [A, B], "delta", 0.0),
          ("forget", A, {"NET-X"}), ("fetch", [A], "delta", 10.0),
          ("forget", B, {"NET-X"}), ("fetch", [B], "delta", 10.0), ("expire", 40.0)])
def test_the_merge_leaves_what_a_full_walk_leaves(ops):
    """Home merges each fetch's delta. After every step its records must be
    what the derivation over its mirrors gives, none further than the cap,
    and every delta it cuts must bring an earlier replica to its snapshot."""
    cat = NetworkFileCatalog(HOME, CAP)
    neighbours = {g: NetworkFileCatalog(g, CAP) for g in GATEWAYS}
    replicas = [(0, cat.snapshot(0))]
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "files":
            neighbours[op[1]].apply_file_change(op[2], op[3], [METAS[f][0].file_id for f in op[4]])
        elif kind == "learn":
            for gateway in op[1]:
                merge_whole(neighbours[gateway], {"subnet": op[2], "entries": op[3]}, op[2], now)
        elif kind == "forget":
            neighbours[op[1]].drop_via_gateways(op[2])
        elif kind == "fetch":
            now += op[3]
            for gateway in op[1]:
                mirror = cat.mirrors.get(gateway)
                version = mirror.version if mirror else 0
                since = {"delta": version, "dump": 0,
                         "stale": version - 1 if version > 1 else version + 1}[op[2]]
                delta = neighbours[gateway].snapshot(since)
                if not cat.merge_snapshot(delta, gateway, now):
                    # cut against a version the mirror does not hold: the
                    # next fetch asks for a full dump
                    assert delta["base"] not in (0, version)
                    assert gateway not in cat.mirrors or cat.mirrors[gateway].version == 0
        elif kind == "expire":
            now += op[1]
            kept = {g for g, m in cat.mirrors.items() if now - m.merged < TTL}
            cat.expire_remote(now, TTL)
            assert set(cat.mirrors) == kept
        elif kind == "drop_via":
            cat.drop_via_gateways(op[1])
        else:
            cat.apply_file_change(op[1], op[2], [METAS[f][0].file_id for f in op[3]])
        check(cat)
        assert all(hops <= CAP for e in cat.entries.values() for hops, _, _ in e.remote.values())
        snap = cat.snapshot(0)
        assert snap == render(cat)
        replicas.append((cat._version, snap))
        check_replicas(cat, snap, replicas)
