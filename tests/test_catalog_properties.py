"""NetworkFileCatalog's incremental bookkeeping against from-scratch oracles.

Random sequences of catalog operations run on one catalog. After every step
its snapshot must equal a full rendering of its entries, every snapshot it
returned earlier must be unchanged, and `expire_remote` must leave exactly
what an unconditional sweep of every record would. A delta cut against
every earlier version must bring a replica of that version to the
snapshot, and a `since` the catalog cannot answer must get a full dump.

A second test runs the merge beside the full-walk reference of
`reference_catalog.py`, through neighbours whose catalogs change, tie and
contest each other's holder counts, and through every kind of fetch, expiry
and gateway drop a root makes.
"""

import copy

from hypothesis import example, given, settings, strategies as st

from pear2pear.catalog import Mirror, NetworkFileCatalog
from pear2pear.core import make_meta

from helpers import merge_whole
from reference_catalog import ReferenceCatalog, state as full_state

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


def render(cat, home):
    """The whole snapshot, rendered from scratch as before caching."""
    entries = []
    for file_id in sorted(cat.entries):
        e = cat.entries[file_id]
        entries.append([
            file_id.digest,
            sorted(e.meta.names),
            e.meta.size,
            e.meta.block_count,
            len(e.holders),
            [[s, r.hops, r.holder_count] for s, r in sorted(e.remote.items())],
        ])
    return {"subnet": home, "entries": entries}


def state(cat):
    return {fid: (set(e.holders), set(e.meta.names),
                  {s: (r.hops, r.gateway, r.holder_count, r.last_refresh)
                   for s, r in e.remote.items()})
            for fid, e in cat.entries.items()}


def swept(cat, now, ttl):
    """The state an unconditional sweep of every record leaves."""
    out = {}
    for fid, (holders, names, remote) in state(cat).items():
        remote = {s: r for s, r in remote.items() if not now - r[3] >= ttl}
        if holders or remote:
            out[fid] = (holders, names, remote)
    return out


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
        entries.append([
            meta.file_id.digest,
            sorted(draw(st.sets(st.sampled_from(NAMES[f]), min_size=1))),
            meta.size,
            meta.block_count,
            draw(st.integers(0, 2)),
            [[s, hops, count] for s, (hops, count) in sorted(records.items())],
        ])
    return sorted(entries)


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


def check_deltas(cat, snap, replicas, data):
    """`replicas` holds (version, snapshot) pairs of every earlier state."""
    assert len(cat._tombstones) <= len(cat.entries)
    live = {e[0] for e in snap["entries"]}
    for since, then in replicas:
        delta = cat.snapshot(HOME, since)
        assert delta["version"] == cat._version
        assert delta["base"] == (since if since >= cat._floor else 0)
        assert live.isdisjoint(delta["removed"])
        replica = Mirror(since, list(then["entries"]))
        assert replica.apply(delta)
        assert replica.entries == snap["entries"]
    future = cat._version + data.draw(st.integers(1, 3), label="ahead")
    for since in {0, -1, cat._floor - 1, future}:
        dump = cat.snapshot(HOME, since)
        assert (dump["base"], dump["removed"]) == (0, [])
        assert dump["entries"] == snap["entries"]


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=40), st.data())
def test_incremental_catalog_matches_full_rendering(ops, data):
    cat = NetworkFileCatalog()
    mirrors = {}
    earlier = []
    replicas = [(0, cat.snapshot(HOME))]
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
            merge_whole(cat, {"subnet": op[1], "entries": op[2]}, op[1], HOME, now,
                        mirrors.setdefault(op[1], Mirror()))
        elif kind == "expire":
            now += op[1]
            expected = swept(cat, now, TTL)
            cat.expire_remote(now, TTL)
            assert state(cat) == expected
        else:
            cat.drop_via_gateways(op[1])
            for gateway in op[1]:  # the mirrors go with the neighbours
                mirrors.pop(gateway, None)
        snap = cat.snapshot(HOME)
        assert snap == render(cat, HOME)
        for old, frozen in earlier:
            assert old == frozen
        earlier.append((snap, copy.deepcopy(snap)))
        replicas.append((cat._version, snap))
        check_deltas(cat, snap, replicas, data)


# --- the incremental merge against a full walk -------------------------------

GATEWAYS = ["NET-A", "NET-B", "NET-C"]
# What a neighbour may know of beyond itself.
FAR = ["NET-X", "NET-Y", HOME, *GATEWAYS]
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
    # delta each mirror asks for, a full dump, or a delta cut against
    # another version
    fetches, fetches,
    st.tuples(st.just("expire"), steps),
    st.tuples(st.just("drop_via"), st.sets(gateways, min_size=1, max_size=2)),
    st.tuples(st.just("home"), peers, st.lists(metas, max_size=2), st.lists(files, max_size=2)),
)


def far_entry(f, holders):
    meta = METAS[f][0]
    return [meta.file_id.digest, [NAMES[f][0]], meta.size, meta.block_count, holders, []]


A, B = GATEWAYS[:2]


@settings(max_examples=300, deadline=None)
@given(st.lists(exchanges, min_size=12, max_size=40))
# An equal-hop tie merged twice at one time; the tied gateway that is not the
# winner dropped and back with a full dump; a holder count contested both ways.
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
# Two files that leave a neighbour at different times: each record keeps
# the time its gateway last offered it, and they expire apart.
@example([("files", A, 1, [METAS[0][0], METAS[1][0]], []), ("fetch", [A], "delta", 0.0),
          ("files", A, 1, [], [0]), ("fetch", [A], "delta", 10.0),
          ("files", A, 1, [], [1]), ("fetch", [A], "delta", 10.0),
          ("expire", 30.0), ("expire", 10.0), ("expire", 10.0)])
# Two tied gateways stop offering a record one after the other: it keeps the
# gateway that touched it last.
@example([("learn", {A, B}, "NET-X", [far_entry(0, 1)]), ("fetch", [A, B], "delta", 0.0),
          ("forget", B, {"NET-X"}), ("fetch", [B], "delta", 10.0),
          ("forget", A, {"NET-X"}), ("fetch", [A], "delta", 10.0), ("expire", 40.0)])
def test_the_merge_leaves_what_a_full_walk_leaves(ops):
    """Home merges each fetch's changes; a reference catalog merges the
    whole mirror by the full walk. Both must agree after every step, down
    to every record's gateway and refresh time and every delta they cut."""
    cat, ref = NetworkFileCatalog(), ReferenceCatalog()
    neighbours = {g: ReferenceCatalog() for g in GATEWAYS}
    mirrors = {g: Mirror() for g in GATEWAYS}
    versions = {0}
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "files":
            neighbours[op[1]].apply_file_change(op[2], op[3], [METAS[f][0].file_id for f in op[4]])
        elif kind == "learn":
            for gateway in op[1]:
                neighbours[gateway].merge_snapshot({"subnet": op[2], "entries": op[3]},
                                                   op[2], gateway, now)
        elif kind == "forget":
            neighbours[op[1]].drop_via_gateways(op[2])
        elif kind == "fetch":
            now += op[3]
            for gateway in op[1]:
                mirror = mirrors[gateway]
                since = {"delta": mirror.version, "dump": 0,
                         "stale": mirror.version - 1 if mirror.version > 1 else mirror.version + 1}
                changes = mirror.apply(neighbours[gateway].snapshot(gateway, since[op[2]]))
                if changes is None:
                    mirror.version = 0  # as a root does: the next fetch asks for a dump
                    continue
                cat.merge_snapshot(changes, gateway, HOME, now, mirror.entries)
                ref.merge_snapshot({"subnet": gateway, "entries": list(mirror.entries)},
                                   gateway, HOME, now)
        elif kind == "expire":
            now += op[1]
            cat.expire_remote(now, TTL)
            ref.expire_remote(now, TTL)
        elif kind == "drop_via":
            cat.drop_via_gateways(op[1])
            ref.drop_via_gateways(op[1])
            for gateway in op[1]:  # the mirrors go with the neighbours
                mirrors[gateway] = Mirror()
        else:
            for c in (cat, ref):
                c.apply_file_change(op[1], op[2], [METAS[f][0].file_id for f in op[3]])
        assert full_state(cat) == full_state(ref)
        versions.add(cat._version)
        for since in sorted(versions) + [None]:
            assert cat.snapshot(HOME, since) == ref.snapshot(HOME, since)
