"""NetworkFileCatalog's incremental bookkeeping against from-scratch oracles.

Random sequences of catalog operations run on one catalog. After every step
its snapshot must equal a full rendering of its entries, every snapshot it
returned earlier must be unchanged, and `expire_remote` must leave exactly
what an unconditional sweep of every record would. A delta cut against
every earlier version must bring a replica of that version to the
snapshot, and a `since` the catalog cannot answer must get a full dump.
"""

import copy

from hypothesis import given, settings, strategies as st

from pear2pear.catalog import Mirror, NetworkFileCatalog
from pear2pear.core import make_meta

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
def raw_entries(draw):
    f = draw(files)
    meta = METAS[f][0]
    return [
        meta.file_id.digest,
        sorted(draw(st.sets(st.sampled_from(NAMES[f]), min_size=1))),
        meta.size,
        meta.block_count,
        draw(st.integers(0, 2)),
        draw(st.lists(st.tuples(st.sampled_from(SUBNETS), st.integers(1, 2),
                                st.integers(0, 2)).map(list), max_size=3)),
    ]


steps = st.sampled_from(STEPS)
merges = st.tuples(st.just("merge"), st.sampled_from(SUBNETS),
                   st.lists(raw_entries(), min_size=1, max_size=3),
                   st.sampled_from(SUBNETS), steps)
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
        replica = Mirror(since, then["entries"])
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
            now += op[4]
            cat.merge_snapshot({"subnet": op[1], "entries": op[2]}, op[3], HOME, now)
        elif kind == "expire":
            now += op[1]
            expected = swept(cat, now, TTL)
            cat.expire_remote(now, TTL)
            assert state(cat) == expected
        else:
            cat.drop_via_gateways(op[1])
        snap = cat.snapshot(HOME)
        assert snap == render(cat, HOME)
        for old, frozen in earlier:
            assert old == frozen
        earlier.append((snap, copy.deepcopy(snap)))
        replicas.append((cat._version, snap))
        check_deltas(cat, snap, replicas, data)
