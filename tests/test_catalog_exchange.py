"""Versioned catalog deltas in the simulator.

A catalog courier carries only the entries its target root changed since
the version the courier's home root last merged, and the home root merges
only what changed in its mirror of the target. On the tiny generated
workloads, every mirror must hold exactly the snapshot the target would have
sent whole when the delta was cut, and after every merge, expiry and gateway
drop the home catalog's records must be those derived from scratch over its
mirrors, none further than the hop cap.
"""

import pytest

from pear2pear.catalog import Mirror, NetworkFileCatalog
from pear2pear.core import make_meta
from pear2pear.scenario import build_world, parse_scenario

from helpers import arrive, make_world, orders_of, random_content, star, trace_events
from reference_catalog import check
from test_golden_generated import SEED, TINY, workloads


@pytest.mark.parametrize("name", ["chain_large", "catalog_mesh"])
def test_merges_see_the_full_snapshot_of_the_cut(name, monkeypatch):
    full_at = {}   # (subnet, version) -> the full snapshot entries then
    deltas = []    # (since, subnet, delta) of every cut
    merged = []    # entries each merge found changed in its mirror
    via = []       # the gateway of each merge, the subnet its delta was cut at
    snapshot, apply = NetworkFileCatalog.snapshot, Mirror.apply
    merge = NetworkFileCatalog.merge_snapshot

    def cut(self, since):
        out = snapshot(self, since)
        full_at[self.ssid, out["version"]] = snapshot(self, 0)["entries"]
        deltas.append((since, self.ssid, out))
        return out

    def merge_via(self, delta, gateway, now):
        via.append(gateway)
        return merge(self, delta, gateway, now)

    def checked_apply(self, delta):
        changes = apply(self, delta)
        assert changes is not None, "delta cut against a version the home root does not hold"
        assert self.entries == {e[0]: e for e in full_at[via[-1], delta["version"]]}
        merged.append(len(changes["entries"]))
        return changes

    def checked_after(method):
        def run(self, *args):
            out = method(self, *args)
            check(self)
            assert all(hops <= self.max_hops for e in self.entries.values()
                       for hops, _, _ in e.remote.values())
            return out
        return run

    monkeypatch.setattr(NetworkFileCatalog, "snapshot", cut)
    monkeypatch.setattr(Mirror, "apply", checked_apply)
    monkeypatch.setattr(NetworkFileCatalog, "merge_snapshot", merge_via)
    for method in ("merge_snapshot", "expire_remote", "drop_via_gateways"):
        monkeypatch.setattr(NetworkFileCatalog, method,
                            checked_after(getattr(NetworkFileCatalog, method)))
    sc = parse_scenario(workloads.WORKLOADS[name](SEED, **TINY[name]))
    build_world(sc).run_until(sc.until)

    assert merged
    repeats = [d for since, _, d in deltas if since and d["base"] == since]
    assert repeats, "no repeat visit was cut as a delta"
    unchanged = [d for d in repeats if d["version"] == d["base"]]
    assert unchanged, "no repeat visit found its target unchanged"
    for d in unchanged:
        assert d["entries"] == () and d["removed"] == ()
    shipped = sum(len(d["entries"]) for _, _, d in deltas)
    whole = sum(len(full_at[subnet, d["version"]]) for _, subnet, d in deltas)
    assert sum(merged) <= shipped < whole


def test_a_mirror_goes_with_its_neighbour():
    w = make_world()
    star(w, 1, [2])
    star(w, 10, [11], files={11: [("f.txt", b"x")]})
    w.add_edge(2, 10)
    w.run_until(w.p.courier_period + 5.0)
    target = w.nodes[10].ssid
    assert len(w.nodes[1].catalog.mirrors[target].entries) == 1
    gone = w.clock
    w.schedule(gone, "depart", device=10, silent=True)
    w.run_until(gone + w.p.neighbor_ttl + w.p.scan_period + w.p.ping_interval)
    # the mirror went with the neighbour
    assert target not in w.nodes[1].subnets.neighbors
    assert target not in w.nodes[1].catalog.mirrors


def test_a_fetch_that_lands_after_its_neighbour_expired_is_dropped():
    # Root 1 orders its second catalog fetch at 40 s. Its only courier is
    # away, so no scan report refreshes the neighbour, which expires with
    # its mirror at the 42 s ping. The fetch lands at 44.1 s and is dropped,
    # and the next one, once the courier has reported the neighbour again,
    # asks for a full dump. A silent_timeout of 14 s makes the courier report
    # every 5 s scan (a beacon period of one scan), which a neighbor_ttl of
    # 6.5 s needs.
    w = make_world(ping_interval=7.0, scan_period=5.0, neighbor_ttl=6.5, silent_timeout=14.0)
    star(w, 1, [2])
    star(w, 10, [11], files={11: [("f.txt", b"x")]})
    w.add_edge(2, 10)
    w.run_until(43.0)
    root, target = w.nodes[1], w.nodes[10].ssid
    assert target not in root.subnets.neighbors
    assert target not in root.catalog.mirrors
    w.run_until(50.0)
    fetches = [r.time for r in trace_events(w, "courier-assign", device=1)]
    merges = [r.time for r in trace_events(w, "catalog-merge", device=1)]
    assert fetches == [20.0, 40.0]
    assert merges == pytest.approx([24.1])
    assert not [r for e in root.catalog.entries.values() for r in e.remote.values()
                if r[2] == target]
    w.run_until(60.05)
    ((_, order),) = orders_of(root)
    assert (order.target, order.since) == (target, 0)


def test_a_file_whose_last_holder_left_is_forgotten():
    # Subnets A (root 100), B (200) and C (300) on a two-way line. C's only
    # holder leaves for good; A and B must not keep offering the file to
    # each other, one hop further each time, as a record that never expires.
    w = make_world(block_size=4096)
    star(w, 200, [201, 202, 203, 204])
    content = random_content(7, 3000)
    star(w, 300, [301, 302], files={302: [("f.bin", content)]})
    for d in (100, 101, 102, 103):
        w.add_device(d)
    for d in (101, 102, 103):
        w.add_edge(d, 100)
    arrive(w, [100, 101, 102, 103], t=5.0)
    for a, b in ((103, 200), (201, 100), (204, 300), (301, 200)):
        w.add_edge(a, b)
    fid = make_meta("f.bin", content, 4096).file_id
    w.schedule(100.0, "depart", device=302, silent=False)
    w.run_until(99.0)
    assert all(fid.digest in w.nodes[r].catalog.entries for r in (100, 200))
    w.run_until(300.0)
    assert all(fid.digest not in w.nodes[r].catalog.entries for r in (100, 200))
