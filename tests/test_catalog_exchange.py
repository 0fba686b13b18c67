"""Versioned catalog deltas in the simulator.

A catalog courier carries only the entries its target root changed since
the version the courier's home root last merged, and the home root merges
only what changed in its mirror of the target. On the tiny generated
workloads, every mirror must hold exactly the snapshot the target would have
sent whole when the delta was cut, and every merge must leave the home
catalog as a full walk of that snapshot would.
"""

import pytest

from pear2pear.catalog import Mirror, NetworkFileCatalog
from pear2pear.scenario import build_world, parse_scenario

from helpers import make_world, orders_of, star, trace_events
from reference_catalog import shadow, state
from test_golden_generated import SEED, TINY, workloads


@pytest.mark.parametrize("name", ["chain_large", "catalog_mesh"])
def test_merges_see_the_full_snapshot_of_the_cut(name, monkeypatch):
    full_at = {}   # (subnet, version) -> the full snapshot entries then
    deltas = []
    applied = []   # (subnet, version) of each mirror brought up to date
    merged = []    # entries each merge read as changed
    snapshot, apply, merge = (NetworkFileCatalog.snapshot, Mirror.apply,
                              NetworkFileCatalog.merge_snapshot)

    def cut(self, home_ssid, since=None):
        out = snapshot(self, home_ssid, since)
        if since is not None:
            full_at[home_ssid, out["version"]] = snapshot(self, home_ssid)["entries"]
            deltas.append((since, out))
        return out

    def checked_apply(self, delta):
        changes = apply(self, delta)
        assert changes is not None, "delta cut against a version the home root does not hold"
        applied.append((delta["subnet"], delta["version"]))
        return changes

    def checked_merge(self, changes, via_gateway, home_ssid, now, offered):
        assert offered == full_at[applied[-1]]
        walked = shadow(self)
        walked.merge_snapshot({"subnet": changes["subnet"], "entries": offered},
                              via_gateway, home_ssid, now)
        merge(self, changes, via_gateway, home_ssid, now, offered)
        assert state(self) == state(walked)
        assert snapshot(self, home_ssid) == snapshot(walked, home_ssid)
        merged.append(len(changes["entries"]))

    monkeypatch.setattr(NetworkFileCatalog, "snapshot", cut)
    monkeypatch.setattr(Mirror, "apply", checked_apply)
    monkeypatch.setattr(NetworkFileCatalog, "merge_snapshot", checked_merge)
    sc = parse_scenario(workloads.WORKLOADS[name](SEED, **TINY[name]))
    build_world(sc).run_until(sc.until)

    assert len(merged) == len(applied) > 0
    repeats = [d for since, d in deltas if since and d["base"] == since]
    assert repeats, "no repeat visit was cut as a delta"
    unchanged = [d for d in repeats if d["version"] == d["base"]]
    assert unchanged, "no repeat visit found its target unchanged"
    for d in unchanged:
        assert d["entries"] == [] and d["removed"] == []
    shipped = sum(len(d["entries"]) for _, d in deltas)
    whole = sum(len(full_at[d["subnet"], d["version"]]) for _, d in deltas)
    assert sum(merged) <= shipped < whole


def test_a_mirror_goes_with_its_neighbour():
    w = make_world()
    star(w, 1, [2])
    star(w, 10, [11], files={11: [("f.txt", b"x")]})
    w.add_edge(2, 10)
    w.run_until(w.p.courier_period + 5.0)
    target = w.nodes[10].ssid
    assert len(w.nodes[1].subnets.neighbors[target].mirror.entries) == 1
    gone = w.clock
    w.schedule(gone, "depart", device=10, silent=True)
    w.run_until(gone + w.p.neighbor_ttl + w.p.scan_period + w.p.ping_interval)
    # the mirror lives in the neighbour's record and went with it
    assert target not in w.nodes[1].subnets.neighbors


def test_a_fetch_that_lands_after_its_neighbour_expired_is_dropped():
    # Root 1 orders its second catalog fetch at 40 s. Its only courier is
    # away, so no scan report refreshes the neighbour, which expires with
    # its mirror at the 42 s ping. The fetch lands at 44.1 s and is dropped,
    # and the next one, once the courier has reported the neighbour again,
    # asks for a full dump.
    w = make_world(ping_interval=7.0, scan_period=5.0, neighbor_ttl=6.5)
    star(w, 1, [2])
    star(w, 10, [11], files={11: [("f.txt", b"x")]})
    w.add_edge(2, 10)
    w.run_until(43.0)
    root, target = w.nodes[1], w.nodes[10].ssid
    assert target not in root.subnets.neighbors   # and its mirror with it
    w.run_until(50.0)
    fetches = [r.time for r in trace_events(w, "courier-assign", device=1)]
    merges = [r.time for r in trace_events(w, "catalog-merge", device=1)]
    assert fetches == [20.0, 40.0]
    assert merges == pytest.approx([24.1])
    assert not [r for e in root.catalog.entries.values() for r in e.remote.values()
                if r.gateway == target]
    w.run_until(60.05)
    (order,) = orders_of(root)
    assert (order.target, order.since) == (target, 0)
