"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with `pytest -s tests/test_acceptance.py` to see them
as they happen)."""

import functools
import json
import pathlib
import random
import time

import pytest

from pear2pear.frames import FrameKind
from pear2pear.node import MEMBER, ROOT
from pear2pear.scenario import load_scenario, run_scenario

from helpers import (
    arrive, bfs_distances, make_world, members_of, only_download, orders_of,
    random_content, roots_of, star, subnet_adjacency, swarm_world, trace_events,
)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:2d}: {name}")
                raise
            print(f"[PASS] criterion {num:2d}: {name}")
        return wrapper
    return deco


@criterion(1, "intra-subnet retrieval")
def test_c01_intra_subnet():
    t0 = time.perf_counter()
    sc = load_scenario(str(SCENARIOS / "intra_subnet.json"))
    world = run_scenario(sc)
    wall = time.perf_counter() - t0
    rec = only_download(world)
    assert rec["success"] and rec["hops"] == 0
    assert rec["started"] + rec["completion_time"] <= 60.0
    # hash match: the requester ends up holding the exact bytes
    expected = random_content(11, 5120)
    node = world.nodes[4]
    fid = [f for f in node.files if node.files[f] == expected]
    assert fid, "requester does not hold the original content"
    # same-subnet only: no device ever hopped, no courier was ordered
    assert not trace_events(world, "hop-start")
    assert not [r for r in trace_events(world, "send")
                if r.details["frame"] == FrameKind.COURIER_ORDER.name]
    assert wall < 1.0, f"took {wall:.2f}s wall clock"


@criterion(2, "multi-source download with mid-transfer departure")
def test_c02_multi_source():
    content = random_content(21, 10240)
    w = make_world(block_size=1024)
    files = {2: [("set.flac", content)], 3: [("set.flac", content)]}
    star(w, 1, [2, 3, 4], files=files)
    fid = w.nodes[2].store_file("set.flac", content).file_id
    w.schedule(5.0, "download", device=4, file_id=fid)
    w.run_until(5.025)
    sess = w.nodes[4].sessions["4-1"]
    # deterministic round-robin split over sorted holders [2, 3]
    assert sess.sources == [2, 3]
    for i in range(10):
        assert sess.block_state[i][0] == (2 if i % 2 == 0 else 3)
    w.schedule(5.03, "depart", device=2, silent=True)
    w.run_until(60.0)
    rec = only_download(w)
    assert rec["success"]
    assert w.nodes[4].files[fid] == content
    # the reassignment path really fired
    assert trace_events(w, "reassign", device=4)


@criterion(3, "multi-hop courier retrieval matches BFS distance")
def test_c03_chain():
    sc = load_scenario(str(SCENARIOS / "chain.json"))
    world = run_scenario(sc)
    rec = only_download(world)
    assert rec["success"]
    expected = random_content(99, 4096)
    fid = [f for f in world.nodes[3].files
           if world.nodes[3].files[f] == expected]
    assert fid
    # independent oracle distance between requester's and holder's subnets
    adj = subnet_adjacency(world)
    src_ssid = world.nodes[1].ssid
    dst_ssid = world.nodes[8].ssid
    dist = bfs_distances(adj, src_ssid)[dst_ssid]
    assert dist == 3
    assert rec["hops"] == dist
    forward = [r for r in trace_events(world, "hop-start")
               if r.details.get("session") == rec["session"]
               and r.details["label"] == "forward"]
    assert len(forward) == 3, f"expected 3 forward transitions, saw {len(forward)}"


def _random_scenario_world(i):
    rng = random.Random(1000 + i)
    w = make_world(seed=i, block_size=1024, courier_period=10.0)
    n_sub = rng.randint(2, 6)
    hubs = [(k + 1) * 100 for k in range(n_sub)]
    members = []
    for hub in hubs:
        files = []
        if rng.random() < 0.5:
            files.append((f"f{hub}.bin", random_content(hub, rng.randint(500, 3000))))
        w.add_device(hub, files)
    for hub in hubs:
        for m in range(rng.randint(1, 2)):
            dev = hub + m + 1
            files = [(f"f{dev}.bin", random_content(dev, rng.randint(500, 3000)))]
            w.add_device(dev, files)
            w.add_edge(dev, hub)
            members.append(dev)
    for _ in range(rng.randint(n_sub, 2 * n_sub + 2)):
        m = rng.choice(members)
        hub = rng.choice(hubs)
        if hub != (m // 100) * 100 and hub not in w.vis[m]:
            w.add_edge(m, hub)
    arrive(w, hubs + members)
    w.run_until(90.0)
    return w


@criterion(4, "hop-count soundness on 50 random scenarios")
def test_c04_hop_soundness():
    t0 = time.perf_counter()
    checked = 0
    for i in range(50):
        w = _random_scenario_world(i)
        adj = subnet_adjacency(w)
        for ssid, root_dev in roots_of(w).items():
            dist = bfs_distances(adj, ssid)
            cat = w.nodes[root_dev].catalog
            for entry in cat.entries.values():
                for subnet, (hops, _, _) in entry.remote.items():
                    assert subnet in dist, \
                        f"scenario {i}: record for unreachable subnet {subnet}"
                    assert hops == dist[subnet], \
                        f"scenario {i}: hops {hops} != BFS {dist[subnet]}"
                    checked += 1
    wall = time.perf_counter() - t0
    assert checked > 100, f"only {checked} remote entries checked"
    assert wall < 30.0, f"took {wall:.1f}s wall clock"


def _fairness_world():
    w = make_world()
    w.add_device(1)
    w.add_device(10)
    for d in (2, 3, 4):
        w.add_device(d)
        w.add_edge(d, 1)
        w.add_edge(d, 10)
    arrive(w, [1, 10, 2, 3, 4])
    return w


@criterion(5, "round-robin courier fairness")
def test_c05_fairness():
    w = _fairness_world()
    # 12 courier periods: cycles fire at t = 20, 40, ..., 240
    w.run_until(12 * w.p.courier_period + 15.0)
    counts = w.metrics.courier_counts
    assert counts == {2: 4, 3: 4, 4: 4}, counts

    # churn variant: one courier briefly leaves and returns; spread stays <= 1
    w = _fairness_world()
    w.schedule(95.0, "depart", device=3, silent=False)
    w.schedule(105.0, "arrive", device=3)
    w.run_until(12 * w.p.courier_period + 15.0)
    counts = w.metrics.courier_counts
    assert set(counts) == {2, 3, 4}
    assert sum(counts.values()) == 12
    assert max(counts.values()) - min(counts.values()) <= 1, counts


@criterion(6, "liveness: silent purge bound and exact leave countdown")
def test_c06_liveness():
    # silent removal: gone within SILENT_TIMEOUT + PING_INTERVAL
    content = b"her playlist" * 50
    w = make_world()
    star(w, 1, [2, 3], files={2: [("mix.ogg", content)]})
    fid = w.nodes[2].store_file("mix.ogg", content).file_id
    w.run_until(1.0)
    assert fid.digest in w.nodes[1].catalog.entries
    w.schedule(20.0, "depart", device=2, silent=True)
    bound = 20.0 + w.p.silent_timeout + w.p.ping_interval
    w.run_until(bound)
    assert 2 not in w.nodes[1].members
    assert fid.digest not in w.nodes[1].catalog.entries
    (purge,) = [r for r in trace_events(w, "purge", device=1)
                if r.details["peer"] == 2]
    assert purge.time <= bound

    # notified leave: entries persist until exactly LEAVE_COUNTDOWN, then purge
    w = make_world()
    star(w, 1, [2, 3], files={2: [("mix.ogg", content)]})
    fid = w.nodes[2].store_file("mix.ogg", content).file_id
    w.run_until(1.0)
    w.schedule(10.0, "depart", device=2, silent=False)
    w.run_until(100.0)
    (leaving,) = trace_events(w, "leaving", device=1)
    (purge,) = [r for r in trace_events(w, "purge", device=1)
                if r.details["peer"] == 2]
    assert purge.time - leaving.time == w.p.leave_countdown
    assert fid.digest not in w.nodes[1].catalog.entries
    # re-run to just before the purge: the entry must still be present
    w2 = make_world()
    star(w2, 1, [2, 3], files={2: [("mix.ogg", content)]})
    fid = w2.nodes[2].store_file("mix.ogg", content).file_id
    w2.schedule(10.0, "depart", device=2, silent=False)
    w2.run_until(leaving.time + w2.p.leave_countdown - 0.001)
    assert fid.digest in w2.nodes[1].catalog.entries
    assert 2 in w2.nodes[1].members


@criterion(7, "duplicate content, renamed files, zero-frame duplicate download")
def test_c07_duplicates():
    content = b"one song, many names" * 40
    w = make_world(block_size=256)
    files = {2: [("a.ogg", content)], 3: [("b.ogg", content)],
             4: [("c.ogg", content)]}
    star(w, 1, [2, 3, 4], files=files)
    fid = w.nodes[2].store_file("a.ogg", content).file_id
    w.schedule(5.0, "search", device=4, query="a.ogg")
    w.schedule(6.0, "search", device=4, query="b.ogg")
    w.schedule(7.0, "download", device=4, file_id=fid)
    w.run_until(30.0)
    cat = w.nodes[1].catalog
    assert len(cat.entries) == 1
    assert cat.entries[fid.digest].names == ("a.ogg", "b.ogg", "c.ogg")
    assert cat.lookup_name("a.ogg") == cat.lookup_name("b.ogg") == [fid.digest]
    results = [r for r in trace_events(w, "search-result", device=4)]
    assert len(results) == 2 and all(r.details["ok"] for r in results)
    rec = only_download(w)
    assert rec["success"]
    assert rec["frames"] == 0 and rec["completion_time"] == 0.0


@criterion(8, "capacity cap with per-step invariant")
def test_c08_capacity():
    w = make_world()
    joiners = list(range(2, 2 + w.p.max_members + 3))
    star(w, 1, joiners)
    while w.step() and w.clock <= 60.0:
        for node in w.nodes.values():
            if node.active and node.role == ROOT:
                active = [p for p, r in node.members.items()
                          if r.leaving_since is None]
                assert len(active) <= w.p.max_members
    admitted = members_of(w, w.nodes[1].ssid)
    assert len(admitted) == w.p.max_members
    rejected = set(joiners) - admitted
    assert len(rejected) == 3
    assert all(w.nodes[d].role == ROOT for d in rejected)


@criterion(9, "wanted-file emission count, spacing, and early stop")
def test_c09_wanted():
    # absent file: exactly WANTED_MAX + 1 emissions at WANTED_REPEAT spacing
    w = make_world()
    star(w, 1, [2, 3])
    w.schedule(5.0, "search", device=2, query="missing.ogg")
    w.run_until(5.0 + (w.p.wanted_max + 2) * w.p.wanted_repeat)
    emits = trace_events(w, "wanted-emit", device=1)
    assert len(emits) == w.p.wanted_max + 1
    for a, b in zip(emits, emits[1:]):
        assert b.time - a.time == pytest.approx(w.p.wanted_repeat, abs=1e-9)
    per_member = [r for r in trace_events(w, "send", device=1)
                  if r.details["frame"] == FrameKind.WANTED_FILE.name
                  and r.details["dst"] == 2]
    assert len(per_member) == w.p.wanted_max + 1
    assert trace_events(w, "wanted-dead", device=1)

    # the file appears after the second emission: requester is notified and
    # emission stops early
    content = b"finally here" * 30
    w = make_world()
    star(w, 1, [2, 3])
    w.add_device(4, [("missing.ogg", content)])
    w.add_edge(4, 1)
    w.schedule(5.0, "search", device=2, query="missing.ogg")
    w.schedule(40.0, "arrive", device=4)
    w.run_until(5.0 + (w.p.wanted_max + 2) * w.p.wanted_repeat)
    emits = trace_events(w, "wanted-emit", device=1)
    assert len(emits) == 2
    assert trace_events(w, "wanted-resolved", device=1)
    results = trace_events(w, "search-result", device=2)
    assert results[0].details["ok"] is False
    assert results[-1].details["ok"] is True


@criterion(10, "determinism: identical traces and metrics across reruns")
def test_c10_determinism():
    corpus = sorted(SCENARIOS.glob("*.json"))
    assert corpus
    for path in corpus:
        runs = []
        for _ in range(2):
            world = run_scenario(load_scenario(str(path)))
            runs.append(("\n".join(world.trace_lines()).encode(),
                         json.dumps(world.metrics.report(), sort_keys=True,
                                    default=repr).encode()))
        assert runs[0][0] == runs[1][0], f"{path.name}: traces differ"
        assert runs[0][1] == runs[1][1], f"{path.name}: metrics differ"


@criterion(11, "swarm courier partition and single-courier fallback")
def test_c11_swarm():
    w, fid, content = swarm_world(bridges=(2, 3, 4))
    w.run_until(50.05)
    orders = [o for o in orders_of(w.nodes[1]) if o.kind == "file"]
    assert sorted(o.block_range for o in orders) == [(0, 11), (11, 22), (22, 32)]
    assert len({o.courier for o in orders}) == 3
    w.run_until(130.0)
    rec = only_download(w)
    assert rec["success"] and rec["couriers"] == 3
    assert w.nodes[5].files[fid] == content

    # with a single eligible bridge the request degrades to one courier
    w, fid, content = swarm_world(bridges=(2,))
    w.run_until(50.05)
    orders = [o for o in orders_of(w.nodes[1]) if o.kind == "file"]
    assert len(orders) == 1 and orders[0].block_range is None
    w.run_until(130.0)
    rec = only_download(w)
    assert rec["success"] and rec["couriers"] == 1
    assert w.nodes[5].files[fid] == content
