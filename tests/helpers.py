"""Shared test scaffolding: world builders and independent oracles.

The BFS oracle here is deliberately separate from the production code: it
recomputes subnet adjacency straight from the visibility graph and observed
membership, so catalog hop counts are checked against something that never
touches the merge logic.
"""

import random
from collections import deque

from pear2pear.frames import FrameKind
from pear2pear.node import MEMBER, ROOT
from pear2pear.params import Params
from pear2pear.sim import World


def make_world(**overrides):
    return World(params=Params().override(**overrides))


def clique(world, ids):
    ids = list(ids)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            world.add_edge(a, b)


def arrive(world, ids, t=0.0):
    for d in ids:
        world.schedule(t, "arrive", device=d)


def star(world, root, members, files=None):
    """One hotspot: `root` (lowest id wins the hosting race if wired as a
    clique) plus members that each see only the root."""
    world.add_device(root, (files or {}).get(root, ()))
    for m in members:
        world.add_device(m, (files or {}).get(m, ()))
        world.add_edge(m, root)
    arrive(world, [root] + list(members))


def swarm_world(bridges, size=32768, **overrides):
    """Root 1 with members 2-5 and root 10 with member 11, which holds a
    file of `size` bytes in 1 KiB blocks; `bridges` also see root 10. Device
    5 downloads the file at t=50, so with two or more idle bridges root 1
    splits the default 32-block file into a swarm."""
    content = random_content(42, size)
    w = make_world(block_size=1024, **overrides)
    w.add_device(1)
    w.add_device(10)
    for d in (2, 3, 4, 5):
        w.add_device(d)
        w.add_edge(d, 1)
    w.add_device(11, [("big.iso", content)])
    w.add_edge(11, 10)
    for d in bridges:
        w.add_edge(d, 10)
    arrive(w, [1, 10, 2, 3, 4, 5, 11])
    fid = w.nodes[11].store_file("big.iso", content).file_id
    w.schedule(50.0, "download", device=5, file_id=fid)
    return w, fid, content


def stranded_courier_world(**overrides):
    """Three chained subnets, 100 -> 200 -> 300, through gateways 103 and
    203; 301 holds far.txt, which 101 asks for at 105 s. Courier 103 joins
    200 at 107.04 s and waits there on a nested push that never comes: 203
    leaves silently at 108 s while hopping to 300."""
    w = make_world(**overrides)
    star(w, 100, [101, 102, 103])
    star(w, 200, [201, 202, 203])
    star(w, 300, [301], files={301: [("far.txt", b"far away" * 100)]})
    w.add_edge(103, 200)
    w.add_edge(203, 300)
    w.schedule(105.0, "download", device=101, file_id=next(iter(w.nodes[301].files)))
    w.schedule(108.0, "depart", device=203, silent=True)
    return w


def roots_of(world):
    """ssid -> root device for every active hotspot."""
    return {n.ssid: d for d, n in world.nodes.items()
            if n.active and n.role == ROOT}


def members_of(world, ssid):
    """Member devices as the root currently believes them (non-leaving)."""
    root = world.nodes[world.find_root(ssid)]
    return {p for p, rec in root.members.items() if rec.leaving_since is None}


def orders_of(root):
    """(courier, order) for each order `root`'s members are away on, in member order."""
    return [(p, r.away) for p, r in sorted(root.members.items()) if r.away is not None]


def subnet_adjacency(world):
    """Directed adjacency between subnets: A -> B iff some member of A has a
    visibility edge to the root of B. This mirrors what scan reports can ever
    tell A's root, but is computed structurally, not from protocol state."""
    roots = roots_of(world)
    root_of_device = {d: s for s, d in roots.items()}
    adj = {ssid: set() for ssid in roots}
    for a, root_dev in ((s, d) for s, d in roots.items()):
        for m in members_of(world, a):
            for other in world.vis.get(m, ()):
                b = root_of_device.get(other)
                if b is not None and b != a:
                    adj[a].add(b)
    return adj


def bfs_distances(adj, start):
    """Hop distance from `start` to every reachable subnet."""
    dist = {start: 0}
    q = deque([start])
    while q:
        cur = q.popleft()
        for nxt in sorted(adj.get(cur, ())):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                q.append(nxt)
    return dist


def downloads(world):
    return world.metrics.report()["downloads"]


def only_download(world):
    recs = downloads(world)
    assert len(recs) == 1, f"expected one download, got {recs}"
    return recs[0]


def trace_events(world, kind, device=None):
    return [r for r in world.trace
            if r.kind == kind and (device is None or r.device == device)]


def send_times(world, device, kind, dst=None):
    """Times at which `device` sent a `kind` frame that left it, to `dst` if given."""
    return [r.time for r in trace_events(world, "send", device=device)
            if r.details["frame"] == kind.name and dst in (None, r.details["dst"])]


def record_frames(world):
    """Every frame `world` emits over the radio from now on, in order. A
    courier's failure reason travels only in its COURIER_ORDER report, which
    the trace names but does not show."""
    frames = []
    emit = world.metrics.on_frame_emit

    def recording(frame):
        frames.append(frame)
        emit(frame)

    world.metrics.on_frame_emit = recording
    return frames


def courier_reports(frames):
    """The COURIER_ORDER status reports among recorded `frames`."""
    return [f for f in frames
            if f.kind == FrameKind.COURIER_ORDER and "status" in f.payload]


def random_content(seed, size):
    return random.Random(seed).randbytes(size)


def merge_whole(cat, snap, via_gateway, now):
    """Merge a whole snapshot of a neighbour's catalog into `cat` as a root
    does, as a full dump into its mirror of `via_gateway`."""
    mirror = cat.mirrors.get(via_gateway)
    version = mirror.version + 1 if mirror else 1
    assert cat.merge_snapshot({**snap, "base": 0, "version": version}, via_gateway, now)
