"""Seeded scenario generators for the benchmark workloads.

Each generator turns a workload seed into a scenario document (the JSON shape
`pear2pear.scenario.parse_scenario` reads). The simulator sees only the
document, never the seed. The topology and the number of scripted actions
are fixed by the size arguments. The seed picks file contents, script-time
jitter and, where that does not unsettle the mix of outcomes, requesters,
download targets and times, so host cost and protocol outcomes move little
from seed to seed.

Device numbering: subnet k has root k*7+1 and members k*7+2 .. k*7+7. Roots
arrive before their members and carry increasing ids, so every gateway member
(which also sees the next subnet's root) joins its own subnet.
"""

import random

SUBNET = 7  # root + 6 members, the default member cap


def _root(k):
    return k * SUBNET + 1


def _members(k):
    return list(range(k * SUBNET + 2, k * SUBNET + SUBNET + 1))


def _generated(rng, name, size):
    return {"name": name, "seed": rng.getrandbits(32), "size": size}


def _stars(n_subnets, files_of):
    devices, edges = [], []
    for k in range(n_subnets):
        devices.append({"id": _root(k)})
        for m in _members(k):
            devices.append({"id": m, "files": files_of(k, m)})
            edges.append([m, _root(k)])
    return devices, edges


def _slot(i, lo, hi, rng):
    """Time for the i-th scripted action: a golden-ratio sequence spreads the
    actions evenly over [lo, hi] whatever the seed, and the seed adds up to
    0.3 s of jitter. The share of actions that land while couriers are out
    is then nearly the same for every seed."""
    return lo + (hi - lo) * ((i * 0.6180339887498949) % 1.0) + rng.uniform(0.0, 0.3)


def chain_large(seed, subnets=150, until=250.0):
    """Directed chain of stars; one 4 KB file per subnet, one download per
    subnet 1-3 hops downstream, spread over the middle of the run, and a name
    search before every tenth download.

    Hop counts cycle 1, 2, 3 from a seeded phase, so each count is a third of
    the downloads and no two downloads want the same file: a copy fetched by
    one requester never shortens another's path."""
    rng = random.Random(seed)
    last = {k: _members(k)[-1] for k in range(subnets)}
    devices, edges = _stars(subnets, lambda k, m: (
        [_generated(rng, f"chain-{k:04d}.bin", 4096)] if m == last[k] else []))
    for k in range(subnets - 1):
        for gw in _members(k)[:2]:
            edges.append([gw, _root(k + 1)])
    phase = rng.randrange(3)
    script = []
    for k in range(subnets):
        target = k + 1 + (k + phase) % 3
        if target >= subnets:
            continue
        time = rng.uniform(0.36, 0.52) * until
        requester = rng.choice(_members(k)[2:-1])
        if k % 10 == 0:
            # Every tenth user looks the file up by name first.
            script.append({"time": time - 1.0, "action": "search",
                           "device": requester, "query": f"chain-{target:04d}.bin"})
        script.append({"time": time, "action": "download", "device": requester,
                       "file": f"chain-{target:04d}.bin"})
    script.sort(key=lambda row: row["time"])
    return {"seed": seed, "devices": devices, "visibility": edges,
            "script": script, "until": until}


# Block size of bulk_blocks: small, so each multi-MB file has thousands of blocks.
BULK_BLOCK_SIZE = 1024
# Start of the bulk_blocks pull. Its stranded blocks are re-sent when a
# periodic check finds them block_timeout old, and the check runs exactly
# block_timeout after they were sent, so float rounding of the start decides
# whether recovery takes 5 s or 10 s. This start gives the 10 s branch (about
# one start in sixteen does), so a fix of that rounding shows here.
PULL_START = 30.2


def bulk_blocks(seed, size=2 * 1024 * 1024, until=200.0):
    """4-subnet chain with three multi-MB files at a small block size: a
    two-holder pull whose first holder departs silently mid-transfer, a 1-hop
    swarm push and a 3-hop push that is looked up by name first."""
    rng = random.Random(seed)
    pulled = _generated(rng, "pull.bin", size)
    holders = {_members(0)[3]: [pulled], _members(0)[4]: [dict(pulled)],
               _members(1)[-1]: [_generated(rng, "swarm.bin", size)],
               _members(3)[-1]: [_generated(rng, "far.bin", size)]}
    devices, edges = _stars(4, lambda k, m: holders.get(m, []))
    for k in range(3):
        for gw in _members(k)[:3]:
            edges.append([gw, _root(k + 1)])
    requester = _members(0)[5]
    script = [
        {"time": PULL_START, "action": "download", "device": requester,
         "file": "pull.bin"},
        # The block requests leave at +0.02 and land at +0.03: departing in
        # between strands the first holder's half of the blocks in flight.
        {"time": PULL_START + 0.025, "action": "depart", "device": _members(0)[3],
         "silent": True},
        {"time": 50.0 + rng.uniform(0.0, 1.0), "action": "download",
         "device": requester, "file": "swarm.bin"},
        {"time": 89.0, "action": "search", "device": requester, "query": "far.bin"},
        {"time": 90.0 + rng.uniform(0.0, 1.0), "action": "download",
         "device": requester, "file": "far.bin"},
    ]
    return {"seed": seed, "params": {"block_size": BULK_BLOCK_SIZE}, "devices": devices,
            "visibility": edges, "script": script, "until": until}


# Hop distance of the downloads, cycled by slot. Two-hop fetches are half
# the mix, so the median successful download stays a two-hop one although
# one-hop fetches succeed more often.
MESH_HOPS = (1, 2, 2, 3)
# Downloads scripted per catalog_mesh subnet.
MESH_DOWNLOADS = 4


def catalog_mesh(seed, rows=6, cols=8, files_per_member=5, until=315.0):
    """Grid of stars with right and down gateways; every member shares small
    files. Name searches (hits and misses), downloads 1-3 hops downstream,
    and silent or announced holder departures that re-arrive later.

    Download targets and times follow the slot, not the seed: which file a
    download wants and when decide whether it meets busy couriers or a
    departed holder, and seeded picks moved the success rate by up to a
    third between seeds. The seed keeps file contents and sizes, search
    hits and jitter."""
    rng = random.Random(seed)
    n = rows * cols
    names = {}

    def files_of(k, m):
        out = []
        for j in range(files_per_member):
            name = f"mesh-{k:03d}-{m}-{j}.dat"
            names.setdefault(k, []).append(name)
            out.append(_generated(rng, name, rng.randint(512, 8192)))
        return out

    devices, edges = _stars(n, files_of)
    at_distance = {}
    for k in range(n):
        r, c = divmod(k, cols)
        right, down = _members(k)[:2]
        if c + 1 < cols:
            edges.append([right, _root(k + 1)])
        if r + 1 < rows:
            edges.append([down, _root(k + cols)])
        for r2 in range(r, rows):
            for c2 in range(c, cols):
                at_distance.setdefault((k, r2 - r + c2 - c), []).append(r2 * cols + c2)

    script = []
    for k in range(n):
        requester = _members(k)[2]
        for i in range(MESH_DOWNLOADS):
            slot = k * MESH_DOWNLOADS + i
            want = MESH_HOPS[slot % len(MESH_HOPS)]
            hops = next((d for d in range(want, 0, -1) if (k, d) in at_distance), None)
            if hops is None:
                continue
            options = at_distance[(k, hops)]
            files = names[options[slot % len(options)]]
            # Stride 7 is coprime to the file count, so picks visit every member.
            script.append({"time": _slot(slot, 0.24 * until, 0.62 * until, rng),
                           "action": "download", "device": requester,
                           "file": files[slot * 7 % len(files)]})
        near = at_distance.get((k, 1)) or [k]
        script.append({"time": _slot(2 * k, 0.3 * until, 0.6 * until, rng),
                       "action": "search", "device": requester,
                       "query": rng.choice(names[rng.choice(near)])})
        script.append({"time": _slot(2 * k + 1, 0.3 * until, 0.6 * until, rng),
                       "action": "search", "device": requester,
                       "query": f"missing-{k:03d}.dat"})
        holder = _members(k)[-1]
        leave = _slot(k, 0.3 * until, 0.5 * until, rng)
        script.append({"time": leave, "action": "depart", "device": holder,
                       "silent": k % 2 == 0})
        script.append({"time": leave + 30.0 + 15.0 * ((k * 0.381966) % 1.0),
                       "action": "arrive", "device": holder})
        # A scripted arrival replaces the implicit one at t=0.
        script.append({"time": 0.0, "action": "arrive", "device": holder})
    script.sort(key=lambda row: row["time"])
    return {"seed": seed, "devices": devices, "visibility": edges,
            "script": script, "until": until}


WORKLOADS = {
    "chain_large": chain_large,
    "bulk_blocks": bulk_blocks,
    "catalog_mesh": catalog_mesh,
}
