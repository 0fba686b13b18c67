"""Courier designation (round robin), source selection, and block partitioning."""

from dataclasses import dataclass

from .catalog import NetworkFileCatalog, SubnetCatalog


@dataclass(frozen=True)
class Local:
    holders: tuple  # sorted DeviceIds


@dataclass(frozen=True)
class Remote:
    hops: int
    gateway: str


def designate_courier(sub: SubnetCatalog, target: str, eligible=None):
    """Next courier for `target`: round robin over its reachable peers.

    Implemented as least-assigned-first with device-id tie-break, which walks
    the sorted peers cyclically when the set is stable and self-corrects after
    membership churn (a peer that missed a turn is favoured on return, keeping
    the assignment spread within one). `eligible` optionally filters out busy
    or leaving peers. Returns None when nobody can go.
    """
    info = sub.neighbors.get(target)
    if info is None or not info.reachable_by:
        return None
    candidates = sorted(p for p in info.reachable_by
                        if eligible is None or p in eligible)
    if not candidates:
        return None
    peer = min(candidates, key=lambda p: (info.assigned.get(p, 0), p))
    info.assigned[peer] = info.assigned.get(peer, 0) + 1
    return peer


def select_source(cat: NetworkFileCatalog, digest: bytes):
    """Best source for the file of `digest`: local holders beat everything;
    otherwise the minimum-hop remote record, ties broken by more copies then
    subnet id."""
    entry = cat.entries.get(digest)
    if entry is None:
        return None
    if entry.holders:
        return Local(holders=tuple(sorted(entry.holders)))
    if entry.remote:
        _, (hops, _, gateway) = min(
            entry.remote.items(), key=lambda item: (item[1][0], -item[1][1], item[0]))
        return Remote(hops=hops, gateway=gateway)
    return None


def partition_blocks(block_count: int, couriers: int) -> list:
    """Split [0, block_count) into `couriers` contiguous, near-even ranges."""
    if couriers < 1:
        raise ValueError("need at least one courier")
    base, extra = divmod(block_count, couriers)
    ranges = []
    start = 0
    for i in range(couriers):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def assign_block_source(index: int, sources: list) -> int:
    """Round-robin block-to-source assignment: block i goes to sources[i % k]."""
    return sources[index % len(sources)]
