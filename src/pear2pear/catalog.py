"""Root-held catalogs: which content exists where, and which neighbor subnets
are reachable through which members.

Remote knowledge arrives as courier-fetched snapshots and is merged with a
minimum-hop rule; stale records age out by TTL. A courier carries a delta,
not the whole catalog: the target root cuts the entries changed since the
version the courier's home root last merged from it, and the home root
applies that delta to its `Mirror` of the target's catalog before merging.

`NetworkFileCatalog` does work only for what changed, and keeps these
invariants:

- Every change to a field the snapshot shows (names, holder count, a remote
  record added or removed, a record's hops or holder_count), and the
  entry's creation, goes through `_changed`: it clears that entry's cached
  snapshot entry, `entry.wire`, and stamps `entry.version` with a new
  catalog version. A record's gateway and last_refresh are not in the
  snapshot and keep both.
- A dropped entry leaves a tombstone, its digest stamped with the version
  of the change that emptied it, until the digest comes back. There are
  never more tombstones than entries: the oldest go first, and `_floor`
  rises to the version of the last one gone.
- `_oldest` is never above any remote record's `last_refresh`, so
  `expire_remote` can skip its sweep while no record can be old enough.
- A snapshot entry is the list `[file_id, names, size, block_count,
  holders, remote]`, each remote record the list `[subnet, hops, holders]`
  (lists: no keys on the wire, and unlike tuples they decode back equal).
  Entries are shared between snapshots, and so between frames: they are
  read-only.
- `_by_digest` holds the same entries as `entries`, keyed by digest bytes,
  so a merge finds an entry without building a `FileId`.
"""

import math
from dataclasses import dataclass, field

from .core import FileId, FileMeta


@dataclass(slots=True)
class RemoteRecord:
    subnet: str          # rendered SSID of the subnet holding copies
    hops: int            # inter-subnet distance from here (>= 1)
    gateway: str         # adjacent subnet on the shortest known path
    holder_count: int
    last_refresh: float


@dataclass(slots=True)
class CatalogEntry:
    meta: FileMeta
    holders: set = field(default_factory=set)            # local member DeviceIds
    remote: dict = field(default_factory=dict)           # subnet ssid -> RemoteRecord
    wire: list | None = field(default=None, compare=False, repr=False)  # snapshot entry
    version: int = field(default=0, compare=False, repr=False)  # of the last change


class NetworkFileCatalog:
    def __init__(self):
        self.entries: dict[FileId, CatalogEntry] = {}
        self._by_digest: dict[bytes, CatalogEntry] = {}  # the same entries, by digest
        self._oldest = math.inf  # lower bound on every remote last_refresh
        self._version = 0  # bumped by every change a snapshot shows
        self._tombstones: dict[bytes, int] = {}  # dropped digest -> version, oldest first
        self._floor = 0  # the version of the newest tombstone pruned

    @classmethod
    def init_from(cls, root_id: int, metas) -> "NetworkFileCatalog":
        cat = cls()
        cat.register_files(root_id, metas)
        return cat

    def _changed(self, entry: CatalogEntry) -> None:
        self._version += 1
        entry.version = self._version
        entry.wire = None

    def _add_names(self, entry: CatalogEntry, names) -> None:
        if not entry.meta.names.issuperset(names):
            entry.meta.names.update(names)
            self._changed(entry)

    def _entry(self, meta: FileMeta) -> CatalogEntry:
        digest = meta.file_id.digest
        entry = self._by_digest.get(digest)
        if entry is None:
            entry = CatalogEntry(meta=FileMeta(meta.file_id, set(meta.names), meta.size, meta.block_count))
            self.entries[meta.file_id] = self._by_digest[digest] = entry
            self._tombstones.pop(digest, None)
            self._changed(entry)
        else:
            self._add_names(entry, meta.names)
        return entry

    def _drop_if_empty(self, entry: CatalogEntry) -> None:
        if not entry.holders and not entry.remote:
            file_id = entry.meta.file_id
            del self.entries[file_id]
            del self._by_digest[file_id.digest]
            # stamped with the version of the change that emptied it
            self._tombstones[file_id.digest] = entry.version
            while len(self._tombstones) > len(self._by_digest):
                oldest = next(iter(self._tombstones))
                self._floor = self._tombstones.pop(oldest)

    def _drop_holder_from(self, entry: CatalogEntry, peer: int) -> None:
        if peer in entry.holders:
            entry.holders.discard(peer)
            self._changed(entry)
            self._drop_if_empty(entry)

    def register_files(self, peer: int, metas) -> None:
        for meta in metas:
            entry = self._entry(meta)
            if peer not in entry.holders:
                entry.holders.add(peer)
                self._changed(entry)

    def apply_file_change(self, peer: int, added, removed) -> None:
        self.register_files(peer, added)
        for file_id in removed:
            entry = self.entries.get(file_id)
            if entry is not None:
                self._drop_holder_from(entry, peer)

    def drop_holder(self, peer: int) -> None:
        for entry in list(self.entries.values()):
            self._drop_holder_from(entry, peer)

    def _drop_records(self, stale) -> None:
        """Delete the remote records for which `stale(record)` holds, and
        entries left with neither holders nor records."""
        for entry in list(self.entries.values()):
            gone = [s for s, r in entry.remote.items() if stale(r)]
            if gone:
                for subnet in gone:
                    del entry.remote[subnet]
                self._changed(entry)
                self._drop_if_empty(entry)

    def expire_remote(self, now: float, ttl: float) -> None:
        # `now - t` falls as t rises, so no record is stale unless the
        # oldest possible one is.
        if now - self._oldest < ttl:
            return
        self._drop_records(lambda r: now - r.last_refresh >= ttl)
        self._oldest = min((r.last_refresh for e in self.entries.values()
                            for r in e.remote.values()), default=math.inf)

    def lookup_name(self, name: str) -> list:
        return sorted(fid for fid, e in self.entries.items() if name in e.meta.names)

    def snapshot(self, home_ssid: str, since: int | None = None) -> dict:
        """Wire-encodable snapshot sorted by digest: with no `since`, the
        whole catalog.

        With `since`, a delta for a reader that holds this catalog as it was
        at version `since`: the entries changed after it, the digests
        `removed` after it, the catalog's `version` now and the `base` the
        delta was cut against. A `since` of 0, or one this catalog cannot
        answer (below `_floor` or above its version), gets a full dump with
        `base` 0 and nothing `removed`. Entries are cached and shared
        between snapshots: read-only."""
        if since is None:
            return {"subnet": home_ssid, "entries": self._wire(sorted(self._by_digest))}
        if not self._floor <= since <= self._version:
            since = 0
        changed = sorted(d for d, e in self._by_digest.items() if e.version > since)
        removed = sorted(d for d, v in self._tombstones.items() if v > since) if since else []
        return {"subnet": home_ssid, "entries": self._wire(changed), "removed": removed,
                "version": self._version, "base": since}

    def _wire(self, digests) -> list:
        """The snapshot entries with these digests, in order."""
        out = []
        for digest in digests:
            e = self._by_digest[digest]
            if e.wire is None:
                e.wire = [digest, sorted(e.meta.names), e.meta.size, e.meta.block_count,
                          len(e.holders),
                          [[s, r.hops, r.holder_count] for s, r in sorted(e.remote.items())]]
            out.append(e.wire)
        return out

    def merge_snapshot(self, snap: dict, via_gateway: str, home_ssid: str, now: float) -> None:
        """Fold a courier-fetched snapshot in, adding one hop per jump and
        keeping the minimum-hop record per (file, subnet). Local holders are
        never touched."""
        origin = snap["subnet"]
        from_home = origin == home_ssid
        self._oldest = min(self._oldest, now)
        for digest, names, size, block_count, holders, records in snap["entries"]:
            candidates = [(origin, 1, holders)] if holders > 0 and not from_home else []
            candidates += [(subnet, hops + 1, count)
                           for subnet, hops, count in records if subnet != home_ssid]
            if not candidates:
                continue
            entry = self._by_digest.get(digest)
            if entry is None:
                entry = self._entry(FileMeta(FileId(digest), set(names), size, block_count))
            else:
                self._add_names(entry, names)
            remote = entry.remote
            for subnet, hops, count in candidates:
                existing = remote.get(subnet)
                if existing is None or hops < existing.hops:
                    remote[subnet] = RemoteRecord(subnet, hops, via_gateway, count, now)
                    self._changed(entry)
                elif hops == existing.hops:
                    if existing.holder_count != count:
                        existing.holder_count = count
                        self._changed(entry)
                    existing.gateway = via_gateway
                    existing.last_refresh = now
                # hops > existing.hops: minimum retained, not refreshed

    def drop_via_gateways(self, gateways: set) -> None:
        """Remove remote records routed through now-unreachable gateways."""
        self._drop_records(lambda r: r.gateway in gateways)


@dataclass
class Mirror:
    """A neighbour root's catalog as this root last merged it: the version
    it was cut at and its snapshot entries in digest order (shared lists,
    read-only)."""
    version: int = 0
    entries: list = field(default_factory=list)

    def apply(self, delta: dict) -> bool:
        """Bring the mirror to the version of `delta`, a `snapshot(..., since)`.
        Returns False, changing nothing, when the delta was cut against a
        version other than this mirror's and is not a full dump."""
        base = delta["base"]
        if base == 0:
            self.entries = delta["entries"]
        elif base != self.version:
            return False
        elif delta["entries"] or delta["removed"]:
            by_digest = {e[0]: e for e in self.entries}
            for digest in delta["removed"]:  # some were added after the base
                by_digest.pop(digest, None)
            for e in delta["entries"]:
                by_digest[e[0]] = e
            self.entries = [by_digest[d] for d in sorted(by_digest)]
        self.version = delta["version"]
        return True


@dataclass
class NeighborInfo:
    reachable_by: set = field(default_factory=set)
    last_seen: float = 0.0
    assigned: dict = field(default_factory=dict)  # peer -> missions handed out
    mirror: Mirror = field(default_factory=Mirror)  # its catalog as last merged here


class SubnetCatalog:
    def __init__(self):
        self.neighbors: dict[str, NeighborInfo] = {}

    def report_scan(self, peer: int, visible, now: float) -> None:
        """Record which foreign subnets `peer` can currently reach; subnets it
        no longer reports lose it from reachable_by."""
        visible = set(visible)
        for ssid in visible:
            info = self.neighbors.setdefault(ssid, NeighborInfo())
            info.reachable_by.add(peer)
            info.last_seen = now
        for ssid, info in self.neighbors.items():
            if ssid not in visible:
                info.reachable_by.discard(peer)

    def drop_peer(self, peer: int) -> None:
        for info in self.neighbors.values():
            info.reachable_by.discard(peer)

    def expire(self, now: float, ttl: float) -> list:
        """Purge neighbors unseen for `ttl`; returns the purged SSIDs."""
        gone = [s for s, info in self.neighbors.items() if now - info.last_seen >= ttl]
        for ssid in gone:
            del self.neighbors[ssid]
        return gone
