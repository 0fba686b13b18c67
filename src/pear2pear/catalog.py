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

The merge gives the result of walking the gateway's whole mirror, entry by
entry in digest order: a record not known or offered at fewer hops is
replaced, one offered at equal hops takes the offered holder count and the
merging gateway, and every record so touched is refreshed. It reads only
the entries that walk could change:

- Each gateway has one `Stamp`, its latest merge: the catalog's merge count
  then and the time. A record's `offers` holds the stamps of the gateways
  whose mirror offers it at exactly its hops and holder count, and `left`
  the latest touch from a gateway that since stopped offering it. Its
  `gateway` and `last_refresh` are those of the latest of these, so a merge
  refreshes every record its gateway offers by moving one stamp.
- A merge re-reads the entries of the delta, the digests it removed and
  the digests flagged for its gateway, in digest order, so that every
  `_changed` comes in the order of the walk. A digest is flagged for every
  gateway when one of its records is dropped (the walk would bring the
  record back), and for the offering gateways whose holder count another
  merge replaced (the walk would put theirs back).
- A gateway's snapshot lists each subnet once per entry, and its mirror
  changes only by the deltas merged through it. `drop_via_gateways` forgets
  what the dropped gateways offered, with their mirrors.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from .core import FileId, FileMeta


@dataclass(slots=True, eq=False)
class Stamp:
    """A merge through `gateway`: the catalog's merge count then, and its time."""
    gateway: str
    seq: int
    time: float


_seq = attrgetter("seq")


@dataclass(slots=True)
class RemoteRecord:
    subnet: str          # rendered SSID of the subnet holding copies
    hops: int            # inter-subnet distance from here (>= 1)
    holder_count: int
    offers: tuple = ()   # live stamps of the gateways offering exactly this
    left: Stamp | None = None  # latest touch from a gateway no longer offering it

    def _latest(self) -> Stamp:
        if self.left is None:
            return max(self.offers, key=_seq)
        return max(self.offers + (self.left,), key=_seq)

    @property
    def gateway(self) -> str:
        """Adjacent subnet on the shortest known path: the gateway of the
        latest merge that touched this record."""
        return self._latest().gateway

    @property
    def last_refresh(self) -> float:
        return self._latest().time


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
        self._merges = 0  # orders the stamps
        self._stamps: dict[str, Stamp] = {}  # gateway -> its latest merge
        self._flags: dict[str, set] = {}  # gateway -> digests its next merge re-reads
        self._shared: dict[tuple, tuple] = {}  # each record's offers, kept once

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

    def _drop_records(self, entry: CatalogEntry, subnets) -> None:
        """Delete these remote records of `entry`, and the entry if that
        leaves it with neither holders nor records."""
        for subnet in subnets:
            del entry.remote[subnet]
        for flags in self._flags.values():  # each gateway's walk would bring them back
            flags.add(entry.meta.file_id.digest)
        self._changed(entry)
        self._drop_if_empty(entry)

    def expire_remote(self, now: float, ttl: float) -> None:
        # `now - t` falls as t rises, so no record is stale unless the
        # oldest possible one is.
        if now - self._oldest < ttl:
            return
        oldest = math.inf
        refreshed = {}  # (offers, left) -> last_refresh: records share both
        for entry in list(self.entries.values()):
            stale = []
            for subnet, r in entry.remote.items():
                key = r.offers, r.left
                t = refreshed.get(key)
                if t is None:
                    t = refreshed[key] = r.last_refresh
                if now - t >= ttl:
                    stale.append(subnet)
                elif t < oldest:
                    oldest = t
            if stale:
                self._drop_records(entry, stale)
        self._oldest = oldest

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

    def merge_snapshot(self, changes: dict, via_gateway: str, home_ssid: str, now: float,
                       offered: list) -> None:
        """Fold in a courier-fetched catalog, adding one hop per jump and
        keeping the minimum-hop record per (file, subnet). `changes` is what
        `Mirror.apply` returned for the mirror of `via_gateway`, and `offered`
        that mirror's entries now. Local holders are never touched."""
        self._oldest = min(self._oldest, now)
        stamp = self._stamps.get(via_gateway)
        if stamp is None:
            stamp = self._stamps[via_gateway] = Stamp(via_gateway, 0, now)
            self._flags[via_gateway] = set()
        before = Stamp(via_gateway, stamp.seq, stamp.time)
        self._merges += 1
        stamp.seq, stamp.time = self._merges, now
        todo = {e[0]: e for e in changes["entries"]}
        todo.update(dict.fromkeys(changes["removed"]))
        for digest in self._flags[via_gateway]:
            if digest not in todo:
                i, found = _find(offered, digest)
                todo[digest] = offered[i] if found else None
        self._flags[via_gateway] = set()
        for digest in sorted(todo):
            self._offer(digest, todo[digest], changes["subnet"], stamp, before, home_ssid)

    def _share(self, offers: tuple) -> tuple:
        """Records offered by the same gateways share one tuple."""
        return self._shared.setdefault(offers, offers)

    def _offer(self, digest, raw, origin, stamp, before, home_ssid) -> None:
        """Walk one entry of the catalog merged through `stamp`'s gateway, or
        its absence (`raw` None). `before` is that gateway's previous merge."""
        candidates = []
        if raw is not None:
            _, names, size, block_count, holders, records = raw
            if holders > 0 and origin != home_ssid:
                candidates.append((origin, 1, holders))
            candidates += [(subnet, hops + 1, count)
                           for subnet, hops, count in records if subnet != home_ssid]
        entry = self._by_digest.get(digest)
        if entry is not None:
            for subnet, r in entry.remote.items():  # what it no longer offers as is
                if stamp in r.offers and (subnet, r.hops, r.holder_count) not in candidates:
                    r.offers = self._share(tuple(s for s in r.offers if s is not stamp))
                    if r.left is None or r.left.seq < before.seq:
                        r.left = before
        if not candidates:
            return
        if entry is None:
            entry = self._entry(FileMeta(FileId(digest), set(names), size, block_count))
        else:
            self._add_names(entry, names)
        remote = entry.remote
        for subnet, hops, count in candidates:
            existing = remote.get(subnet)
            if existing is None or hops < existing.hops:
                remote[subnet] = RemoteRecord(subnet, hops, count, self._share((stamp,)))
                self._changed(entry)
            elif hops == existing.hops:
                if existing.holder_count != count:
                    existing.holder_count = count
                    self._changed(entry)
                    for other in existing.offers:
                        if other is not stamp:  # its merge puts its count back
                            self._flags[other.gateway].add(digest)
                    existing.offers = self._share((stamp,))
                elif stamp not in existing.offers:
                    existing.offers = self._share(existing.offers + (stamp,))
            # hops > existing.hops: minimum retained, not refreshed

    def drop_via_gateways(self, gateways: set) -> None:
        """Remove remote records routed through now-unreachable gateways, and
        forget what those gateways offered: their mirrors went with them."""
        gone = {self._stamps.pop(g) for g in gateways if g in self._stamps}
        for g in gateways:
            self._flags.pop(g, None)
        self._shared = {t: t for t in self._shared if gone.isdisjoint(t)}
        for entry in list(self.entries.values()):
            dropped = [s for s, r in entry.remote.items() if r.gateway in gateways]
            if dropped:
                self._drop_records(entry, dropped)
            for r in entry.remote.values():
                if not gone.isdisjoint(r.offers):
                    r.offers = self._share(tuple(s for s in r.offers if s not in gone))


_digest = itemgetter(0)


def _find(entries: list, digest: bytes) -> tuple:
    """Where `digest` is, or would go, in a digest-sorted entry list, and
    whether it is there."""
    i = bisect_left(entries, digest, key=_digest)
    return i, i < len(entries) and entries[i][0] == digest


@dataclass
class Mirror:
    """A neighbour root's catalog as this root last merged it: the version
    it was cut at (0 asks for a full dump) and its snapshot entries in
    digest order (shared lists, read-only; the list itself is the mirror's)."""
    version: int = 0
    entries: list = field(default_factory=list)

    def apply(self, delta: dict) -> dict | None:
        """Bring the mirror to the version of `delta`, a `snapshot(..., since)`,
        and return what changed: the `subnet`, the `entries` that are new or
        differ, and the digests `removed`. Returns None, changing nothing,
        when the delta was cut against a version other than this mirror's
        and is not a full dump. A full dump is compared with the entries
        held, which a refused delta leaves in place."""
        base, entries = delta["base"], self.entries
        if base == 0:
            held = {e[0]: e for e in entries}
            self.entries = list(delta["entries"])
            changed = [e for e in self.entries if held.pop(e[0], None) != e]
            removed = list(held)
        elif base != self.version:
            return None
        else:
            changed, removed = [], []
            for digest in delta["removed"]:  # some were added after the base
                i, found = _find(entries, digest)
                if found:
                    del entries[i]
                    removed.append(digest)
            for e in delta["entries"]:
                i, found = _find(entries, e[0])
                if not found:
                    entries.insert(i, e)
                elif entries[i] == e:
                    continue
                else:
                    entries[i] = e
                changed.append(e)
        self.version = delta["version"]
        return {"subnet": delta["subnet"], "entries": changed, "removed": removed}


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
