"""Root-held catalogs: which content exists where, and which neighbor subnets
are reachable through which members.

A root keeps a `Mirror` of each neighbour's catalog, as its couriers last
fetched it: the neighbour's snapshot entries, keyed by digest like every
other map here. A courier carries a delta, not the whole catalog: the target
root cuts the entries changed since the version the courier's home root last
merged from it, and the home root applies that delta to its mirror of the
`via` subnet named by the `CATALOG_SNAPSHOT` frame: a delta names no subnet.

Remote records are a view over the mirrors. The record of a (file, subnet)
is the offer with the fewest hops over all mirrors: a neighbour's own holders
at one hop, and each of its records one hop further. A tie goes to the
gateway first in SSID order, no record names this subnet, and an offered id
that is not a 32-byte digest gets no entry. A merge, an expiry or a dropped
gateway re-derives only the digests whose offers it changed. No snapshot
ships a record at `max_hops` or more, so no record here is ever further than
`max_hops`: no courier chain could fetch it, and a record that lost its
source counts up to that bound and goes.

Every change a snapshot shows goes through `_changed`, which clears the
entry's cached snapshot entry, `entry.wire`, and stamps `entry.version` with
a new catalog version. A dropped entry leaves a tombstone, its digest stamped
with the version of the change that emptied it, until the digest comes back.
There are never more tombstones than entries: the oldest go first, and
`_floor` rises to the version of the last one gone.

A snapshot entry is the tuple `(file_id, names, size, block_count, holders,
remote)`, its `names` the entry's own sorted tuple and each remote record
the tuple `(subnet, hops, holders)`: no keys on the wire, and the codec
decodes every array as a tuple, so a decoded entry equals the one sent.
Entries are shared between snapshots, and so between frames and mirrors:
they are read-only. Built of scalars and such tuples, an entry is one the
cyclic collector stops tracking, though every mirror holds thousands.

In memory, `entries` maps a file's 32-byte digest, its one key everywhere
in a catalog, to its one record, a `CatalogEntry`: its names as a sorted
tuple, replaced when a new name arrives, its size and block count, its
local holders and its remote records. It holds no `FileId` or `FileMeta`:
each would be one more object per root and file for the collector to walk.
`entry.remote` maps a subnet to the
plain tuple `(hops, holder_count, gateway)`, and a re-derivation replaces
the dict rather than mutate a record. The cyclic collector stops tracking
an exact tuple of scalars at its first collection, and a dict of such
tuples at a full one; an instance of a record class or a `NamedTuple`
subclass stays tracked. An entry held only remotely shares one empty
`frozenset` as its holders, and gets a set of its own with its first local
holder. A root keeps tens of thousands of remote records, and every
collection of its generation would otherwise walk them all.
"""

from dataclasses import dataclass, field


_NO_HOLDERS = frozenset()
DIGEST_LEN = 32  # of a content hash, as `core.DIGEST_LEN`


@dataclass(slots=True)
class CatalogEntry:
    names: tuple  # sorted, distinct; replaced, never mutated
    size: int
    block_count: int
    holders: set | frozenset = _NO_HOLDERS  # local member DeviceIds
    # subnet ssid -> (hops from here, holder count, gateway: the adjacent
    # subnet on the shortest known path)
    remote: dict = field(default_factory=dict)
    wire: tuple | None = field(default=None, compare=False, repr=False)  # snapshot entry
    version: int = field(default=0, compare=False, repr=False)  # of the last change


class NetworkFileCatalog:
    """The catalog of subnet `ssid`, whose snapshots ship no record at
    `max_hops` or more."""

    def __init__(self, ssid: str, max_hops: int):
        self.ssid = ssid
        self.max_hops = max_hops
        self.entries: dict[bytes, CatalogEntry] = {}  # by digest
        self._version = 0  # bumped by every change a snapshot shows
        self._tombstones: dict[bytes, int] = {}  # dropped digest -> version, oldest first
        self._floor = 0  # the version of the newest tombstone pruned
        self.mirrors: dict[str, Mirror] = {}  # gateway -> its catalog, in SSID order

    def _changed(self, entry: CatalogEntry) -> None:
        self._version += 1
        entry.version = self._version
        entry.wire = None

    def _add_names(self, entry: CatalogEntry, names) -> None:
        known = entry.names
        for name in names:
            if name not in known:
                entry.names = tuple(sorted({*known, *names}))
                self._changed(entry)
                return

    def _entry(self, digest: bytes, names, size: int, block_count: int) -> CatalogEntry:
        entry = self.entries.get(digest)
        if entry is None:
            # a names tuple already sorted and distinct, as a snapshot's, is kept
            canon = tuple(sorted(set(names)))
            entry = CatalogEntry(names if canon == names else canon, size, block_count)
            self.entries[digest] = entry
            self._tombstones.pop(digest, None)
            self._changed(entry)
        else:
            self._add_names(entry, names)
        return entry

    def _drop_if_empty(self, digest: bytes, entry: CatalogEntry) -> None:
        if not entry.holders and not entry.remote:
            del self.entries[digest]
            # stamped with the version of the change that emptied it
            self._tombstones[digest] = entry.version
            while len(self._tombstones) > len(self.entries):
                oldest = next(iter(self._tombstones))
                self._floor = self._tombstones.pop(oldest)

    def _drop_holder_from(self, digest: bytes, peer: int) -> None:
        entry = self.entries.get(digest)
        if entry is not None and peer in entry.holders:
            entry.holders.discard(peer)
            if not entry.holders:
                entry.holders = _NO_HOLDERS
            self._changed(entry)
            self._drop_if_empty(digest, entry)

    def register_files(self, peer: int, metas) -> None:
        """Record `peer` as a holder of the files of these `FileMeta`s."""
        for meta in metas:
            entry = self._entry(meta.file_id.digest, meta.names, meta.size, meta.block_count)
            if peer not in entry.holders:
                if not entry.holders:
                    entry.holders = set()
                entry.holders.add(peer)
                self._changed(entry)

    def apply_file_change(self, peer: int, added, removed) -> None:
        """`peer` now holds the files of the `FileMeta`s `added`, and no
        longer those of the `FileId`s `removed`."""
        self.register_files(peer, added)
        for file_id in removed:
            self._drop_holder_from(file_id.digest, peer)

    def drop_holder(self, peer: int) -> None:
        for digest in list(self.entries):
            self._drop_holder_from(digest, peer)

    def lookup_name(self, name: str) -> list:
        """The digests of the files named `name`, sorted."""
        return sorted(d for d, e in self.entries.items() if name in e.names)

    def snapshot(self, since: int) -> dict:
        """Wire-encodable delta, sorted by digest, for a reader that holds
        this catalog as it was at version `since`: the entries changed after
        it, the digests `removed` after it, the catalog's `version` now and
        the `base` the delta was cut against. A `since` of 0, or one this
        catalog cannot answer (below `_floor` or above its version), gets a
        full dump with `base` 0 and nothing `removed`. Entries are cached
        and shared between snapshots: read-only."""
        if not self._floor <= since <= self._version:
            since = 0
        changed = sorted(d for d, e in self.entries.items() if e.version > since)
        removed = tuple(sorted(d for d, v in self._tombstones.items() if v > since)) \
            if since else ()
        return {"entries": tuple(map(self._wire, changed)), "removed": removed,
                "version": self._version, "base": since}

    def _wire(self, digest: bytes) -> tuple:
        """The snapshot entry of `digest`, cached on its catalog entry."""
        e = self.entries[digest]
        if e.wire is None:
            e.wire = (digest, e.names, e.size, e.block_count, len(e.holders),
                      tuple((s, hops, count) for s, (hops, count, _) in sorted(e.remote.items())
                            if hops < self.max_hops))
        return e.wire

    def merge_snapshot(self, delta: dict, via_gateway: str, now: float) -> bool:
        """Apply a courier-fetched delta to the mirror of `via_gateway`, the
        neighbour it was cut at, stamp the mirror with `now`, and re-derive
        the records of the digests it changed or removed. Returns False,
        changing nothing, when the mirror refuses the delta; the next fetch
        then asks for a full dump. Local holders are never touched."""
        mirror = self.mirrors.get(via_gateway) or Mirror()
        changes = mirror.apply(delta)
        if changes is None:
            mirror.version = 0  # compared with the entries held, if any
            return False
        if via_gateway not in self.mirrors:
            self.mirrors = dict(sorted({**self.mirrors, via_gateway: mirror}.items()))
        mirror.merged = now
        self._derive([e[0] for e in changes["entries"]] + changes["removed"])
        return True

    def expire_remote(self, now: float, ttl: float) -> None:
        """Drop the mirrors not merged for `ttl`."""
        self.drop_via_gateways([g for g, m in self.mirrors.items() if now - m.merged >= ttl])

    def drop_via_gateways(self, gateways) -> None:
        """Drop the mirrors of these gateways, and the records only they offered."""
        gone = [self.mirrors.pop(g) for g in gateways if g in self.mirrors]
        if gone:
            self._derive(set().union(*(m.entries for m in gone)))

    def _derive(self, digests) -> None:
        """Set the remote records of these digests to the best offers of the
        mirrors, in digest order."""
        home, mirrors = self.ssid, [(g, m.entries) for g, m in self.mirrors.items()]
        for digest in sorted(digests):
            best = {}  # subnet -> (hops, holder count, gateway)
            raws = []
            for gateway, offers in mirrors:
                raw = offers.get(digest)
                if raw is None:
                    continue
                offered = raw[4] and gateway != home  # its own holders, one hop away
                if offered:
                    held = best.get(gateway)
                    if held is None or held[0] > 1:
                        best[gateway] = (1, raw[4], gateway)
                for subnet, hops, count in raw[5]:
                    if subnet != home:
                        offered = True
                        held = best.get(subnet)
                        if held is None or hops + 1 < held[0]:
                            best[subnet] = (hops + 1, count, gateway)
                if offered:
                    raws.append(raw)
            entry = self.entries.get(digest)
            if entry is None:
                if not best or len(digest) != DIGEST_LEN:  # no record for a malformed id
                    continue
                entry = self._entry(digest, *raws[0][1:4])
            for raw in raws:
                self._add_names(entry, raw[1])
            # a new gateway alone changes nothing a snapshot shows
            remote, entry.remote = entry.remote, best
            changed = remote.keys() != best.keys()
            if not changed:
                for subnet, (hops, count, _) in best.items():
                    held = remote[subnet]
                    if held[0] != hops or held[1] != count:
                        changed = True
                        break
            if changed:
                self._changed(entry)
                self._drop_if_empty(digest, entry)


@dataclass
class Mirror:
    """A neighbour root's catalog as this root last merged it: the version
    it was cut at (0 asks for a full dump), its snapshot entries by digest
    (shared tuples, read-only; the dict itself is the mirror's) and the time
    of its last merge."""
    version: int = 0
    entries: dict = field(default_factory=dict)
    merged: float = 0.0

    def apply(self, delta: dict) -> dict | None:
        """Bring the mirror to the version of `delta`, a `snapshot(..., since)`,
        and return what changed: the `entries` that are new or differ, and
        the digests `removed`. Returns None, changing nothing, when the delta
        was cut against a version other than this mirror's and is not a full
        dump. A full dump is compared with the entries held, which a refused
        delta leaves in place."""
        base, held = delta["base"], self.entries
        if base == 0:
            self.entries = {e[0]: e for e in delta["entries"]}
            changed = [e for e in delta["entries"] if held.pop(e[0], None) != e]
            removed = list(held)  # what the dump no longer lists
        elif base != self.version:
            return None
        else:
            # some were added after the base, so the mirror never held them
            removed = [d for d in delta["removed"] if held.pop(d, None) is not None]
            changed = [e for e in delta["entries"] if held.get(e[0]) != e]
            held.update({e[0]: e for e in changed})
        self.version = delta["version"]
        return {"entries": changed, "removed": removed}


@dataclass
class NeighborInfo:
    reachable_by: set = field(default_factory=set)
    last_seen: float = 0.0
    assigned: dict = field(default_factory=dict)  # peer -> missions handed out


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
