"""The catalog merge as a full walk, the reference for the incremental merge.

`ReferenceCatalog.merge_snapshot` walks a gateway's whole catalog at every
merge, and its records keep their gateway and last refresh as plain fields
that expiry and gateway drops read as written. The incremental
`NetworkFileCatalog` must leave every catalog exactly as this one does.
"""

import copy
import math
from dataclasses import dataclass

from pear2pear.catalog import NetworkFileCatalog
from pear2pear.core import FileId, FileMeta


@dataclass(slots=True)
class FieldRecord:
    subnet: str
    hops: int
    gateway: str
    holder_count: int
    last_refresh: float


class ReferenceCatalog(NetworkFileCatalog):
    def merge_snapshot(self, snap, via_gateway, home_ssid, now):
        """Fold a gateway's whole catalog in, adding one hop per jump and
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
                    remote[subnet] = FieldRecord(subnet, hops, via_gateway, count, now)
                    self._changed(entry)
                elif hops == existing.hops:
                    if existing.holder_count != count:
                        existing.holder_count = count
                        self._changed(entry)
                    existing.gateway = via_gateway
                    existing.last_refresh = now
                # hops > existing.hops: minimum retained, not refreshed

    def _drop_where(self, stale):
        for entry in list(self.entries.values()):
            gone = [s for s, r in entry.remote.items() if stale(r)]
            if gone:
                for subnet in gone:
                    del entry.remote[subnet]
                self._changed(entry)
                self._drop_if_empty(entry)

    def expire_remote(self, now, ttl):
        if now - self._oldest < ttl:
            return
        self._drop_where(lambda r: now - r.last_refresh >= ttl)
        self._oldest = min((r.last_refresh for e in self.entries.values()
                            for r in e.remote.values()), default=math.inf)

    def drop_via_gateways(self, gateways):
        self._drop_where(lambda r: r.gateway in gateways)


def shadow(cat: NetworkFileCatalog) -> ReferenceCatalog:
    """A reference catalog in the state of `cat`."""
    ref = ReferenceCatalog()
    ref.__dict__.update(copy.deepcopy(cat.__dict__))
    for e in ref.entries.values():
        e.remote = {s: FieldRecord(s, r.hops, r.gateway, r.holder_count, r.last_refresh)
                    for s, r in e.remote.items()}
    return ref


def state(cat: NetworkFileCatalog):
    """All a merge, an expiry or a drop may change, in iteration order:
    every entry's holders, names, version and records (hops, holder_count,
    gateway, last_refresh), the catalog's version, tombstones, floor and
    oldest-refresh bound."""
    entries = [(fid, set(e.holders), set(e.meta.names), e.version,
                {s: (r.hops, r.holder_count, r.gateway, r.last_refresh)
                 for s, r in e.remote.items()})
               for fid, e in cat.entries.items()]
    return (entries, cat._version, list(cat._tombstones.items()), cat._floor, cat._oldest)
