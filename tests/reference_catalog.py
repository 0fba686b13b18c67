"""A catalog's remote records, derived from scratch over its mirrors.

`derive` walks every entry of every mirror and keeps, per (file, subnet),
the offer with the fewest hops: a neighbour's own holders one hop away and
each of its records one hop further, a tie going to the gateway first in
SSID order, and nothing about the catalog's own subnet. After every merge,
expiry and gateway drop, the incremental `NetworkFileCatalog` must hold
exactly these records (`check`).
"""

from pear2pear.catalog import NetworkFileCatalog


def offers(cat: NetworkFileCatalog, gateway: str, raw: tuple) -> list:
    """The (subnet, hops, holder_count) offers of one entry of `gateway`'s mirror."""
    _, _, _, _, holders, records = raw
    out = [(gateway, 1, holders)] if holders else []
    out += [(subnet, hops + 1, count) for subnet, hops, count in records]
    return [o for o in out if o[0] != cat.ssid]


def derive(cat: NetworkFileCatalog) -> dict:
    """digest -> {subnet: (hops, holder_count, gateway)}, from `cat`'s mirrors."""
    out = {}
    for gateway in sorted(cat.mirrors):
        for raw in cat.mirrors[gateway].entries.values():
            best = out.setdefault(raw[0], {})
            for subnet, hops, count in offers(cat, gateway, raw):
                if subnet not in best or hops < best[subnet][0]:
                    best[subnet] = (hops, count, gateway)
    return {digest: best for digest, best in out.items() if best}


def records(cat: NetworkFileCatalog) -> dict:
    """digest -> {subnet: (hops, holder_count, gateway)}, as `cat` holds them:
    each record a plain tuple, so that the collector can stop tracking it."""
    assert all(type(r) is tuple for e in cat.entries.values() for r in e.remote.values())
    return {digest: dict(e.remote) for digest, e in cat.entries.items() if e.remote}


def check(cat: NetworkFileCatalog) -> None:
    """`cat` holds the derived records, an entry only for a file held here or
    offered, its names sorted and distinct, and every name an offering mirror
    entry gives its file."""
    assert records(cat) == derive(cat)
    assert all(e.holders or e.remote for e in cat.entries.values())
    assert all(list(e.names) == sorted(set(e.names)) for e in cat.entries.values())
    for gateway, mirror in cat.mirrors.items():
        for raw in mirror.entries.values():
            if offers(cat, gateway, raw):
                assert set(cat.entries[raw[0]].names).issuperset(raw[1])
