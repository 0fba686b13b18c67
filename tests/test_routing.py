"""Courier designation, source selection, block partitioning."""

import itertools

import pytest
from hypothesis import given, strategies as st

from pear2pear.catalog import NetworkFileCatalog, SubnetCatalog
from pear2pear.core import make_meta
from pear2pear.routing import (
    Local, Remote, assign_block_source, designate_courier, partition_blocks,
    select_source,
)


def _sub_with(peers, target="NET-B"):
    sub = SubnetCatalog()
    for p in peers:
        sub.report_scan(p, [target], now=0.0)
    return sub


def _next(sub, target):
    """The next courier for `target` when every peer that reaches it may go."""
    info = sub.neighbors.get(target)
    return designate_courier(sub, target, set(info.reachable_by) if info else set())


def test_round_robin_cycles_sorted_order():
    sub = _sub_with([30, 10, 20])
    picks = [_next(sub, "NET-B") for _ in range(6)]
    assert picks == [10, 20, 30, 10, 20, 30]


def test_round_robin_singleton():
    sub = _sub_with([7])
    assert [_next(sub, "NET-B") for _ in range(3)] == [7, 7, 7]


def test_round_robin_fairness_even_missions():
    # 8 missions over 4 peers -> exactly 2 each
    sub = _sub_with([1, 2, 3, 4])
    picks = [_next(sub, "NET-B") for _ in range(8)]
    assert all(picks.count(p) == 2 for p in (1, 2, 3, 4))


def test_round_robin_spread_never_exceeds_one():
    sub = _sub_with([1, 2, 3])
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(10):
        counts[_next(sub, "NET-B")] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_round_robin_skips_ineligible():
    sub = _sub_with([1, 2, 3])
    picks = [designate_courier(sub, "NET-B", {1, 3}) for _ in range(4)]
    assert picks == [1, 3, 1, 3]


def test_no_courier_when_unreachable():
    sub = _sub_with([1])
    assert _next(sub, "NET-MISSING") is None
    sub.drop_peer(1)
    assert _next(sub, "NET-B") is None
    assert designate_courier(_sub_with([1]), "NET-B", eligible=set()) is None


def test_per_target_cursors_are_independent():
    sub = SubnetCatalog()
    for p in (1, 2):
        sub.report_scan(p, ["NET-B", "NET-C"], now=0.0)
    assert _next(sub, "NET-B") == 1
    # a different target starts its own rotation from the beginning
    assert _next(sub, "NET-C") == 1
    assert _next(sub, "NET-B") == 2


# --- source selection -----------------------------------------------------

def _cat_with_remotes(records):
    """Catalog with one file known only remotely, via the given
    (subnet, hops, holder_count) records."""
    cat = NetworkFileCatalog("NET-A", 8)
    meta = make_meta("song", b"tune", 16)
    entry = cat._entry(meta.file_id.digest, meta.names, meta.size, meta.block_count)
    for subnet, hops, holders in records:
        entry.remote[subnet] = (hops, holders, subnet)
    return cat, meta.file_id


def test_local_beats_any_remote():
    cat, fid = _cat_with_remotes([("NET-B", 1, 99)])
    cat.register_files(4, [make_meta("song", b"tune", 16)])
    assert select_source(cat, fid.digest) == Local(holders=(4,))


def test_remote_orderings_exhaustive():
    # brute-force oracle: min over (hops, -holders, subnet)
    records = [("NET-B", 2, 3), ("NET-C", 1, 1), ("NET-D", 1, 5), ("NET-E", 1, 5)]
    for perm in itertools.permutations(records):
        cat, fid = _cat_with_remotes(perm)
        best = min(perm, key=lambda r: (r[1], -r[2], r[0]))
        got = select_source(cat, fid.digest)
        assert isinstance(got, Remote)
        # each record's gateway is its own subnet, so the pair names the record
        assert (got.hops, got.gateway) == (best[1], best[0])


def test_unknown_file_has_no_source():
    cat = NetworkFileCatalog("NET-A", 8)
    assert select_source(cat, make_meta("x", b"y", 16).file_id.digest) is None


# --- partitioning ---------------------------------------------------------

@pytest.mark.parametrize("blocks,couriers,expected", [
    (32, 3, [(0, 11), (11, 22), (22, 32)]),
    (10, 2, [(0, 5), (5, 10)]),
    (7, 7, [(i, i + 1) for i in range(7)]),
    (5, 1, [(0, 5)]),
    (3, 4, [(0, 1), (1, 2), (2, 3), (3, 3)]),
])
def test_partition_known_cases(blocks, couriers, expected):
    assert partition_blocks(blocks, couriers) == expected


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=12))
def test_partition_properties(blocks, couriers):
    ranges = partition_blocks(blocks, couriers)
    assert len(ranges) == couriers
    assert ranges[0][0] == 0 and ranges[-1][1] == blocks
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c
    sizes = [b - a for a, b in ranges]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


def test_partition_rejects_zero_couriers():
    with pytest.raises(ValueError):
        partition_blocks(8, 0)


def test_block_assignment_round_robin():
    sources = [10, 20, 30]
    assert [assign_block_source(i, sources) for i in range(7)] == [10, 20, 30, 10, 20, 30, 10]
