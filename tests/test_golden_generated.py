"""Golden digests for the benchmark's generated topologies.

The shipped scenarios are four small hand-written runs. The generated
workloads of `perfbench/workloads.py`, at the tiny sizes of its self-test,
add more subnets, many more courier hops (each one a root lookup), holder
departures and re-arrivals, and failed missions, so these digests pin root
lookup, frame dispatch and block bookkeeping under churn. Each workload
pins its event count, the SHA-256 of its `--trace` output and the SHA-256
of its metrics report, all taken before those paths were made O(1).
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from pear2pear.scenario import build_world, parse_scenario

_WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEED = 3
# The sizes perfbench/test_smoke.py runs.
TINY = {
    "chain_large": {"subnets": 5, "until": 160.0},
    "bulk_blocks": {"size": 24 * 1024, "until": 120.0},
    "catalog_mesh": {"rows": 2, "cols": 3, "files_per_member": 2, "until": 160.0},
}
# workload -> (events, trace SHA-256, metrics report SHA-256)
# All three traces were re-pinned when idle members no longer answer PING:
# each lost only lines naming PONG (838, 478 and 928), and its events
# (chain_large 3532 -> 3113, bulk_blocks 2353 -> 2114, catalog_mesh
# 4716 -> 4252). No metrics report changed.
# All three were re-pinned when a member's scan began to prove its root
# alive and a root began to ping only a member unheard for a scan period:
# each lost only lines naming PING or PONG (868, 503 and 968), and its
# events (chain_large 3113 -> 2692, bulk_blocks 2114 -> 1873, catalog_mesh
# 4252 -> 3784). No metrics report changed.
# All three event counts were re-pinned when a member's root check moved
# onto its scan timer: the member's own root-check timer, which fired in the
# same instant as its scan timer, is gone. No trace or report changed
# (chain_large 2692 -> 2242, bulk_blocks 1873 -> 1616, catalog_mesh
# 3784 -> 3260).
# All three were re-pinned when an idle member began to send SCAN_REPORT
# only on a change or as a beacon every k-th scan (k = 2), and a root to
# count a beaconing member's silence from the last scan it may skip.
# chain_large and bulk_blocks lost only SCAN_REPORT send and recv lines
# (418 and 246). catalog_mesh lost 456 of them and two undeliverable PINGs,
# gained one undeliverable PING, and lost the silent purge of member 35 at
# 100 s with its re-admission at 101.15 s: back by then, it rejoined as a
# known member. Events fell (chain_large 2242 -> 2033, bulk_blocks
# 1616 -> 1493, catalog_mesh 3260 -> 3032). No metrics report changed.
GOLDEN = {
    # All three were re-pinned when roots stopped sending PING, WANTED_FILE
    # and BLOCK_REQUEST to members out on their courier orders, each of which
    # was lost as different-hotspot. Only catalog_mesh's report changed: a
    # nested pull whose one holder is away is refused at once (holder-away)
    # instead of after a block timeout, so three downloads fail as
    # courier-failed 5.0 s sooner.
    "chain_large": (
        2033,
        "e8d9b72a116f8902f9d912ad268fb736c2c63e4395f4571bb3c2a59f460088c6",
        "8e04ddbce9ba501ea8749ef2f9cf3cf5ee8ee38378cdb5a2fe0d13e72c35d080"),
    # Re-pinned when the block timeout began comparing `now >= sent +
    # timeout`: `now - sent >= timeout` rounded below the timeout for a
    # block sent in the instant the periodic check was armed, so the pull
    # after the holder loss waited a second period. The pull now takes
    # 5.04 sim s instead of 10.04, with one event fewer.
    # Re-pinned when a pull began to send one BLOCK_REQUEST per source for
    # all of its blocks: the trace lost only BLOCK_REQUEST lines (77 send,
    # 66 recv and 11 drop), events fell 1493 -> 1416, and the report changed
    # only in the pull's frame count (62 -> 29).
    "bulk_blocks": (
        1416,
        "ea50f80063078ee31a34e8cc39e6d3daf1c2a9f13441113d259aaf74172b01cb",
        "a56edf886e693a7154d6fea1ee68ca276c213cb28878ee2bc4360eca99348b8f"),
    # Re-pinned when remote records became a view over the neighbour
    # mirrors: an equal-hop tie now goes to the gateway first in SSID order,
    # not to the last one merged. At 58.53 s root 8 sends file order 11-2
    # through courier 9 instead of 10, and the next catalog run swaps with
    # it; the report differs only in those two couriers' order counts.
    # Same event count.
    "catalog_mesh": (
        3032,
        "3a7619ed65f23dcc2417a7f84dfd95495bd328f5531745e730efece5fa35cfb4",
        "55dda8538b445e49dc1d17733fb243279c2cc4a083c5c32ac514e5c6d87c2db1"),
}


def _run(name):
    sc = parse_scenario(workloads.WORKLOADS[name](SEED, **TINY[name]))
    world = build_world(sc)
    events = 0
    while world.queue and world.queue[0][0] <= sc.until:
        world.step()
        events += 1
    trace = "".join(line + "\n" for line in world.trace_lines()).encode()
    report = json.dumps(world.metrics.report(), sort_keys=True).encode()
    return (events, hashlib.sha256(trace).hexdigest(),
            hashlib.sha256(report).hexdigest())


def test_every_workload_has_digests():
    assert sorted(GOLDEN) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_digests(name):
    assert _run(name) == GOLDEN[name]
