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
GOLDEN = {
    "chain_large": (
        3560,
        "1005cd9eda5064438a84f22155c02a96a3ccac145e2d945feb5ab7b5d6cc8a5e",
        "8e04ddbce9ba501ea8749ef2f9cf3cf5ee8ee38378cdb5a2fe0d13e72c35d080"),
    # Re-pinned when the block timeout began comparing `now >= sent +
    # timeout`: `now - sent >= timeout` rounded below the timeout for a
    # block sent in the instant the periodic check was armed, so the pull
    # after the holder loss waited a second period. The pull now takes
    # 5.04 sim s instead of 10.04, with one event fewer.
    "bulk_blocks": (
        2368,
        "1f230b284f0539e5c717a6b717ddeaea5caa3ef290949fbc5ec74f2c7ae101a4",
        "e886df4d16bfeee3539d06812cf8dad293a97b9b69f9a228cb0960602e8df4cd"),
    # Re-pinned when push-phase sessions began failing on the root's
    # courier-failed SourceList: five downloads now fail with that reason
    # 4-9 s after they start; before, one of them failed at session_timeout
    # and four were still pending when the run ended. Same event count.
    "catalog_mesh": (
        4760,
        "e29e6bd042eaafea5f81dcf1f6092aa1f5ccd4ceb4738bdc5e771fd0be5bc243",
        "933fd33cb26563d97dd8fecfb77a85dbf835b8cf855166e800e7847cfaa72078"),
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
