"""Golden traces: every shipped scenario's `--trace` output and metrics
report hash to the committed digests.

A change that moves either digest changes observable behaviour; it must say
why in CHANGES.md and update the digests here. The trace digests equal the
`fingerprint scenarios/...` lines `perfbench/run.py` prints.
"""

import hashlib
import json
import pathlib

import pytest

from pear2pear.cli import main
from pear2pear.scenario import load_scenario, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# scenario -> (trace SHA-256, metrics report SHA-256)
# chain.json and swarm.json were re-pinned when roots stopped pinging members
# out on their courier orders: each trace lost only those PING send/drop and
# undeliverable lines (40 and 12), and no metrics report changed.
# All four traces were re-pinned when idle members no longer answer PING:
# each lost only lines naming PONG (98, 30, 20 and 108), and no metrics
# report changed.
# All four traces were re-pinned when a member's scan began to prove its
# root alive and a root began to ping only a member unheard for a scan
# period: each lost only lines naming PING or PONG (107, 33, 23 and 113),
# and no metrics report changed.
# All four traces were re-pinned when an idle member began to send
# SCAN_REPORT only on a change or as a beacon every k-th scan (k = 2), and
# a root to count a beaconing member's silence from the last scan it may
# skip: chain, intra_subnet and swarm lost only SCAN_REPORT send and recv
# lines (34, 18 and 52). multi_source lost 12 of them, and its one silent
# purge, of member 2, moved from 40 to 50 s, with one undeliverable PING to
# 2 moving with it. No metrics report changed.
# All four traces were re-pinned when a pull began to send one BLOCK_REQUEST
# per source for all of its blocks: each lost only BLOCK_REQUEST send and
# recv lines (6, 8, 24 and 58). In multi_source, holder 3's four
# BLOCK_RESPONSE sends at 5.03 s now follow holder 2's instead of
# alternating with them, and their four recv lines at 5.04 s likewise.
# intra_subnet's and multi_source's metrics reports changed only in their
# download's frame count (12 -> 8 and 32 -> 20).
GOLDEN = {
    "chain.json": (
        "d8ccff83ea233070699a3dea126adf8ad6db113cf2307e13e5df27aca4c68457",
        "fcd6faadc8328d887d22a20b51221bc372c5e3e7460dde89189899967d5c89a7"),
    "intra_subnet.json": (
        "b3474fb63b8ec1cdb8cfad4f9d8446072d5010e4ff54d20b2a3a21a1ff174679",
        "e00cbb01e19cea0ec7fa832259952b0fb60a4c3f57f961e3c189571e453124e7"),
    "multi_source.json": (
        "6ff3ce0dff3c59dfb5a4d104e6faa852a2040644feaf62fc7dd82d17bd178bc2",
        "398591b9a1ad9b19e32562034510e30cabdffbce451dead385a0ab687708c5cf"),
    "swarm.json": (
        "671dd07f2993ca4ce29a8d5256096063068bff4b1e668cb5be656b275dfe7c4c",
        "7783e839c7205f7cebf4871f85b0b2b899a3df4084278517b61fd3cb6c36319a"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_shipped_scenario_has_digests():
    assert sorted(p.name for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digest(name, tmp_path):
    trace = tmp_path / "trace.txt"
    main(["run", str(SCENARIOS / name), "--trace", str(trace), "--quiet"])
    assert _sha256(trace.read_bytes()) == GOLDEN[name][0]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_metrics_digest(name):
    report = run_scenario(load_scenario(str(SCENARIOS / name))).metrics.report()
    assert _sha256(json.dumps(report, sort_keys=True).encode()) == GOLDEN[name][1]
