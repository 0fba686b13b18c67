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
GOLDEN = {
    "chain.json": (
        "258c5256e93770939601c577b91c48cfcc58135cb86125b2ee3f70bf26e9fed2",
        "fcd6faadc8328d887d22a20b51221bc372c5e3e7460dde89189899967d5c89a7"),
    "intra_subnet.json": (
        "39ee91ee5a6f4ec0e0d5901d755e85e3a48f54c277f28936a3a18bb574b65250",
        "6840d7701cd87e62ec08f089d94c7a47e772b40a49b6489675081cdc997305ca"),
    "multi_source.json": (
        "a05429af42aa9c202ae3b19ee70a1ee0c5b44c6bea0c9b67a7fdfb13e90b36be",
        "38007262784af1a67ea4220ab18a1d68136f9c9b6f968a46aeb9c27eeb7af3a8"),
    "swarm.json": (
        "eba242c9e52446f21a69a7d0879fe418bb1c48720d3fc99f4e5f35839dcfaca2",
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
