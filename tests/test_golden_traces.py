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
GOLDEN = {
    "chain.json": (
        "042194fb7c6b73581bba8ef78aa0eef2e8fe9f57958718a98145468b64bab2d9",
        "fcd6faadc8328d887d22a20b51221bc372c5e3e7460dde89189899967d5c89a7"),
    "intra_subnet.json": (
        "e3829e2af5a9c302fcc7578538a58e429d4807812313484d1b91a2055e0d08c0",
        "6840d7701cd87e62ec08f089d94c7a47e772b40a49b6489675081cdc997305ca"),
    "multi_source.json": (
        "333c37fbf2c661ec2536d2c552c86460c7686e5e4fd16a2da1ea85c705b4df09",
        "38007262784af1a67ea4220ab18a1d68136f9c9b6f968a46aeb9c27eeb7af3a8"),
    "swarm.json": (
        "2ce97a26ece8a226c5db15d21860666ab40d37e3855075a057b2215a013165a4",
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
