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
GOLDEN = {
    "chain.json": (
        "6719b0106d80cc60cb6542a257e45d61187cac006af00a781f23bd175e6d9fc7",
        "fcd6faadc8328d887d22a20b51221bc372c5e3e7460dde89189899967d5c89a7"),
    "intra_subnet.json": (
        "8e011d89078f41676b75e13cfe2230d88fcf1eb251a078ce9c709c68487e1f6b",
        "6840d7701cd87e62ec08f089d94c7a47e772b40a49b6489675081cdc997305ca"),
    "multi_source.json": (
        "9fdcc6344b9d16915b39e52d3c179a33847d576708b641b67fb0bf82e294f8a3",
        "38007262784af1a67ea4220ab18a1d68136f9c9b6f968a46aeb9c27eeb7af3a8"),
    "swarm.json": (
        "8c97f2a4391e00da065db8b56076a4b8acd9f2cf69ae0b555f9dc5359e9679a0",
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
