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
GOLDEN = {
    "chain.json": (
        "fea47bc689db4f0efd5501bbe0db350847ca8e5813c47ef8d7fdf03a97948e2b",
        "fcd6faadc8328d887d22a20b51221bc372c5e3e7460dde89189899967d5c89a7"),
    "intra_subnet.json": (
        "8e011d89078f41676b75e13cfe2230d88fcf1eb251a078ce9c709c68487e1f6b",
        "6840d7701cd87e62ec08f089d94c7a47e772b40a49b6489675081cdc997305ca"),
    "multi_source.json": (
        "9fdcc6344b9d16915b39e52d3c179a33847d576708b641b67fb0bf82e294f8a3",
        "38007262784af1a67ea4220ab18a1d68136f9c9b6f968a46aeb9c27eeb7af3a8"),
    "swarm.json": (
        "05822570cd8dc41c1dd7f276ef996d69e18fac0bfabc6e838947d3c0fa621c40",
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
