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
GOLDEN = {
    "chain.json": (
        "0b113fdf10ff72a3d00851ec3cd8fc895d953b6ff168648cca023720735b5bcb",
        "fcd6faadc8328d887d22a20b51221bc372c5e3e7460dde89189899967d5c89a7"),
    "intra_subnet.json": (
        "cca32e827528f9c331f06cd08cf479f7994b7778b20afb4b30f8f477ce5f35d6",
        "6840d7701cd87e62ec08f089d94c7a47e772b40a49b6489675081cdc997305ca"),
    "multi_source.json": (
        "33107394b0bccea330b9887ff86fb2dfb7906fe099ee861dea39326f0b3c699d",
        "38007262784af1a67ea4220ab18a1d68136f9c9b6f968a46aeb9c27eeb7af3a8"),
    "swarm.json": (
        "9018696db43ca7ba623995b1e2bb78a43d59e62d6df9820a071b91e1f28ee839",
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
