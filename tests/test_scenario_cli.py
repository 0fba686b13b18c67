"""Scenario loading/validation and the CLI contract."""

import hashlib
import json
import pathlib
from dataclasses import fields

import pytest

from pear2pear import core, scenario
from pear2pear.cli import main
from pear2pear.params import Params
from pear2pear.scenario import (
    ScenarioError, build_world, load_scenario, parse_scenario, run_scenario,
)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _minimal(**extra):
    doc = {
        "devices": [
            {"id": 1},
            {"id": 2, "files": [{"name": "a.txt", "text": "hello"}]},
        ],
        "visibility": [[1, 2]],
        "script": [],
        "until": 10.0,
    }
    doc.update(extra)
    return doc


def test_parse_minimal():
    sc = parse_scenario(_minimal())
    assert len(sc.devices) == 2
    assert sc.until == 10.0


@pytest.mark.parametrize("mutate,path_prefix", [
    (lambda d: d["devices"].append({"id": 1}), "$.devices[2]"),
    (lambda d: d["devices"].append({"files": []}), "$.devices[2]"),
    (lambda d: d["devices"].append({"id": -1}), "$.devices[2]"),
    (lambda d: d["devices"].append({"id": 2**64}), "$.devices[2]"),
    (lambda d: d["visibility"].append([1, 9]), "$.visibility[1]"),
    (lambda d: d["visibility"].append([1, 1]), "$.visibility[1]"),
    (lambda d: d["script"].append({"time": 1, "action": "explode", "device": 1}),
     "$.script[0]"),
    (lambda d: d["script"].append({"time": 1, "action": "download", "device": 9,
                                   "file": "a.txt"}), "$.script[0]"),
    (lambda d: d["script"].append({"time": 1, "action": "search", "device": 1}),
     "$.script[0]"),
    (lambda d: d.update(params={"bogus_knob": 1}), "$.params"),
])
def test_validation_errors_carry_paths(mutate, path_prefix):
    doc = _minimal()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path.startswith(path_prefix)


def _search_at(time, **extra):
    return {"time": time, "action": "search", "device": 1, "query": "x", **extra}


def test_non_numeric_time_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_minimal(script=[_search_at("x")]))
    assert err.value.path == "$.script[0].time"


def test_non_numeric_until_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_minimal(until="soon"))
    assert err.value.path == "$.until"


def test_negative_times_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_minimal(script=[_search_at(-1.0)]))
    assert err.value.path == "$.script[0].time"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_minimal(until=-5))
    assert err.value.path == "$.until"


def test_unknown_search_by_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_minimal(script=[_search_at(1.0, by="bogus")]))
    assert err.value.path == "$.script[0].by"


def test_non_string_text_rejected():
    doc = _minimal()
    doc["devices"][1]["files"][0]["text"] = 42
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path == "$.devices[1].files[0].text"


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d["devices"][1]["files"].append({"name": "a\nb x=1.ogg", "text": "y"}),
     "$.devices[1].files[1].name"),
    (lambda d: d["script"].append({"time": 1, "action": "download", "device": 1,
                                   "file": "a.txt\r"}), "$.script[0].file"),
    (lambda d: d["script"].append(_search_at(1, query="a\nb x=1")), "$.script[0].query"),
    (lambda d: d["script"].append(_search_at(1, query="\x1b[2J")), "$.script[0].query"),
    (lambda d: d["script"].append(_search_at(1, query=7)), "$.script[0].query"),
], ids=["newline-in-name", "carriage-return-in-file", "newline-in-query",
        "escape-in-query", "non-string-query"])
def test_a_name_or_query_that_would_split_a_trace_line_is_rejected(mutate, path):
    # Each lands verbatim in a --trace line.
    doc = _minimal()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path == path


def test_spaces_in_names_and_queries_are_kept():
    doc = _minimal()
    doc["devices"][1]["files"][0]["name"] = "a b.txt"
    doc["script"] = [_search_at(1, query="a b"),
                     {"time": 2, "action": "download", "device": 1, "file": "a b.txt"}]
    sc = parse_scenario(doc)
    assert sc.devices[1][1][0][0] == "a b.txt"
    assert sc.script[0]["query"] == "a b"


def _generated(size):
    return {"name": "g.bin", "seed": 1, "size": size}


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d.update(devices=3), "$.devices"),
    (lambda d: d.update(visibility=7), "$.visibility"),
    (lambda d: d.update(script=5), "$.script"),
    (lambda d: d["devices"][1].update(files=5), "$.devices[1].files"),
    # JSON true/false are not integers, though Python's bool is an int
    (lambda d: d["devices"][0].update(id=True), "$.devices[0]"),
    (lambda d: d["visibility"].append([True, 2]), "$.visibility[1]"),
    (lambda d: d["script"].append({"time": 1, "action": "search", "device": True,
                                   "query": "x"}), "$.script[0]"),
    (lambda d: d["devices"][1]["files"].append(_generated(True)), "$.devices[1].files[1]"),
    (lambda d: d["devices"][1]["files"].append({"name": "h.bin", "hex": 255}),
     "$.devices[1].files[1].hex"),
    (lambda d: d["devices"][1]["files"].append({"name": "g.bin", "seed": [1], "size": 4}),
     "$.devices[1].files[1].seed"),
    (lambda d: d["devices"][1]["files"].append({"name": ["b.txt"], "text": "x"}),
     "$.devices[1].files[1].name"),
    # a zero ping_interval re-arms the ping timer at the same instant forever
    (lambda d: d.update(params={"ping_interval": 0}), "$.params.ping_interval"),
    # idle members prove liveness only by scan reports, one per scan_period
    (lambda d: d.update(params={"scan_period": 30}), "$.params.scan_period"),
    # and one lost beacon earns a PING a ping cycle before the purge
    (lambda d: d.update(params={"scan_period": 25}), "$.params.scan_period"),
    # an idle member's unchanged reports, one per beacon period (2 scan
    # periods at the defaults), refresh the neighbours it sees
    (lambda d: d.update(params={"neighbor_ttl": 20}), "$.params.neighbor_ttl"),
    (lambda d: d.update(params={"scan_period": 7, "neighbor_ttl": 14}), "$.params.neighbor_ttl"),
    (lambda d: d.update(params={"silent_timeout": "nan"}), "$.params.silent_timeout"),
    # block_size 0 divides by zero; the others ran on with nonsense
    (lambda d: d.update(params={"block_size": 0}), "$.params.block_size"),
    (lambda d: d.update(params={"block_size": -5}), "$.params.block_size"),
    (lambda d: d.update(params={"hop_latency": -1}), "$.params.hop_latency"),
    (lambda d: d.update(params={"link_latency": "nan"}), "$.params.link_latency"),
    # an int field was coerced from a string, a fraction or a bool
    (lambda d: d.update(params={"block_size": "4096"}), "$.params.block_size"),
    (lambda d: d.update(params={"block_size": 4096.7}), "$.params.block_size"),
    (lambda d: d.update(seed=True), "$.seed"),
    # a Params method, not a field
    (lambda d: d.update(params={"override": 1}), "$.params"),
    # a period too short to move the clock re-armed its timer at one instant
    # for ever; a JSON integer beyond a float's range raised OverflowError
    (lambda d: d.update(params={"scan_period": 5e-324}), "$.params.scan_period"),
    (lambda d: d.update(params={"ping_interval": 10**400}), "$.params.ping_interval"),
], ids=["devices-not-list", "visibility-not-list", "script-not-list", "files-not-list",
        "bool-device-id", "bool-edge-endpoint", "bool-script-device", "bool-size",
        "non-string-hex", "non-integer-seed", "non-string-name", "zero-ping-interval",
        "scan-period-not-below-silent-timeout", "scan-period-leaves-no-ping-cycle",
        "beacon-period-not-below-neighbor-ttl",
        "beacon-period-of-7s-scans-not-below-neighbor-ttl", "nan-silent-timeout",
        "zero-block-size", "negative-block-size", "negative-hop-latency", "nan-link-latency",
        "string-block-size", "fractional-block-size", "bool-seed", "method-as-param",
        "denormal-scan-period", "int-beyond-float-ping-interval"])
def test_malformed_shapes_rejected(mutate, path):
    doc = _minimal()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path == path


@pytest.mark.parametrize("name", [f.name for f in fields(Params)])
def test_every_param_has_a_domain(name):
    may_be_zero = name in ("link_latency", "hop_latency", "swarm_threshold", "wanted_max")
    bad = [-1, True] + ([] if may_be_zero else [0])
    if isinstance(getattr(Params(), name), float):
        bad += [float("inf"), float("nan"), "1"]
    else:
        bad += [1.0, "1"]
    for value in bad:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(_minimal(params={name: value}))
        assert err.value.path == f"$.params.{name}", value


def test_script_times_must_be_nondecreasing():
    doc = _minimal(script=[
        {"time": 5, "action": "search", "device": 1, "query": "x"},
        {"time": 4, "action": "search", "device": 1, "query": "x"},
    ])
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_file_content_forms_are_exclusive():
    doc = _minimal()
    doc["devices"][1]["files"][0]["hex"] = "00ff"
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_generated_content_is_stable():
    doc = _minimal()
    doc["devices"][1]["files"] = [{"name": "g.bin", "seed": 9, "size": 64}]
    a = parse_scenario(doc).devices[1][1][0][1]
    b = parse_scenario(doc).devices[1][1][0][1]
    assert a == b and len(a) == 64


def test_ambiguous_name_reference_rejected():
    doc = _minimal()
    doc["devices"][0]["files"] = [{"name": "a.txt", "text": "different"}]
    doc["script"] = [{"time": 1, "action": "download", "device": 1, "file": "a.txt"}]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "ambiguous" in str(err.value)


def test_download_by_explicit_id():
    doc = _minimal()
    fid = hashlib.sha256(b"hello").hexdigest()
    doc["script"] = [{"time": 1, "action": "download", "device": 1,
                      "file": f"id:{fid}"}]
    sc = parse_scenario(doc)
    assert sc.script[0]["file_id"].hex == fid


def test_each_file_is_hashed_once_to_set_up(monkeypatch):
    hashed = []

    def counted(content):
        hashed.append(content)
        return core.FileId(hashlib.sha256(content).digest())

    monkeypatch.setattr(core, "compute_file_id", counted)
    monkeypatch.setattr(scenario, "compute_file_id", counted)
    doc = _minimal()
    doc["devices"][0]["files"] = [{"name": "b.txt", "text": "hello"},
                                  {"name": "c.bin", "seed": 9, "size": 64}]
    sc = parse_scenario(doc)
    world = build_world(sc)
    assert len(hashed) == 3
    for device, files in sc.devices:
        for name, content, file_id in files:
            assert file_id.digest == hashlib.sha256(content).digest()
            assert name in world.nodes[device].metas[file_id].names


# --- corpus ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_corpus_scenarios_load_and_succeed(name):
    sc = load_scenario(str(SCENARIOS / name))
    world = run_scenario(sc)
    assert world.metrics.all_succeeded()


# --- CLI ------------------------------------------------------------------

def test_cli_validate_ok(capsys):
    assert main(["validate", str(SCENARIOS / "intra_subnet.json")]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"devices": [{"id": 1}, {"id": 1}]}))
    assert main(["validate", str(bad)]) == 2
    assert "$.devices[1]" in capsys.readouterr().err


def test_cli_validate_rejects_a_neighbor_ttl_within_a_beacon_period(tmp_path, capsys):
    # neighbours would flap: they expire between the unchanged reports that list them
    doc = tmp_path / "flap.json"
    doc.write_text(json.dumps(_minimal(params={"neighbor_ttl": 15})))
    assert main(["validate", str(doc)]) == 2
    err = capsys.readouterr().err
    assert "$.params.neighbor_ttl" in err and "beacon period" in err
    doc.write_text(json.dumps(_minimal(params={"neighbor_ttl": 21})))
    assert main(["validate", str(doc)]) == 0


def test_cli_missing_file(capsys):
    assert main(["run", "/nonexistent.json"]) == 2


def test_cli_run_writes_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    metrics = tmp_path / "m.json"
    code = main(["run", str(SCENARIOS / "intra_subnet.json"),
                 "--trace", str(trace), "--metrics", str(metrics)])
    assert code == 0
    out = capsys.readouterr().out
    assert "success rate: 1.000" in out
    assert trace.read_text().splitlines()
    report = json.loads(metrics.read_text())
    assert report["aggregates"]["downloads"] == 1
    assert report["downloads"][0]["success"] is True


def test_cli_failed_download_exits_nonzero(tmp_path, capsys):
    # the only holder never arrives, so the scripted download cannot finish
    doc = {
        "devices": [
            {"id": 1},
            {"id": 2},
            {"id": 3, "files": [{"name": "gone.txt", "text": "not here"}]},
        ],
        "visibility": [[1, 2]],
        "script": [
            {"time": 999.0, "action": "arrive", "device": 3},
            {"time": 5.0, "action": "download", "device": 2, "file": "gone.txt"},
        ],
        "until": 60.0,
    }
    # script times must be nondecreasing; put the arrival last
    doc["script"].sort(key=lambda r: r["time"])
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--quiet"]) == 1


def test_cli_set_overrides_params(tmp_path, capsys):
    code = main(["run", str(SCENARIOS / "intra_subnet.json"), "--quiet",
                 "--set", "BLOCK_SIZE=512"])
    assert code == 0
    assert main(["run", str(SCENARIOS / "intra_subnet.json"),
                 "--set", "no_such=1"]) == 2
    assert main(["run", str(SCENARIOS / "intra_subnet.json"),
                 "--set", "BLOCK_SIZE=0"]) == 2


def test_cli_trace_is_deterministic(tmp_path):
    outs = []
    for i in (0, 1):
        trace = tmp_path / f"t{i}.txt"
        main(["run", str(SCENARIOS / "chain.json"), "--quiet",
              "--trace", str(trace)])
        outs.append(trace.read_bytes())
    assert outs[0] == outs[1]
