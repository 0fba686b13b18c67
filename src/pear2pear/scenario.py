"""Scenario files: load, validate, and build a runnable world.

A scenario is one JSON document with the device table, the visibility edge
list, a time-ordered action script, parameter overrides and a seed. File
contents are either inline ("text"/"hex") or generator-specified
("seed" + "size") so large-file tests need no binary fixtures.
"""

import json
import math
import random
import sys
from dataclasses import dataclass, field, fields

from .core import DEVICE_ID_LIMIT, FileId, compute_file_id
from .params import Params
from .sim import World


class ScenarioError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class Scenario:
    seed: int = 0
    params: Params = field(default_factory=Params)
    devices: list = field(default_factory=list)   # (device_id, [(name, bytes, FileId)])
    edges: list = field(default_factory=list)
    script: list = field(default_factory=list)
    until: float = 60.0


def _content_of(raw: dict, path: str) -> bytes:
    has_text = "text" in raw
    has_hex = "hex" in raw
    has_gen = "seed" in raw or "size" in raw
    if sum([has_text, has_hex, has_gen]) != 1:
        raise ScenarioError(path, "file needs exactly one of: text, hex, seed+size")
    if has_text:
        if not isinstance(raw["text"], str):
            raise ScenarioError(f"{path}.text", "text must be a string")
        return raw["text"].encode("utf-8")
    if has_hex:
        if not isinstance(raw["hex"], str):
            raise ScenarioError(f"{path}.hex", "hex must be a string")
        try:
            return bytes.fromhex(raw["hex"])
        except ValueError:
            raise ScenarioError(path, "invalid hex content")
    if "seed" not in raw or "size" not in raw:
        raise ScenarioError(path, "generated content needs both seed and size")
    if not _is_int(raw["seed"]):
        raise ScenarioError(f"{path}.seed", "seed must be an integer")
    size = raw["size"]
    if not _is_int(size) or size < 0:
        raise ScenarioError(path, "size must be a non-negative integer")
    return random.Random(raw["seed"]).randbytes(size)


def _is_int(value) -> bool:
    """A JSON integer: JSON true/false load as bool, which is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _printable(text: str, path: str) -> None:
    """A name or query lands in one `--trace` line; a control character such
    as a newline would split it."""
    if not text.isprintable():
        raise ScenarioError(path, f"must hold printable characters only, got {text!r}")


def _list(doc: dict, key: str, path: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ScenarioError(path, f"{key} must be a list")
    return value


def _time(value, path: str) -> float:
    """A simulated time: a finite, non-negative JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ScenarioError(path, f"time must be a finite number, got {value!r}")
    if value < 0:
        raise ScenarioError(path, f"time must not be negative, got {value!r}")
    return float(value)


# 0 has a meaning for these: no delay, always swarm, and no repeats.
_MAY_BE_ZERO = {"link_latency", "hop_latency", "swarm_threshold", "wanted_max"}
# The clock is a float, and a timer re-arms at `now + period`: a shorter
# period could leave the clock where it is, re-arming at one instant for ever.
# 1 us moves the clock for any time below 2**34 s.
MIN_PERIOD = 1e-6


def _params_of(raw) -> Params:
    """$.params: a known field each, an int field a JSON integer and a float
    field a JSON number that a float can hold."""
    if not isinstance(raw, dict):
        raise ScenarioError("$.params", "params must be an object")
    defaults = Params()
    kinds = {f.name: type(getattr(defaults, f.name)) for f in fields(defaults)}
    for key, value in raw.items():
        name = key.lower()
        if name not in kinds:
            raise ScenarioError("$.params", f"unknown parameter: {key}")
        if kinds[name] is int:
            if not _is_int(value):
                raise ScenarioError(f"$.params.{name}",
                                    f"{name} must be an integer, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) \
                or isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ScenarioError(f"$.params.{name}",
                                f"{name} must be a number, got {value!r}")
    return defaults.override(**raw)


def check_params(params: Params) -> None:
    """Every field in its domain: counts positive, periods and timeouts
    finite and at least MIN_PERIOD, latencies finite and not negative. And
    two rules across fields: an idle member, which proves it is alive only
    by its scan reports, scans within every silent_timeout, and its unchanged
    reports, one per beacon period, come within every neighbor_ttl, so that
    the neighbours it sees do not expire between them."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.name in _MAY_BE_ZERO:
            ok, domain = value >= 0, "not negative"
        elif isinstance(value, float):
            ok, domain = value >= MIN_PERIOD, f"at least {MIN_PERIOD}"
        else:
            ok, domain = value > 0, "positive"
        if isinstance(value, float) and not math.isfinite(value):
            ok, domain = False, f"finite and {domain}"
        if not ok:
            raise ScenarioError(f"$.params.{f.name}",
                                f"{f.name} must be {domain}, got {value!r}")
    if params.scan_period >= params.silent_timeout:
        raise ScenarioError("$.params.scan_period",
                            f"scan_period {params.scan_period!r} must be below "
                            f"silent_timeout {params.silent_timeout!r}")
    beacon_period = params.beacon_scans * params.scan_period
    if beacon_period >= params.neighbor_ttl:
        raise ScenarioError("$.params.neighbor_ttl",
                            f"neighbor_ttl {params.neighbor_ttl!r} must exceed the beacon "
                            f"period, {params.beacon_scans:.0f} scan periods ({beacon_period!r})")


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("$", "scenario must be a JSON object")
    sc = Scenario()
    sc.seed = doc.get("seed", 0)
    if not _is_int(sc.seed):
        raise ScenarioError("$.seed", "seed must be an integer")
    sc.params = _params_of(doc.get("params", {}))
    check_params(sc.params)

    ids = set()
    names: dict[str, set] = {}
    for i, dev in enumerate(_list(doc, "devices", "$.devices")):
        path = f"$.devices[{i}]"
        if not isinstance(dev, dict) or "id" not in dev:
            raise ScenarioError(path, "device needs an integer id")
        device = dev["id"]
        if not _is_int(device) or not 0 <= device < DEVICE_ID_LIMIT:
            raise ScenarioError(path, "device id must be an integer in [0, 2**64)")
        if device in ids:
            raise ScenarioError(path, f"duplicate device id {device}")
        ids.add(device)
        files = []
        for j, raw in enumerate(_list(dev, "files", f"{path}.files")):
            fpath = f"{path}.files[{j}]"
            if not isinstance(raw, dict) or "name" not in raw:
                raise ScenarioError(fpath, "file needs a name")
            if not isinstance(raw["name"], str):
                raise ScenarioError(f"{fpath}.name", "name must be a string")
            _printable(raw["name"], f"{fpath}.name")
            content = _content_of(raw, fpath)
            file_id = compute_file_id(content)  # hashed once: the node is handed it
            files.append((raw["name"], content, file_id))
            names.setdefault(raw["name"], set()).add(file_id)
        sc.devices.append((device, files))

    for i, edge in enumerate(_list(doc, "visibility", "$.visibility")):
        path = f"$.visibility[{i}]"
        if (not isinstance(edge, list) or len(edge) != 2
                or not all(_is_int(e) for e in edge)):
            raise ScenarioError(path, "edge must be a pair of device ids")
        if edge[0] not in ids or edge[1] not in ids:
            raise ScenarioError(path, f"edge references undeclared device: {edge}")
        if edge[0] == edge[1]:
            raise ScenarioError(path, "no self edges")
        sc.edges.append((edge[0], edge[1]))

    last_time = None
    max_time = 0.0
    for i, row in enumerate(_list(doc, "script", "$.script")):
        path = f"$.script[{i}]"
        if not isinstance(row, dict) or "time" not in row or "action" not in row:
            raise ScenarioError(path, "script row needs time and action")
        t = _time(row["time"], f"{path}.time")
        if last_time is not None and t < last_time:
            raise ScenarioError(path, "script times must be nondecreasing")
        last_time = t
        max_time = max(max_time, t)
        action = row["action"]
        device = row.get("device")
        if not _is_int(device) or device not in ids:
            raise ScenarioError(path, f"undeclared device: {device}")
        if action == "arrive":
            sc.script.append({"time": t, "action": "arrive", "device": device})
        elif action == "depart":
            sc.script.append({"time": t, "action": "depart", "device": device,
                              "silent": bool(row.get("silent", False))})
        elif action == "search":
            if "query" not in row:
                raise ScenarioError(path, "search needs a query")
            if not isinstance(row["query"], str):
                raise ScenarioError(f"{path}.query", "query must be a string")
            _printable(row["query"], f"{path}.query")
            by = row.get("by", "name")
            if by not in ("name", "id"):
                raise ScenarioError(f"{path}.by", f"by must be name or id, got {by!r}")
            sc.script.append({"time": t, "action": "search", "device": device,
                              "query": row["query"], "by": by})
        elif action == "download":
            ref = row.get("file")
            if not isinstance(ref, str):
                raise ScenarioError(path, "download needs a file reference")
            _printable(ref, f"{path}.file")
            file_id = _resolve_file(ref, names, path)
            sc.script.append({"time": t, "action": "download", "device": device,
                              "file_id": file_id})
        else:
            raise ScenarioError(path, f"unknown action: {action}")

    sc.until = _time(doc["until"], "$.until") if "until" in doc else max_time + 60.0
    return sc


def _resolve_file(ref: str, names: dict, path: str) -> FileId:
    if ref.startswith("id:"):
        try:
            return FileId.from_hex(ref[3:])
        except ValueError:
            raise ScenarioError(path, f"bad file id: {ref}")
    fids = names.get(ref)
    if not fids:
        raise ScenarioError(path, f"file reference matches nothing: {ref}")
    if len(fids) > 1:
        raise ScenarioError(path, f"file reference is ambiguous: {ref}")
    return next(iter(fids))


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}:{exc.lineno}", exc.msg)
    return parse_scenario(doc)


def build_world(sc: Scenario, seed: int | None = None) -> World:
    world = World(params=sc.params, seed=sc.seed if seed is None else seed)
    scripted_arrivals = {row["device"] for row in sc.script
                        if row["action"] == "arrive"}
    for device, files in sc.devices:
        world.add_device(device, files)
        if device not in scripted_arrivals:
            world.schedule(0.0, "arrive", device=device)
    for a, b in sc.edges:
        world.add_edge(a, b)
    for row in sc.script:
        data = {k: v for k, v in row.items() if k not in ("time", "action")}
        world.schedule(row["time"], row["action"], **data)
    return world


def run_scenario(sc: Scenario, seed: int | None = None,
                 until: float | None = None) -> World:
    world = build_world(sc, seed=seed)
    world.run_until(sc.until if until is None else until)
    return world
