"""Deterministic discrete-event wifi environment.

The world owns the clock, the visibility graph, and the event queue; protocol
nodes only see events and return actions. Ties in event time break by
insertion order, so a (scenario, seed) pair fully determines the trace.
"""

import heapq
import random
from typing import NamedTuple

from .actions import HopTo, Note, RequestScan, Send, StartTimer
from .core import parse_ssid
from .frames import JOIN_PHASE_KINDS, Frame
from .metrics import MetricsCollector
from .node import Node, ROOT
from .params import Params


class TraceRecord(NamedTuple):
    """One trace note, as `World.trace` hands it out."""
    time: float
    device: int
    kind: str
    details: dict


class World:
    def __init__(self, params: Params | None = None, seed: int = 0):
        self.p = params or Params()
        self.rng = random.Random(seed)
        self.clock = 0.0
        self._seq = 0
        self.nodes: dict[int, Node] = {}
        self.vis: dict[int, set] = {}
        self.queue: list = []
        # One flat tuple per note, (clock, device, kind, key_no, *values),
        # where `key_no` numbers the note's key tuple in `_keys`. A tuple of
        # scalars is untracked by the cyclic collector at its first
        # collection, so full collections do not walk the trace; one holding
        # the key tuple itself could stay tracked a collection longer.
        self._log: list[tuple] = []
        self._keys: dict[tuple, int] = {}   # key tuple -> its number
        self.metrics = MetricsCollector()

    # ----------------------------------------------------------- construction

    def add_device(self, device: int, files=()) -> Node:
        if device in self.nodes:
            raise ValueError(f"duplicate device id {device}")
        node = Node(device, self.p, files)
        node.active = False  # inactive until its arrival event
        self.nodes[device] = node
        self.vis.setdefault(device, set())
        return node

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("no self edges")
        self.vis.setdefault(a, set()).add(b)
        self.vis.setdefault(b, set()).add(a)

    def schedule(self, time: float, kind: str, **data) -> None:
        self._seq += 1
        heapq.heappush(self.queue, (time, self._seq, kind, data))

    # ---------------------------------------------------------------- queries

    def visible_roots(self, device: int) -> list:
        out = []
        for other in self.vis.get(device, ()):
            node = self.nodes[other]
            if node.active and node.role == ROOT and node.ssid:
                out.append(node.ssid)
        return sorted(out)

    def find_root(self, ssid: str):
        """The active root hosting `ssid`, or None. A rendered SSID names its
        root's device id, and only that device can host it."""
        parsed = parse_ssid(ssid)
        node = self.nodes.get(parsed.root_id) if parsed is not None else None
        if node is not None and node.active and node.role == ROOT and node.ssid == ssid:
            return parsed.root_id
        return None

    # --------------------------------------------------------------- stepping

    def step(self) -> bool:
        if not self.queue:
            return False
        time, _, kind, data = heapq.heappop(self.queue)
        self.clock = time
        self._dispatch(kind, data)
        return True

    def run_until(self, t_end: float) -> None:
        while self.queue and self.queue[0][0] <= t_end:
            self.step()
        self.clock = max(self.clock, t_end)

    def _note(self, device: int, kind: str, details: dict) -> None:
        key_no = self._keys.setdefault(tuple(details), len(self._keys))
        self._log.append((self.clock, device, kind, key_no, *details.values()))
        self.metrics.observe(self.clock, device, kind, details)

    def _dispatch(self, kind: str, data: dict) -> None:
        if kind == "arrive":
            device = data["device"]
            node = self.nodes[device]
            node.active = True
            self._emit(device, node.on_arrive(self.clock))

        elif kind == "depart":
            device = data["device"]
            node = self.nodes[device]
            if not node.active:
                return
            self._emit(device, node.on_depart(self.clock, data["silent"]))
            delay = 0.0 if data["silent"] else 2 * self.p.link_latency
            self.schedule(self.clock + delay, "deactivate", device=device)

        elif kind == "deactivate":
            self.nodes[data["device"]].active = False

        elif kind == "scan":
            device = data["device"]
            node = self.nodes[device]
            if node.active:
                self._emit(device, node.on_scan(self.clock, self.visible_roots(device)))

        elif kind == "frame":
            self._deliver(data["frame"])

        elif kind == "timer":
            device = data["device"]
            node = self.nodes[device]
            if node.active:
                self._emit(device, node.on_timer(self.clock, data["tag"]))

        elif kind == "hopdone":
            device = data["device"]
            node = self.nodes[device]
            if not node.active or data["term"] != node.term:
                return   # the device left since the hop began
            target = data["target"]
            root = self.find_root(target)
            if root is not None and root in self.vis.get(device, ()):
                self._note(device, "hop-complete", {"target": target})
                self._emit(device, node.on_hop_complete(self.clock, target))
            else:
                self._note(device, "hop-failed", {"target": target, "at": "arrival"})
                self._emit(device, node.on_hop_failed(self.clock, target))

        elif kind == "search":
            device = data["device"]
            node = self.nodes[device]
            self._note(device, "script", {"action": "search", "query": data["query"]})
            if node.active:
                self._emit(device, node.on_user_search(self.clock, data["query"],
                                                       data.get("by", "name")))

        elif kind == "download":
            device = data["device"]
            node = self.nodes[device]
            self._note(device, "script", {"action": "download",
                                          "file": data["file_id"].short})
            if node.active:
                self._emit(device, node.on_user_download(self.clock, data["file_id"]))

        else:
            raise ValueError(f"unknown event kind {kind}")

    # --------------------------------------------------------------- delivery

    def _link_ok(self, frame: Frame) -> tuple:
        src = self.nodes.get(frame.src)
        dst = self.nodes.get(frame.dst)
        if dst is None or not dst.active or src is None or not src.active:
            return False, "peer-gone"
        if frame.kind in JOIN_PHASE_KINDS:
            if frame.dst in self.vis.get(frame.src, ()):
                return True, ""
            return False, "out-of-range"
        if src.attached is not None and src.attached == dst.attached:
            return True, ""
        return False, "different-hotspot"

    def _deliver(self, frame: Frame) -> None:
        ok, reason = self._link_ok(frame)
        if not ok:
            self._note(frame.dst, "drop", {"frame": frame.kind.name,
                                           "src": frame.src, "reason": reason})
            return
        self._note(frame.dst, "recv", {"frame": frame.kind.name, "src": frame.src})
        self._emit(frame.dst, self.nodes[frame.dst].on_frame(self.clock, frame))

    def _emit(self, device: int, outputs) -> None:
        node = self.nodes[device]
        for act in outputs:
            if isinstance(act, Send):
                frame = act.frame
                self.metrics.on_frame_emit(frame)
                details = {"frame": frame.kind.name, "dst": frame.dst}
                sid = frame.payload.get("session_id")
                if sid:
                    details["session"] = sid
                ok, reason = self._link_ok(frame)
                if ok:
                    self._note(device, "send", details)
                    self.schedule(self.clock + self.p.link_latency, "frame",
                                  frame=frame)
                else:
                    details["reason"] = reason
                    self._note(device, "undeliverable", details)

            elif isinstance(act, HopTo):
                root = self.find_root(act.target)
                valid = (node.role != ROOT and root is not None
                         and root in self.vis.get(device, ()))
                if valid:
                    details = {"target": act.target, "label": act.label}
                    if act.session_id:
                        details["session"] = act.session_id
                    self._note(device, "hop-start", details)
                    node.detach()
                    self.schedule(self.clock + self.p.hop_latency, "hopdone",
                                  device=device, target=act.target, term=node.term)
                else:
                    self._note(device, "hop-failed", {"target": act.target,
                                                      "at": "departure"})
                    self._emit(device, node.on_hop_failed(self.clock, act.target))

            elif isinstance(act, StartTimer):
                self.schedule(self.clock + act.delay, "timer", device=device,
                              tag=act.tag)

            elif isinstance(act, RequestScan):
                self.schedule(self.clock, "scan", device=device)

            elif isinstance(act, Note):
                self._note(device, act.kind, act.details)

            else:
                raise TypeError(f"unknown action {act!r}")

    # ------------------------------------------------------------------ trace

    @property
    def trace(self) -> list:
        """Every note so far as a `TraceRecord`, built afresh on each read."""
        keys = list(self._keys)
        return [TraceRecord(time, device, kind, dict(zip(keys[key_no], values)))
                for time, device, kind, key_no, *values in self._log]

    def trace_lines(self) -> list:
        """The trace as `pear2pear run --trace` writes it: per note, the time,
        `dev=<device>`, the kind, then `key=value` for each detail in key
        order, with floats to six places and bools as true/false."""
        # per key number, its (key, index in the note) pairs in key order
        plans = [sorted((key, i) for i, key in enumerate(keys, 4)) for keys in self._keys]
        lines = []
        for rec in self._log:
            parts = [f"{rec[0]:.6f}", f"dev={rec[1]}", rec[2]]
            for key, i in plans[rec[3]]:
                value = rec[i]
                if isinstance(value, float):
                    value = f"{value:.6f}"
                elif isinstance(value, bool):
                    value = "true" if value else "false"
                parts.append(f"{key}={value}")
            lines.append(" ".join(parts))
        return lines
