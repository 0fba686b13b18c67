"""Deterministic discrete-event wifi environment.

The world owns the clock, the visibility graph, and the event queue; protocol
nodes only see events and return actions. Ties in event time break by
insertion order, so a (scenario, seed) pair fully determines the trace.
"""

import heapq
import random
from array import array
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
        # The trace, in columns: one clock per note in `_times`, and in
        # `_notes`, per note, its shape number, its device, then its detail
        # values in key order. A shape is a note's `(kind, *keys)`, numbered
        # in `_shapes`. A note costs an 8 B clock and an 8 B slot for each of
        # its scalars, and no object of its own that the collector would
        # track: about 41-45 B on the bench workloads, where a tuple per note
        # took about 112 B with its list slot and its share of clock floats.
        self._times = array("d")
        self._notes: list = []
        self._shapes: dict[tuple, int] = {}
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
        key = (kind, *details)
        try:
            shape = self._shapes[key]
        except KeyError:
            shape = self._shapes[key] = len(self._shapes)
        self._times.append(self.clock)
        notes = self._notes
        notes.append(shape)
        notes.append(device)
        notes += details.values()
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
        # per shape number: kind, keys, and the note's width in `_notes`
        plans = [(kind, keys, len(keys) + 2) for kind, *keys in self._shapes]
        notes = self._notes
        records = []
        i = 0
        for time in self._times:
            kind, keys, width = plans[notes[i]]
            records.append(TraceRecord(time, notes[i + 1], kind,
                                       dict(zip(keys, notes[i + 2:i + width]))))
            i += width
        return records

    def trace_lines(self) -> list:
        """The trace as `pear2pear run --trace` writes it: per note, the time,
        `dev=<device>`, the kind, then `key=value` for each detail in key
        order, with floats to six places and bools as true/false."""
        # per shape number: a template over (time, device, *values) that puts
        # the values in key order, and the note's width in `_notes`
        plans = []
        for kind, *keys in self._shapes:
            fields = "".join(f" {_braced(key)}={{{i}}}"
                             for key, i in sorted((key, i) for i, key in enumerate(keys, 2)))
            plans.append((f"{{0}} dev={{1}} {_braced(kind)}{fields}".format, len(keys) + 2))
        notes = self._notes
        # The `_notes` indices of values `_rendered` must convert, found by
        # C-level searches, then a sentinel: most notes hold none.
        types = list(map(type, notes))
        odd = []
        for cls in set(types) - _PLAIN:
            at = -1
            for _ in range(types.count(cls)):
                at = types.index(cls, at + 1)
                odd.append(at)
        odd = iter(sorted(odd) + [len(notes)])
        next_odd = next(odd)
        lines = []
        last = stamp = None
        i = 0
        for time in self._times:
            render, width = plans[notes[i]]
            if time != last or not time:   # -0.0 == 0.0 but renders apart
                last, stamp = time, f"{time:.6f}"
            j = i + width
            if next_odd < j:
                while next_odd < j:
                    next_odd = next(odd)
                lines.append(render(stamp, notes[i + 1], *map(_rendered, notes[i + 2:j])))
            else:
                lines.append(render(stamp, *notes[i + 1:j]))
            i = j
        return lines


# Value types that a template renders as they are; any other goes through
# `_rendered` first.
_PLAIN = frozenset((str, int))


def _braced(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


def _rendered(value):
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return value
