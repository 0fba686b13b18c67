"""Deterministic discrete-event wifi environment.

The world owns the clock, the visibility graph, and the event queue; protocol
nodes only see events and return actions. Ties in event time break by
insertion order, so a scenario fully determines the trace.
"""

import functools
import heapq
from array import array
from typing import NamedTuple

from .actions import HopTo, Note, RequestScan, StartTimer
from .core import parse_ssid
from .frames import JOIN_PHASE_KINDS, Frame, FrameKind
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
    def __init__(self, params: Params | None = None):
        self.p = params or Params()
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
        # Frame notes' shapes come first: `_emit` and `_deliver` write them
        # without a lookup.
        self._shapes: dict[tuple, int] = {
            ("recv", "frame", "src"): _RECV, ("send", "frame", "dst"): _SEND,
            ("send", "frame", "dst", "session"): _SEND_SESSION}
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
        """Queue an event of `kind`, a key of `_KINDS`, whose handler takes
        `data` as keyword arguments. An unknown kind is refused here."""
        try:
            handler = self._KINDS[kind]
        except KeyError:
            raise ValueError(f"unknown event kind {kind}") from None
        self._push(time, functools.partial(handler, self, **data), ())

    def _push(self, time: float, handler, args: tuple) -> None:
        """Queue `handler(*args)` at `time`, after every event queued for it."""
        self._seq += 1
        heapq.heappush(self.queue, (time, self._seq, handler, args))

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

    def _in_range(self, device: int, ssid: str) -> bool:
        """Whether `device` sees the active root hosting `ssid`."""
        root = self.find_root(ssid)
        return root is not None and root in self.vis.get(device, ())

    # --------------------------------------------------------------- stepping

    def step(self) -> bool:
        if not self.queue:
            return False
        time, _, handler, args = heapq.heappop(self.queue)
        self.clock = time
        handler(*args)
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
        self._shaped_note(shape, device, kind, details)

    def _shaped_note(self, shape: int, device: int, kind: str, details: dict) -> None:
        """`_note` for a caller that knows the note's shape number."""
        self._times.append(self.clock)
        notes = self._notes
        notes.append(shape)
        notes.append(device)
        notes += details.values()
        self.metrics.observe(self.clock, device, kind, details)

    # ----------------------------------------------------------------- events
    # One handler per event kind, queued with its arguments.

    def _arrive(self, device: int) -> None:
        node = self.nodes[device]
        node.active = True
        self._emit(node, node.on_arrive(self.clock))

    def _depart(self, device: int, silent: bool) -> None:
        node = self.nodes[device]
        if not node.active:
            return
        self._emit(node, node.on_depart(self.clock, silent))
        delay = 0.0 if silent else 2 * self.p.link_latency
        self._push(self.clock + delay, self._deactivate, (device,))

    def _deactivate(self, device: int) -> None:
        self.nodes[device].active = False

    def _scan(self, device: int) -> None:
        node = self.nodes[device]
        if node.active:
            self._emit(node, node.on_scan(self.clock, self.visible_roots(device)))

    def _timer(self, device: int, tag: tuple) -> None:
        node = self.nodes[device]
        if node.active:
            self._emit(node, node.on_timer(self.clock, tag))

    def _hop_done(self, device: int, target: str, term: int) -> None:
        node = self.nodes[device]
        if not node.active or term != node.term:
            return   # the device left since the hop began
        if self._in_range(device, target):
            self._note(device, "hop-complete", {"target": target})
            self._emit(node, node.on_hop_complete(self.clock, target))
        else:
            self._note(device, "hop-failed", {"target": target, "at": "arrival"})
            self._emit(node, node.on_hop_failed(self.clock, target))

    def _search(self, device: int, query: str, by: str = "name") -> None:
        node = self.nodes[device]
        self._note(device, "script", {"action": "search", "query": query})
        if node.active:
            self._emit(node, node.on_user_search(self.clock, query, by))

    def _download(self, device: int, file_id) -> None:
        node = self.nodes[device]
        self._note(device, "script", {"action": "download", "file": file_id.short})
        if node.active:
            self._emit(node, node.on_user_download(self.clock, file_id))

    # --------------------------------------------------------------- delivery

    def _link_loss(self, frame: Frame):
        """Why `frame` would be lost on the radio now, or None if it gets through."""
        src = self.nodes.get(frame.src)
        dst = self.nodes.get(frame.dst)
        if dst is None or not dst.active or src is None or not src.active:
            return "peer-gone"
        if frame.kind in JOIN_PHASE_KINDS:
            return None if frame.dst in self.vis.get(frame.src, ()) else "out-of-range"
        if src.attached is not None and src.attached == dst.attached:
            return None
        return "different-hotspot"

    def _deliver(self, frame: Frame) -> None:
        details = {"frame": _FRAME_NAMES[frame.kind], "src": frame.src}
        reason = self._link_loss(frame)
        if reason is not None:
            details["reason"] = reason
            self._note(frame.dst, "drop", details)
            return
        self._shaped_note(_RECV, frame.dst, "recv", details)
        node = self.nodes[frame.dst]
        self._emit(node, node.on_frame(self.clock, frame))

    def _emit(self, node: Node, outputs) -> None:
        device = node.device
        for act in outputs:
            cls = type(act)
            if cls is Frame:
                frame = act
                self.metrics.on_frame_emit(frame)
                details = {"frame": _FRAME_NAMES[frame.kind], "dst": frame.dst}
                sid = frame.payload.get("session_id")
                if sid:
                    details["session"] = sid
                reason = self._link_loss(frame)
                if reason is None:
                    self._shaped_note(_SEND_SESSION if sid else _SEND, device, "send", details)
                    self._push(self.clock + self.p.link_latency, self._deliver, (frame,))
                else:
                    details["reason"] = reason
                    self._note(device, "undeliverable", details)

            elif cls is StartTimer:
                self._push(self.clock + act.delay, self._timer, (device, act.tag))

            elif cls is Note:
                self._note(device, act.kind, act.details)

            elif cls is RequestScan:
                self._push(self.clock, self._scan, (device,))

            elif cls is HopTo:
                if node.role != ROOT and self._in_range(device, act.target):
                    details = {"target": act.target, "label": act.label}
                    if act.session_id:
                        details["session"] = act.session_id
                    self._note(device, "hop-start", details)
                    node.attached = None   # it has left the hotspot
                    self._push(self.clock + self.p.hop_latency, self._hop_done,
                               (device, act.target, node.term))
                else:
                    self._note(device, "hop-failed", {"target": act.target,
                                                      "at": "departure"})
                    self._emit(node, node.on_hop_failed(self.clock, act.target))

            else:
                raise TypeError(f"unknown action {act!r}")

    # Event kind -> handler, for `schedule`.
    _KINDS = {"arrive": _arrive, "depart": _depart, "deactivate": _deactivate,
              "scan": _scan, "frame": _deliver, "timer": _timer, "hopdone": _hop_done,
              "search": _search, "download": _download}

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


_FRAME_NAMES = {kind: kind.name for kind in FrameKind}
_RECV, _SEND, _SEND_SESSION = range(3)

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
