"""Per-layer spans for the benchmark's traced run.

Every public function and public method of the program's layer modules is
wrapped, for one run, in a span: name, start, end and the enclosing span.
Functions that other modules imported by name (`compute_file_id` in
`transfer` and `scenario`, `assign_block_source` in `transfer`, `parse_ssid`
in `node`, ...) are wrapped there too. Spans stay in memory in flat arrays
and are written out when the run ends. A layer's self time is its spans'
duration minus that of their child spans; time outside every top-level span
is reported as `other_s`. `cli` does no run-time work of its own and is not
wrapped.
"""

import gc
import time
from array import array
from collections import Counter
from types import FunctionType, ModuleType

from pear2pear import catalog, core, frames, metrics, node, routing, scenario, sim, transfer

LAYERS = {"sim": sim, "node": node, "catalog": catalog, "routing": routing,
          "transfer": transfer, "core": core, "frames": frames, "metrics": metrics,
          "scenario": scenario}
PROGRAM = tuple(LAYERS.values())


# Counters kept at span boundaries: span name -> hook(counts, args, result).
def _count(key, amount):
    def hook(counts, args, result):
        counts[key] += amount(args, result)
    return hook


def _deepest_queue(counts, args, result):
    counts["sim.queue.max_depth"] = max(counts["sim.queue.max_depth"], len(args[0].queue))


HOOKS = {
    "sim.World.step": _deepest_queue,
    "catalog.NetworkFileCatalog.merge_snapshot":
        _count("catalog.merge_snapshot.entries", lambda a, r: len(a[1]["entries"])),
    "catalog.NetworkFileCatalog.snapshot":
        _count("catalog.snapshot.entries", lambda a, r: len(r["entries"])),
    "routing.designate_courier":
        _count("routing.designate_courier.none", lambda a, r: r is None),
    "transfer.TransferSession.on_block":
        _count("transfer.on_block.dup", lambda a, r: not r),
    "transfer.TransferSession.verify":
        _count("transfer.verify.bytes", lambda a, r: a[0].meta.size),
    "core.compute_file_id":
        _count("core.compute_file_id.bytes", lambda a, r: len(a[0])),
}

# Metric -> the spans whose calls or self time it sums.
SPAN_GROUPS = {
    "sim.step": ["sim.World.step"],
    "sim.find_root": ["sim.World.find_root"],
    "sim.visible_roots": ["sim.World.visible_roots"],
    "node.on_frame": ["node.Node.on_frame"],
    "node.on_timer": ["node.Node.on_timer"],
    "node.on_scan": ["node.Node.on_scan"],
    "node.on_hop": ["node.Node.on_hop_complete", "node.Node.on_hop_failed"],
    "catalog.merge_snapshot": ["catalog.NetworkFileCatalog.merge_snapshot"],
    "catalog.snapshot": ["catalog.NetworkFileCatalog.snapshot"],
    "catalog.expire_remote": ["catalog.NetworkFileCatalog.expire_remote"],
    "catalog.lookup_name": ["catalog.NetworkFileCatalog.lookup_name"],
    "catalog.holders": ["catalog.NetworkFileCatalog.apply_file_change",
                        "catalog.NetworkFileCatalog.register_files",
                        "catalog.NetworkFileCatalog.drop_holder",
                        "catalog.NetworkFileCatalog.drop_via_gateways"],
    "catalog.subnets": ["catalog.SubnetCatalog.report_scan",
                        "catalog.SubnetCatalog.drop_peer",
                        "catalog.SubnetCatalog.expire"],
    "routing.designate_courier": ["routing.designate_courier"],
    "routing.select_source": ["routing.select_source"],
    "transfer.on_block": ["transfer.TransferSession.on_block"],
    "transfer.complete": ["transfer.TransferSession.complete"],
    "transfer.next_requests": ["transfer.TransferSession.next_requests"],
    "transfer.overdue_sources": ["transfer.TransferSession.overdue_sources"],
    "transfer.verify": ["transfer.TransferSession.verify"],
    "core.compute_file_id": ["core.compute_file_id"],
    "core.block_payload": ["core.block_payload"],
    "metrics.observe": ["metrics.MetricsCollector.observe"],
    "metrics.on_frame_emit": ["metrics.MetricsCollector.on_frame_emit"],
    "metrics.report": ["metrics.MetricsCollector.report"],
    "scenario.parse_scenario": ["scenario.parse_scenario"],
    "scenario.build_world": ["scenario.build_world"],
}

# Self-time metrics: a whole layer, or a SPAN_GROUPS entry.
SELF_S = [f"{layer}.self_s" for layer in LAYERS if layer != "frames"] + [
    "sim.step.self_s", "node.on_frame.self_s", "node.on_timer.self_s",
    "node.on_scan.self_s", "node.on_hop.self_s", "catalog.merge_snapshot.self_s",
    "catalog.snapshot.self_s", "catalog.expire_remote.self_s",
    "catalog.lookup_name.self_s", "catalog.holders.self_s", "catalog.subnets.self_s",
    "transfer.complete.self_s", "transfer.next_requests.self_s",
    "transfer.overdue_sources.self_s", "transfer.verify.self_s",
    "core.compute_file_id.self_s", "core.block_payload.self_s",
    "metrics.observe.self_s", "metrics.on_frame_emit.self_s", "metrics.report.self_s",
    "scenario.parse_scenario.self_s", "scenario.build_world.self_s"]
# Call-count metrics of SPAN_GROUPS entries.
CALLS = ["sim.step.calls", "sim.find_root.calls", "node.on_frame.calls",
         "catalog.merge_snapshot.calls", "routing.designate_courier.calls",
         "routing.select_source.calls", "transfer.complete.calls",
         "core.compute_file_id.calls", "core.block_payload.calls",
         "metrics.observe.calls"]
# Protocol events counted from the run's trace notes.
NOTES = {"sim.drops": "drop", "sim.undeliverable": "undeliverable",
         "node.courier.orders": "courier-assign", "node.courier.failed": "mission-failed",
         "node.join.rejects": "reject", "transfer.reassign": "reassign",
         "transfer.hash_retry": "hash-retry"}


class Spans:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()

    def wrap(self, span_name, fn):
        nid = len(self.names)
        self.names.append(span_name)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self.stack)
        hook, counts, clock = HOOKS.get(span_name), self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """Per span name: (calls, total seconds, self seconds); and the
        seconds covered by top-level spans."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        top = 0.0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
            else:
                top += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            dur = end[i] - start[i]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[i]
        return {nm: (calls[i], total[i], own[i]) for i, nm in enumerate(self.names)}, top

    def write(self, path):
        """One line per span: index, parent index, name, start and end in
        seconds since the first span started."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def _targets():
    """(span name, (owner, attribute), function or classmethod) for every
    public function and method defined in a layer module."""
    for layer, module in LAYERS.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, FunctionType):
                yield f"{layer}.{attr}", (module, attr), obj
            elif isinstance(obj, type):
                for meth, raw in vars(obj).items():
                    if not meth.startswith("_") and isinstance(raw, (FunctionType, classmethod)):
                        yield f"{layer}.{attr}.{meth}", (obj, meth), raw


def install(spans):
    """Wrap every target in place, including other modules' imported names;
    returns the (owner, attribute, original) list to undo it."""
    undo = []
    for span_name, (owner, attr), raw in _targets():
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = spans.wrap(span_name, fn)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if isinstance(owner, ModuleType):
            for module in PROGRAM:
                if module is not owner and vars(module).get(attr) is raw:
                    undo.append((module, attr, raw))
                    setattr(module, attr, wrapped)
    return undo


def uninstall(undo):
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


class TracedRun:
    def __init__(self, spans, world, events, run_s, window_s, path):
        self.world, self.events, self.run_s, self.path = world, events, run_s, path
        self.span_count = len(spans.start)
        self.by_span, top = spans.summary()
        self.other_s = window_s - top
        self.counts = spans.counts
        self.notes = Counter(rec.kind for rec in world.trace)

    def _sum(self, group, field):
        return sum(self.by_span.get(s, (0, 0.0, 0.0))[field] for s in SPAN_GROUPS[group])

    def layer_self(self):
        return [(layer, sum(v[2] for k, v in self.by_span.items()
                            if k.split(".", 1)[0] == layer)) for layer in LAYERS]

    def metrics(self):
        m = {}
        layer_self = dict(self.layer_self())
        for name in SELF_S:
            prefix = name[:-len(".self_s")]
            value = layer_self[prefix] if prefix in LAYERS else self._sum(prefix, 2)
            m[name] = {"value": value, "unit": "s"}
        for name in CALLS:
            m[name] = {"value": self._sum(name[:-len(".calls")], 0), "unit": "count"}
        m["sim.find_root.s"] = {"value": self._sum("sim.find_root", 1), "unit": "s"}
        m["sim.visible_roots.s"] = {"value": self._sum("sim.visible_roots", 1), "unit": "s"}
        m["sim.queue.max_depth"] = {"value": self.counts["sim.queue.max_depth"],
                                    "unit": "count"}
        for name, kind in NOTES.items():
            m[name] = {"value": self.notes[kind], "unit": "count"}
        for key in ("catalog.merge_snapshot.entries", "catalog.snapshot.entries",
                    "routing.designate_courier.none", "transfer.on_block.dup"):
            m[key] = {"value": self.counts[key], "unit": "count"}
        m["transfer.verify.bytes"] = {"value": self.counts["transfer.verify.bytes"], "unit": "B"}
        m["core.compute_file_id.bytes"] = {"value": self.counts["core.compute_file_id.bytes"],
                                           "unit": "B"}
        blocks = self._sum("transfer.on_block", 0)
        m["transfer.blocks"] = {"value": blocks, "unit": "count"}
        m["transfer.on_block.useful_ratio"] = {
            "value": (blocks - self.counts["transfer.on_block.dup"]) / max(blocks, 1),
            "unit": "ratio"}
        calls = self._sum("routing.designate_courier", 0)
        m["routing.designate_courier.useful_ratio"] = {
            "value": (calls - self.counts["routing.designate_courier.none"]) / max(calls, 1),
            "unit": "ratio"}
        m["other_s"] = {"value": self.other_s, "unit": "s"}
        return m


def traced_run(make_doc, set_up, simulate, path):
    """Run `set_up(doc)` and `simulate(world, until)` once with every layer
    wrapped; spans go to `path`. The workload document is generated before
    tracing starts."""
    doc = make_doc()
    spans = Spans()
    undo = install(spans)
    gc.collect()
    try:
        t0 = time.perf_counter()
        sc, world = set_up(doc)
        t1 = time.perf_counter()
        events = simulate(world, sc.until)
        t2 = time.perf_counter()
        world.metrics.report()
        t3 = time.perf_counter()
    finally:
        uninstall(undo)
    spans.write(path)
    return TracedRun(spans, world, events, t2 - t1, t3 - t0, path)
