"""Simulator environment: visibility, frame locality, event determinism, the
retained trace."""

import gc
import sys

import pytest

from pear2pear.actions import Note
from pear2pear.core import Ssid, render_ssid
from pear2pear.frames import Frame, FrameKind
from pear2pear.metrics import MetricsCollector
from pear2pear.node import MEMBER, ROOT
from pear2pear.scenario import build_world, parse_scenario
from pear2pear.sim import World

from helpers import arrive, make_world, star, trace_events
from test_golden_generated import SEED, TINY, workloads


def test_scan_lists_only_visible_active_roots():
    w = make_world()
    for d in (1, 2, 3):
        w.add_device(d)
    w.add_edge(3, 1)   # 3 sees 1 but not 2
    arrive(w, [1, 2])
    w.run_until(0.5)
    assert w.visible_roots(3) == [w.nodes[1].ssid]
    w.schedule(1.0, "depart", device=1, silent=True)
    w.run_until(1.5)
    assert w.visible_roots(3) == []


def test_duplicate_device_rejected():
    w = make_world()
    w.add_device(1)
    with pytest.raises(ValueError):
        w.add_device(1)
    with pytest.raises(ValueError):
        w.add_edge(1, 1)


def test_frames_do_not_cross_subnets():
    # two disjoint hotspots; a data frame from member of one to root of the
    # other must be dropped by the environment
    w = make_world()
    star(w, 1, [2])
    star(w, 10, [11])
    w.run_until(1.0)
    w.schedule(2.0, "frame", frame=Frame(FrameKind.PING, src=2, dst=10))
    w.run_until(3.0)
    drops = [r for r in trace_events(w, "drop", device=10)
             if r.details["src"] == 2]
    assert drops and drops[0].details["reason"] == "different-hotspot"


def test_join_frames_need_radio_range_only():
    w = make_world()
    star(w, 1, [2])
    w.run_until(1.0)
    # device 3 is out of range of everything
    w.add_device(3)
    w.schedule(2.0, "frame", frame=Frame(FrameKind.PING, src=3, dst=1))
    w.run_until(3.0)
    assert trace_events(w, "drop", device=1)


def test_single_attachment_invariant():
    w = make_world()
    star(w, 1, [2, 3])
    star(w, 10, [11])
    w.add_edge(3, 10)  # bridge
    events = 0
    arrive_done = False
    while w.step() and w.clock < 120.0:
        events += 1
        for node in w.nodes.values():
            if node.attached is not None:
                # attached means exactly one hotspot, and it must exist
                assert isinstance(node.attached, str)
        roots = [n for n in w.nodes.values() if n.active and n.role == ROOT]
        for root in roots:
            assert root.attached == root.ssid
    assert events > 100


def test_frame_latency():
    w = make_world()
    star(w, 1, [2])
    w.run_until(1.0)
    sends = trace_events(w, "send", device=2)
    recvs = [r for r in trace_events(w, "recv", device=1)
             if r.details["src"] == 2]
    assert sends and recvs
    assert recvs[0].time == pytest.approx(sends[0].time + w.p.link_latency)


def _busy_build(seed):
    """A two-subnet world with one download, not yet run, and its end time."""
    w = make_world(seed=seed)
    files = {11: [("song.ogg", b"some shared bytes" * 100)]}
    star(w, 1, [2, 3, 4], files=files)
    star(w, 10, [11, 12], files=files)
    w.add_edge(4, 10)  # subnet of root 1 can reach subnet of root 10
    fid = w.nodes[11].store_file("song.ogg", b"some shared bytes" * 100).file_id
    w.schedule(50.0, "download", device=2, file_id=fid)
    return w, 150.0


def _busy_world(seed):
    w, until = _busy_build(seed)
    w.run_until(until)
    return w


def test_identical_seed_identical_trace():
    a, b = _busy_world(7), _busy_world(7)
    assert a.trace_lines() == b.trace_lines()
    assert a.metrics.report() == b.metrics.report()


def test_different_seed_still_runs():
    # determinism comes from the event queue, not the seed; a different seed
    # must at minimum produce a valid full run
    w = _busy_world(8)
    assert w.trace_lines()
    assert w.metrics.all_succeeded()


# --- the retained trace ----------------------------------------------------

def test_a_note_renders_its_details_in_key_order():
    # No shipped scenario or workload notes a float detail.
    w = make_world()
    w.add_device(3)
    details = {"d": "x", "c": 0.25, "e": False, "b": True, "a": 1}
    w.nodes[3].on_arrive = lambda now: [Note("probe", details)]
    w.schedule(12.5, "arrive", device=3)
    w.run_until(20.0)
    line = "12.500000 dev=3 probe a=1 b=true c=0.250000 d=x e=false"
    assert w.trace_lines() == [line]
    rec = w.trace[-1]
    assert (rec.time, rec.device, rec.kind, rec.details) == (12.5, 3, "probe", details)
    # The trace keeps what was noted, whatever the caller does with its dict.
    noted = dict(details)
    details["a"] = 2
    details["f"] = "y"
    assert w.trace_lines() == [line]
    assert w.trace[-1].details == noted


def _built(name):
    """The busy world or a tiny bench workload, not yet run, and its end time."""
    if name == "busy":
        return _busy_build(7)
    sc = parse_scenario(workloads.WORKLOADS[name](SEED, **TINY[name]))
    return build_world(sc), sc.until


WORLDS = ["busy"] + sorted(TINY)


def _run(name):
    w, until = _built(name)
    w.run_until(until)
    return w


@pytest.mark.parametrize("name", WORLDS)
def test_the_retained_trace_is_not_tracked_by_the_collector(name):
    # A note's values are scalars in one flat list, so full collections skip
    # the trace. A note that puts a list or a dict into its details would
    # leave it tracked there.
    w = _run(name)
    gc.collect()
    assert w._notes
    assert [v for v in w._notes if gc.is_tracked(v)] == []


@pytest.mark.parametrize("name", WORLDS)
def test_a_retained_note_takes_at_most_64_bytes(name):
    # The columns' own size: a clock, and a slot for the shape, the device and
    # each value, each 8 B, with the list's spare capacity. The values are
    # mostly objects the run holds anyway.
    w = _run(name)
    notes = len(w._times)
    assert notes > 100
    assert len(w._notes) == sum(2 + len(r.details) for r in w.trace)
    assert (sys.getsizeof(w._times) + sys.getsizeof(w._notes)) / notes <= 64


def _reference_line(time, device, kind, details):
    """A note as `--trace` renders it, one field at a time."""
    parts = [f"{time:.6f}", f"dev={device}", kind]
    for key in sorted(details):
        value = details[key]
        if isinstance(value, float):
            value = f"{value:.6f}"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        parts.append(f"{key}={value}")
    return " ".join(parts)


# Noted by one silent extra device at its arrival: a note with no details,
# one key set in two insertion orders, two kinds that share a key set, and a
# float and a bool value. It arrives at -0.0, after the 0.0 arrivals, which
# renders as "-0.000000" between notes at "0.000000".
EDGE_DEVICE = 10**6
EDGE_NOTES = [("edge", {}), ("edge", {"b": 1, "a": "x"}), ("edge", {"a": "y", "b": 2}),
              ("edge-too", {"b": 0.5, "a": True}), ("edge", {})]


@pytest.mark.parametrize("name", WORLDS)
def test_the_trace_reads_back_every_note_in_order(name, monkeypatch):
    seen = []
    observe = MetricsCollector.observe

    def recording(self, now, device, kind, details):
        seen.append((now, device, kind, dict(details)))
        observe(self, now, device, kind, details)

    monkeypatch.setattr(MetricsCollector, "observe", recording)
    w, until = _built(name)
    assert EDGE_DEVICE not in w.nodes
    w.add_device(EDGE_DEVICE)
    w.nodes[EDGE_DEVICE].on_arrive = lambda now: [Note(*note) for note in EDGE_NOTES]
    w.schedule(-0.0, "arrive", device=EDGE_DEVICE)
    # read once in mid-run, then again after the run goes on
    for t in (until / 2, until):
        w.run_until(t)
        assert [tuple(r) for r in w.trace] == seen
        assert w.trace_lines() == [_reference_line(*note) for note in seen]
    assert "-0.000000 dev=1000000 edge" in w.trace_lines()


# --- root lookup from the SSID ----------------------------------------------

def _lone_root(w, device):
    w.add_device(device)
    arrive(w, [device])
    w.run_until(w.clock + 1.0)
    return w.nodes[device].ssid


def test_find_root_answers_the_hosting_device():
    w = make_world()
    ssid = _lone_root(w, 1)
    assert w.find_root(ssid) == 1


def test_find_root_ignores_a_deactivated_root():
    w = make_world()
    ssid = _lone_root(w, 1)
    w.schedule(2.0, "depart", device=1, silent=True)
    w.run_until(3.0)
    node = w.nodes[1]
    assert not node.active and node.role == ROOT and node.ssid == ssid
    assert w.find_root(ssid) is None


def test_find_root_ignores_a_demoted_root():
    # Device 1 hosts, leaves, and comes back in range of root 10: it joins
    # 10 as a member and keeps its old SSID string.
    w = make_world()
    ssid = _lone_root(w, 1)
    _lone_root(w, 10)
    w.schedule(3.0, "depart", device=1, silent=True)
    w.run_until(3.5)
    w.add_edge(1, 10)
    w.schedule(4.0, "arrive", device=1)
    w.run_until(6.0)
    node = w.nodes[1]
    assert node.active and node.role == MEMBER and node.ssid == ssid
    assert w.find_root(ssid) is None
    assert w.find_root(w.nodes[10].ssid) == 10


def test_find_root_ignores_the_ssid_of_an_earlier_generation():
    w = make_world()
    first = _lone_root(w, 1)
    w.schedule(2.0, "depart", device=1, silent=True)
    w.schedule(3.0, "arrive", device=1)
    w.run_until(4.0)
    second = w.nodes[1].ssid
    assert second != first and w.nodes[1].role == ROOT
    assert w.find_root(first) is None
    assert w.find_root(second) == 1


def test_find_root_of_ssids_no_device_hosts():
    w = make_world()
    _lone_root(w, 1)
    assert w.find_root("HomeNetwork") is None
    assert w.find_root("") is None
    assert w.find_root(render_ssid(Ssid(999, 0))) is None
