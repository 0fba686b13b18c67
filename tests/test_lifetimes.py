"""One life per arrival: what a role starts ends with it. A member that
moves to another hotspot, a root or member that leaves and comes back, a
courier that leaves mid-mission or mid-hop, and a requester that leaves
mid-download each carry nothing of the earlier role into the next."""

import pytest

from pear2pear.frames import FrameKind
from pear2pear.node import MEMBER

from helpers import (
    arrive, courier_reports, make_world, members_of, only_download, random_content, record_frames,
    send_times, star, trace_events,
)


def test_a_member_that_changes_hotspot_reports_once_per_period():
    # root 1 leaves silently; member 2 finds it silent and joins root 3,
    # which it also sees. The first membership's report chain must end, and
    # the second beacons once per beacon period (k = 2 scans) from its join.
    w = make_world()
    star(w, 1, [2])
    star(w, 3, [4])
    w.add_edge(2, 3)
    w.schedule(5.0, "depart", device=1, silent=True)
    w.run_until(75.0)
    (lost,) = trace_events(w, "root-lost", device=2)
    assert lost.details["reason"] == "root-silent"
    assert lost.time == pytest.approx(30.02)
    assert w.nodes[2].attached == w.nodes[3].ssid
    reports = [t for t in send_times(w, 2, FrameKind.SCAN_REPORT) if t > lost.time]
    assert reports == pytest.approx([30.04, 50.04, 70.04])


def test_a_root_that_comes_back_within_a_ping_interval_pings_once_per_period():
    # root 1 leaves at 2 and hosts again at 3; members 2 and 3 find the old
    # SSID silent at 30.02 and join the new one. The new term's ping cycle
    # runs at 33, 43, 53, 63 and 73: it never pings idle member 2, and pings
    # 3, gone silently at 35 after its beacon of 30.04, once per period from
    # when it has missed its next beacon until the cycle that purges it,
    # silent_timeout after the one scan it may skip (40.04). The old term's
    # cycle at 42, 52, 62 and 72 must be dead.
    w = make_world()
    star(w, 1, [2, 3])
    w.schedule(2.0, "depart", device=1, silent=True)
    w.schedule(3.0, "arrive", device=1)
    w.schedule(35.0, "depart", device=3, silent=True)
    w.run_until(80.0)
    assert w.nodes[2].attached == w.nodes[1].ssid
    assert send_times(w, 1, FrameKind.PING, dst=2) == []
    pings = [r.time for r in trace_events(w, "undeliverable", device=1)
             if r.details["frame"] == "PING" and r.details["dst"] == 3]
    assert pings == pytest.approx([53.0, 63.0])
    (purge,) = trace_events(w, "purge", device=1)
    assert purge.details == {"peer": 3, "reason": "silent"}
    assert purge.time == pytest.approx(73.0)


def test_a_member_that_comes_back_reports_once_per_period():
    # the new life beacons once per beacon period (k = 2 scans) from its join
    w = make_world()
    star(w, 1, [2])
    w.schedule(12.0, "depart", device=2, silent=False)
    w.schedule(13.0, "arrive", device=2)
    w.run_until(60.0)
    reports = [t for t in send_times(w, 2, FrameKind.SCAN_REPORT) if t > 12.0]
    assert reports == pytest.approx([13.02, 33.02, 53.02])


def _courier_world():
    """Root 1 with courier 2, which also sees root 10 with member 11. Root 1
    orders its first catalog mission at 20 s; courier 2 lands at 22.01 s."""
    w = make_world()
    star(w, 1, [2])
    star(w, 10, [11])
    w.add_edge(2, 10)
    return w


def test_a_courier_that_comes_back_flies_again():
    # courier 2 leaves silently during its first hop and comes back at 30:
    # it drops the mission it left with, reports scans, and takes the next
    # orders at once: root 1 ends the first one as lost when the new
    # membership lists its files, not at the deadline
    w = _courier_world()
    frames = record_frames(w)
    w.schedule(21.0, "depart", device=2, silent=True)
    w.schedule(30.0, "arrive", device=2)
    w.run_until(200.0)
    node = w.nodes[2]
    assert node.role == MEMBER and node.attached == w.nodes[1].ssid
    assert node.mission is None
    assert [t for t in send_times(w, 2, FrameKind.SCAN_REPORT) if t > 30.0]
    assert not [f for f in courier_reports(frames) if f.payload["status"] == "refused"]
    hops = [r.time for r in trace_events(w, "hop-start", device=2)
            if r.details["label"] == "forward"]
    assert hops[0] < 21.0
    assert hops[1:] == pytest.approx([40.01, 60.01, 80.01, 100.01, 120.01, 140.01, 160.01,
                                      180.01])
    (lost,) = trace_events(w, "mission-failed", device=1)
    assert lost.details == {"mission": "1-1", "status": "lost", "kind": "catalog"}
    assert lost.time == pytest.approx(30.03)


def _late_courier_world(joins_at):
    """Root 1, and root 10 with member 11, from 0 s; device 2, which sees
    both roots, arrives at `joins_at - 0.02` and joins root 1. Root 1
    orders 2 to fetch root 10's catalog at 20 s, and 2 is home by 25 s."""
    w = make_world()
    w.add_device(1)
    w.add_device(2)
    star(w, 10, [11])
    w.add_edge(2, 1)
    w.add_edge(2, 10)
    arrive(w, [1])
    arrive(w, [2], t=joins_at - 2 * w.p.link_latency)
    return w


def test_a_member_back_from_a_mission_reports_at_its_first_scan():
    # 2 joins at 19.02 and reports then; the order lands at 20.01, before
    # its next scan. Back home, its first scan, at 29.02, reports though
    # neither its list nor the beacon count asks for it: the root may have
    # missed a change while it was away.
    w = _late_courier_world(joins_at=19.02)
    w.run_until(35.0)
    (hop, _) = trace_events(w, "hop-start", device=2)
    assert hop.time == pytest.approx(20.01)
    assert w.nodes[2].mission is None
    assert send_times(w, 2, FrameKind.SCAN_REPORT) == pytest.approx([19.02, 29.02])


def test_a_change_lost_as_its_member_leaves_on_an_order_reaches_the_root_once_home():
    # root 30 appears to member 2 at 15 s. 2 reports the change at its scan
    # of 20.005, but root 1's order of 20 s lands at 20.01 and 2 hops at
    # once, so the report is dropped as different-hotspot when it arrives.
    # Back home, 2's first scan, at 30.005, reports it again.
    w = _late_courier_world(joins_at=10.005)
    w.add_device(30)
    w.add_edge(2, 30)
    arrive(w, [30], t=15.0)
    w.run_until(30.005 + w.p.link_latency + 1e-6)
    (drop,) = [r for r in trace_events(w, "drop", device=1)
               if r.details["frame"] == FrameKind.SCAN_REPORT.name]
    assert drop.time == pytest.approx(20.015)
    assert drop.details == {"frame": "SCAN_REPORT", "src": 2, "reason": "different-hotspot"}
    member, root = w.nodes[2], w.nodes[1]
    assert member.mission is None and member.attached == root.ssid
    scanned = set(w.visible_roots(2)) - {root.ssid}
    assert scanned == {w.nodes[10].ssid, w.nodes[30].ssid}
    assert {s for s, info in root.subnets.neighbors.items() if 2 in info.reachable_by} \
        == scanned


def test_a_hop_begun_before_a_departure_never_lands():
    w = _courier_world()
    w.schedule(20.5, "depart", device=2, silent=True)
    w.schedule(21.0, "arrive", device=2)
    w.run_until(30.0)
    assert not [r for r in trace_events(w, "hop-complete", device=2) if r.time > 21.0]
    node = w.nodes[2]
    assert node.role == MEMBER and node.attached == w.nodes[1].ssid
    assert 2 in members_of(w, w.nodes[1].ssid)


def test_a_requester_that_leaves_fails_its_download_at_once():
    content = random_content(64, 64 * 1024)
    w = make_world(block_size=1024)
    star(w, 1, [2, 3], files={3: [("f.bin", content)]})
    fid = next(iter(w.nodes[3].files))
    w.schedule(5.0, "download", device=2, file_id=fid)
    w.schedule(5.03, "depart", device=2, silent=True)
    w.schedule(6.0, "arrive", device=2)
    w.run_until(20.0)
    (failed,) = trace_events(w, "download-failed", device=2)
    assert failed.details["reason"] == "departed"
    assert failed.time == pytest.approx(5.03)
    assert only_download(w)["success"] is False
    assert w.nodes[2].sessions == {}
