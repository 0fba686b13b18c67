"""Courier missions that go wrong: swarm couriers lost mid-mission, a
courier that leaves silently, a target subnet that disappears while the
courier is hopping, a target or home that turns the courier away or never
answers, a requester whose root is lost mid-download."""

import pytest

from pear2pear.frames import FrameKind

from helpers import (
    arrive, courier_reports, make_world, only_download, orders_of, record_frames, star,
    stranded_courier_world, swarm_world, trace_events,
)


def test_swarm_courier_lost_mid_mission_is_replaced():
    w, fid, content = swarm_world(bridges=(2, 3))
    w.schedule(50.5, "depart", device=3, silent=True)
    w.run_until(50.05)
    lost = next(o.mission_id for c, o in orders_of(w.nodes[1]) if c == 3)
    w.run_until(200.0)
    (timeout,) = [r for r in trace_events(w, "mission-timeout", device=1)
                  if r.details["mission"] == lost]
    assert timeout.time == pytest.approx(50.0 + w.p.link_latency + w.p.mission_timeout)
    files = [r for r in trace_events(w, "courier-assign", device=1)
             if r.details["mission"] == "file"]
    assert [r.details["courier"] for r in files] == [2, 3, 2]
    assert files[-1].time == timeout.time
    rec = only_download(w)
    assert rec["success"]
    assert w.nodes[5].files[fid] == content


def test_a_swarm_never_orders_an_empty_block_range():
    # a one-block file may swarm, but two idle bridges get one range, not an
    # empty second one whose courier could only time out and be re-ordered
    w, fid, content = swarm_world(bridges=(2, 3), size=1000, swarm_threshold=0)
    frames = record_frames(w)
    w.run_until(200.0)
    orders = [f.payload for f in frames if f.kind == FrameKind.COURIER_ORDER
              and f.payload.get("mission") == "file" and "status" not in f.payload]
    assert [o["range"] for o in orders] == [(0, 1)]
    assert trace_events(w, "mission-timeout", device=1) == []
    rec = only_download(w)
    assert rec["success"] and rec["couriers"] == 1
    assert w.nodes[5].files[fid] == content


def test_swarm_with_every_courier_lost_fails_at_the_deadline():
    # both couriers leave mid-mission; with no replacement the root gives up
    # at the mission deadline, and the requester fails then, not at its own
    # session timeout
    w = swarm_world(bridges=(2, 3))[0]
    w.schedule(50.5, "depart", device=2, silent=True)
    w.schedule(50.5, "depart", device=3, silent=True)
    w.run_until(50.0 + w.p.session_timeout + 10.0)
    rec = only_download(w)
    assert rec["success"] is False
    (failed,) = trace_events(w, "download-failed", device=5)
    assert failed.details["reason"] == "courier-failed"
    deadline = 50.0 + w.p.link_latency + w.p.mission_timeout
    assert deadline < failed.time < deadline + 1.0


def test_a_swarm_that_loses_every_courier_is_refused_once():
    # the first lost courier finds no replacement and fails the request; the
    # other two lapse into a request that has already failed
    w = swarm_world(bridges=(2, 3, 4))[0]
    for d in (2, 3, 4):
        w.schedule(50.5, "depart", device=d, silent=True)
    w.run_until(200.0)
    lists = [r for r in trace_events(w, "recv", device=5)
             if r.details["frame"] == FrameKind.SOURCE_LIST.name]
    deadline = 50.0 + w.p.link_latency + w.p.mission_timeout
    assert [r.time < deadline for r in lists] == [True, False]
    assert len(trace_events(w, "mission-timeout", device=1)) == 3
    assert w.nodes[1].requests == {}
    (failed,) = trace_events(w, "download-failed", device=5)
    assert failed.details["reason"] == "courier-failed"


def test_a_lost_root_fails_and_drops_every_open_session():
    # device 5 waits for a courier push when its root leaves silently
    w = swarm_world(bridges=(2,))[0]
    w.schedule(51.0, "depart", device=1, silent=True)
    w.run_until(51.0 + w.p.silent_timeout + w.p.ping_interval + 1.0)
    (lost,) = trace_events(w, "root-lost", device=5)
    (failed,) = trace_events(w, "download-failed", device=5)
    assert failed.time == lost.time
    assert failed.details["reason"] == lost.details["reason"] == "root-silent"
    assert w.nodes[5].sessions == {}


def test_courier_that_left_silently_is_not_ordered_again():
    # courier 3 leaves mid-mission without a word: its order lapses at the
    # mission deadline, no new order keeps it exempt from the silent purge,
    # and the next ping cycle purges it
    w = swarm_world(bridges=(2, 3))[0]
    departed = 50.5
    w.schedule(departed, "depart", device=3, silent=True)
    w.run_until(400.0)
    orders = [r.time for r in trace_events(w, "courier-assign", device=1)
              if r.details["courier"] == 3]
    assert orders and max(orders) < departed
    (purge,) = [r for r in trace_events(w, "purge", device=1) if r.details["peer"] == 3]
    assert purge.details["reason"] == "silent"
    assert purge.time <= departed + w.p.mission_timeout + w.p.ping_interval


def test_target_root_gone_during_hop_aborts_mission():
    w = make_world()
    star(w, 1, [2])
    star(w, 10, [11])
    w.add_edge(2, 10)
    # root 1 orders its first catalog mission at courier_period; the target
    # root leaves while courier 2 is in the air
    hop_mid = w.p.courier_period + w.p.hop_latency / 2
    w.schedule(hop_mid, "depart", device=10, silent=True)
    w.run_until(hop_mid + 10.0)
    (failed,) = trace_events(w, "hop-failed", device=2)
    assert failed.details["at"] == "arrival"
    assert failed.details["target"] == w.nodes[10].ssid
    hops = trace_events(w, "hop-start", device=2)
    assert [h.details["label"] for h in hops] == ["forward", "return"]
    assert hops[1].time == failed.time
    (mf,) = trace_events(w, "mission-failed", device=1)
    assert mf.details["kind"] == "catalog" and mf.details["status"] == "failed"
    assert w.nodes[2].mission is None
    assert w.nodes[2].attached == w.nodes[1].ssid


def _catalog_run(**overrides):
    """Root 1 with courier 2, which also sees root 10 with member 11. Root 1
    orders its first catalog mission at `courier_period` (20 s); courier 2
    lands at the target at 22.01 s."""
    w = make_world(**overrides)
    star(w, 1, [2])
    star(w, 10, [11])
    w.add_edge(2, 10)
    return w, record_frames(w)


def _return_hop(w):
    hops = trace_events(w, "hop-start", device=2)
    assert [h.details["label"] for h in hops] == ["forward", "return"]
    return hops[1].time


def test_an_order_ends_when_its_courier_leaves():
    # courier 2 leaves politely in the instant root 1 orders its first
    # catalog run, so its leave notice lands while it is away on the order.
    # The notice ends the order as lost: nothing is left of it when the
    # countdown purges the record.
    w, _ = _catalog_run()
    w.schedule(w.p.courier_period, "depart", device=2, silent=False)
    w.run_until(100.0)
    (lost,) = trace_events(w, "mission-failed", device=1)
    assert lost.details["status"] == "lost"
    assert lost.time == pytest.approx(w.p.courier_period + w.p.link_latency)
    (purge,) = trace_events(w, "purge", device=1)
    assert purge.details == {"peer": 2, "reason": "leave"}
    assert purge.time == pytest.approx(lost.time + w.p.leave_countdown)
    assert trace_events(w, "mission-timeout", device=1) == []


def test_a_member_leaving_politely_takes_no_order_in_its_grace():
    # courier 2 leaves politely at 20.005 s, just after root 1 orders its
    # first catalog run. The order lands at 20.01 s, within the leave's
    # grace, and is refused, so 2 stays on the hotspot: its notice lands at
    # 20.015 s and ends the order as lost, and the countdown purges it as
    # leaving, not at the order's deadline and then as silent
    w, _ = _catalog_run()
    w.schedule(w.p.courier_period + w.p.link_latency / 2, "depart", device=2, silent=False)
    w.run_until(100.0)
    (lost,) = trace_events(w, "mission-failed", device=1)
    assert lost.details["status"] == "lost"
    assert lost.time == pytest.approx(20.015)
    (purge,) = trace_events(w, "purge", device=1)
    assert purge.details == {"peer": 2, "reason": "leave"}
    assert purge.time == pytest.approx(20.015 + w.p.leave_countdown)
    assert trace_events(w, "mission-timeout", device=1) == []
    assert trace_events(w, "hop-start", device=2) == []
    assert trace_events(w, "drop", device=1) == []


def test_a_courier_leaving_politely_at_its_target_tells_that_target():
    # courier 2 is admitted at root 10 at 22.03 s and leaves politely at
    # 22.035 s: its one LEAVE_NOTICE goes to root 10, the hotspot it is on,
    # which counts the leave down and purges it as leaving. It flies its
    # mission no further, so root 1 times the order out.
    w, frames = _catalog_run()
    w.schedule(22.035, "depart", device=2, silent=False)
    w.run_until(100.0)
    assert trace_events(w, "undeliverable", device=2) == []
    notices = [f for f in frames if f.kind == FrameKind.LEAVE_NOTICE]
    assert [(f.src, f.dst) for f in notices] == [(2, 10)]
    (leaving,) = trace_events(w, "leaving", device=10)
    assert leaving.details == {"peer": 2}
    assert leaving.time == pytest.approx(22.045)
    (purge,) = trace_events(w, "purge", device=10)
    assert purge.details == {"peer": 2, "reason": "leave"}
    assert purge.time == pytest.approx(22.045 + w.p.leave_countdown)
    (timeout,) = trace_events(w, "mission-timeout", device=1)
    assert timeout.time == pytest.approx(w.p.courier_period + w.p.mission_timeout)


def test_a_courier_rejected_twice_by_its_target_heads_home():
    # the target is full: the first reject at 22.03 s arms one retry after
    # hop_latency, and the second reject sends the courier home
    w, frames = _catalog_run(max_members=1)
    w.run_until(30.0)
    assert _return_hop(w) == pytest.approx(24.05)
    rejects = [r.time for r in trace_events(w, "recv", device=2)
               if r.details["frame"] == FrameKind.JOIN_REJECT.name]
    assert rejects == pytest.approx([22.03, 24.05])
    (report,) = courier_reports(frames)
    assert report.payload["status"] == "failed"
    assert report.payload["reason"] == "join-rejected"
    (mf,) = trace_events(w, "mission-failed", device=1)
    assert mf.details["kind"] == "catalog"
    assert w.nodes[2].mission is None and w.nodes[2].attached == w.nodes[1].ssid


def test_a_courier_whose_target_never_answers_heads_home():
    # one-way visibility: 2 sees root 10, so its JOIN_REQUEST lands, but the
    # accept cannot reach it and the join times out
    w, frames = _catalog_run()
    w.vis[10].discard(2)
    w.run_until(35.0)
    assert _return_hop(w) == pytest.approx(22.01 + w.p.join_timeout)
    (report,) = courier_reports(frames)
    assert report.payload["status"] == "failed"
    assert report.payload["reason"] == "join-timeout"
    assert w.nodes[2].mission is None


def test_a_courier_whose_home_never_answers_is_lost():
    # root 1 stops seeing the courier while it is away: its rejoin request
    # lands but the accept cannot, so the courier gives its home up
    w, frames = _catalog_run()
    w.run_until(21.0)
    w.vis[1].discard(2)
    w.run_until(30.0)
    (lost,) = trace_events(w, "root-lost", device=2)
    assert lost.details["reason"] == "home-unreachable"
    assert lost.time == pytest.approx(24.07 + w.p.join_timeout)
    assert courier_reports(frames) == []
    assert w.nodes[2].mission is None


def test_a_courier_whose_full_home_dropped_it_is_lost():
    # root 1 has forgotten courier 2 while it was away and admitted devices
    # 3 and 4 in its place, so the rejoin is rejected
    w, frames = _catalog_run(max_members=2)
    for d in (3, 4):
        w.add_device(d)
        w.add_edge(d, 1)
    w.run_until(21.0)
    del w.nodes[1].members[2]
    arrive(w, [3, 4], t=21.0)
    w.run_until(30.0)
    (lost,) = trace_events(w, "root-lost", device=2)
    assert lost.details["reason"] == "rejoin-rejected"
    assert lost.time == pytest.approx(24.09)
    assert courier_reports(frames) == []


def test_a_done_report_keeps_its_target_listed():
    # courier 2 scans only when it joins, so root 1 last hears of root 10
    # from a scan report at 0.02 s. Its file mission for device 3 reports
    # done at about 29 s, which keeps root 10 listed past the 30 s ping,
    # where neighbor_ttl would otherwise expire it.
    w = make_world(scan_period=100.0, neighbor_ttl=30.0)
    star(w, 1, [2, 3])
    star(w, 10, [11], files={11: [("f.txt", b"x")]})
    w.add_edge(2, 10)
    fid = next(iter(w.nodes[11].files))
    w.schedule(25.0, "download", device=3, file_id=fid)
    w.run_until(31.0)
    assert only_download(w)["success"]
    info = w.nodes[1].subnets.neighbors.get(w.nodes[10].ssid)
    assert info is not None and 25.0 < info.last_seen < 30.0


def test_a_courier_whose_nested_courier_is_lost_times_out_at_the_target():
    # 103's own work timeout, counted from its admission, fires before 200's
    # deadline for 203's order. While it waits at 200 it sends no scan
    # reports: its PONGs keep it listed.
    w = stranded_courier_world()
    frames = record_frames(w)
    w.run_until(175.0)
    hops = [h for h in trace_events(w, "hop-start", device=103)
            if h.details.get("session") == "101-1"]
    assert [h.details["label"] for h in hops] == ["forward", "return"]
    assert hops[1].time == pytest.approx(107.04 + w.p.mission_timeout + 2 * w.p.link_latency)
    (report,) = courier_reports(frames)
    assert report.src == 103 and report.payload["reason"] == "work-timeout"
    assert only_download(w)["success"] is False
    assert w.nodes[103].mission is None
    assert all(p.details["peer"] != 103 for p in trace_events(w, "purge", device=200))
    leave = trace_events(w, "leaving", device=200)[-1]
    assert leave.details["peer"] == 103 and leave.time == pytest.approx(167.05)


def test_a_stranded_courier_is_pinged_before_the_next_cycle_would_purge_it():
    # with scan_period 25 s, root 200's ping cycles find courier 103 quiet
    # for about 23 s and then 33 s, past silent_timeout: a root that waited
    # for a scan period of quiet would purge it unpinged. Root 200 pings it
    # from silent_timeout - ping_interval of quiet, and its PONGs keep it.
    w = stranded_courier_world(scan_period=25.0)
    frames = record_frames(w)
    w.run_until(175.0)
    pings = [f for f in frames if f.kind == FrameKind.PING and (f.src, f.dst) == (200, 103)]
    pongs = [f for f in frames if f.kind == FrameKind.PONG and (f.src, f.dst) == (103, 200)]
    assert len(pings) == len(pongs) > 0
    assert all(p.details["peer"] != 103 for p in trace_events(w, "purge", device=200))
    (report,) = courier_reports(frames)
    assert report.src == 103 and report.payload["reason"] == "work-timeout"
