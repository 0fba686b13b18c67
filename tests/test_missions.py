"""Courier missions that go wrong: swarm couriers lost mid-mission, a
courier that leaves silently, a target subnet that disappears while the
courier is hopping, a requester whose root is lost mid-download."""

import pytest

from pear2pear.frames import FrameKind

from helpers import make_world, only_download, star, swarm_world, trace_events


def test_swarm_courier_lost_mid_mission_is_replaced():
    w, fid, content = swarm_world(bridges=(2, 3))
    w.schedule(50.5, "depart", device=3, silent=True)
    w.run_until(50.05)
    lost = next(o.mission_id for o in w.nodes[1].outstanding.values() if o.courier == 3)
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
