"""Kernel layer: subnet formation, membership, leave/silent cleanup."""

import pathlib

import pytest

from pear2pear.core import parse_ssid
from pear2pear.frames import FrameKind
from pear2pear.node import MEMBER, ROOT, SCANNING, Node
from pear2pear.scenario import build_world, load_scenario, parse_scenario, run_scenario

from helpers import (
    arrive, clique, make_world, members_of, record_frames, roots_of, star, trace_events,
)
from test_golden_generated import SEED, TINY, workloads

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_every_frame_kind_has_a_handler():
    assert set(Node._HANDLERS) == set(FrameKind)
    assert all(callable(h) for h in Node._HANDLERS.values())


def test_lone_device_hosts():
    w = make_world()
    w.add_device(1)
    arrive(w, [1])
    w.run_until(1.0)
    node = w.nodes[1]
    assert node.role == ROOT
    assert parse_ssid(node.ssid).root_id == 1


def test_star_forms_single_subnet():
    w = make_world()
    star(w, 1, [2, 3, 4])
    w.run_until(1.0)
    assert w.nodes[1].role == ROOT
    for d in (2, 3, 4):
        assert w.nodes[d].role == MEMBER
        assert w.nodes[d].attached == w.nodes[1].ssid
    assert members_of(w, w.nodes[1].ssid) == {2, 3, 4}


def test_clique_forms_single_subnet():
    w = make_world()
    for d in (5, 6, 7):
        w.add_device(d)
    clique(w, [5, 6, 7])
    arrive(w, [5, 6, 7])
    w.run_until(1.0)
    assert len(roots_of(w)) == 1


def test_join_prefers_lowest_root_id():
    w = make_world()
    for d in (10, 20):
        w.add_device(d)
        arrive(w, [d])
    w.add_device(30)
    w.add_edge(30, 10)
    w.add_edge(30, 20)
    arrive(w, [30], t=1.0)
    w.run_until(2.0)
    assert w.nodes[30].attached == w.nodes[10].ssid


def test_join_timeout_falls_back_to_hosting():
    # device 2 sees root 1, but root 1 cannot see device 2 back, so the join
    # request is lost and the join timer must fire
    w = make_world()
    w.add_device(1)
    arrive(w, [1])
    w.run_until(0.5)
    w.vis[2] = {1}          # one-way visibility: 2 sees 1, 1 never sees 2
    w.add_device(2)
    arrive(w, [2], t=1.0)
    w.run_until(1.0 + w.p.join_timeout - 0.01)
    assert w.nodes[2].role != ROOT
    w.run_until(1.0 + w.p.join_timeout + 0.1)
    assert w.nodes[2].role == ROOT


def test_capacity_boundary():
    w = make_world()
    star(w, 1, range(2, 2 + w.p.max_members + 3))
    w.run_until(w.p.join_timeout * 3)
    admitted = members_of(w, w.nodes[1].ssid)
    assert len(admitted) == w.p.max_members
    rejected = set(range(2, 2 + w.p.max_members + 3)) - admitted
    assert len(rejected) == 3
    # rejects fall back to hosting their own (empty) subnets
    for d in rejected:
        assert w.nodes[d].role == ROOT


def test_duplicate_join_is_idempotent():
    w = make_world()
    star(w, 1, [2])
    w.run_until(1.0)
    root = w.nodes[1]
    before = dict(root.members)
    # a stray re-join from an existing member must not duplicate or reject
    from pear2pear.frames import Frame, FrameKind
    w.schedule(2.0, "frame", frame=Frame(FrameKind.JOIN_REQUEST, src=2, dst=1,
                                         payload={"ssid": root.ssid,
                                                  "wants_catalog": False}))
    w.run_until(3.0)
    assert set(root.members) == set(before)
    assert w.nodes[2].role == MEMBER


def test_polite_leave_purges_after_exact_countdown():
    w = make_world()
    star(w, 1, [2, 3])
    w.run_until(1.0)
    w.schedule(10.0, "depart", device=2, silent=False)
    w.run_until(200.0)
    root = w.nodes[1]
    assert 2 not in root.members
    (leaving,) = trace_events(w, "leaving", device=1)
    (purge,) = [r for r in trace_events(w, "purge", device=1)
                if r.details["peer"] == 2]
    assert purge.details["reason"] == "leave"
    assert purge.time - leaving.time == w.p.leave_countdown


def test_rejoin_during_countdown_cancels_purge():
    w = make_world()
    star(w, 1, [2, 3])
    w.run_until(1.0)
    w.schedule(10.0, "depart", device=2, silent=False)
    w.schedule(15.0, "arrive", device=2)
    w.run_until(10.0 + w.p.leave_countdown + 10.0)
    root = w.nodes[1]
    assert 2 in root.members
    assert root.members[2].leaving_since is None
    assert w.nodes[2].role == MEMBER
    assert not [r for r in trace_events(w, "purge", device=1)
                if r.details["peer"] == 2]


def test_second_leave_restarts_the_countdown():
    # the first leave's countdown fires while the member is leaving again;
    # only the countdown of the second leave may purge it
    w = make_world()
    star(w, 1, [2, 3])
    w.run_until(1.0)
    w.schedule(10.0, "depart", device=2, silent=False)
    w.schedule(15.0, "arrive", device=2)
    w.schedule(25.0, "depart", device=2, silent=False)
    w.run_until(25.0 + 2 * w.p.leave_countdown)
    assert 2 not in w.nodes[1].members
    leaving = [r for r in trace_events(w, "leaving", device=1) if r.details["peer"] == 2]
    assert len(leaving) == 2
    (purge,) = [r for r in trace_events(w, "purge", device=1)
                if r.details["peer"] == 2]
    assert purge.details["reason"] == "leave"
    assert purge.time == pytest.approx(leaving[1].time + w.p.leave_countdown)


def test_silent_member_purged_within_bound():
    w = make_world()
    star(w, 1, [2, 3])
    w.run_until(1.0)
    w.schedule(20.0, "depart", device=2, silent=True)
    w.run_until(20.0 + w.p.silent_timeout + w.p.ping_interval)
    root = w.nodes[1]
    assert 2 not in root.members
    (purge,) = [r for r in trace_events(w, "purge", device=1)
                if r.details["peer"] == 2]
    assert purge.details["reason"] == "silent"
    assert purge.time <= 20.0 + w.p.silent_timeout + w.p.ping_interval


def test_member_outlives_silent_timeout_while_responsive():
    # an idle member's scan reports keep it listed, and its scans, which list
    # its root's SSID, keep the root: the root sends it no PING at all
    w = make_world()
    star(w, 1, [2])
    frames = record_frames(w)
    w.run_until(2 * w.p.silent_timeout)
    assert not any(f.kind == FrameKind.PING and f.dst == 2 for f in frames)
    sent = {f.kind for f in frames if f.src == 2}
    assert FrameKind.SCAN_REPORT in sent and FrameKind.PONG not in sent
    assert 2 in w.nodes[1].members
    assert w.nodes[2].role == MEMBER
    assert trace_events(w, "root-lost") == []


# Root departs at 15 s, between member 2's scans at 10.02 and 20.02. When
# roots pinged every idle member, 2 last heard root 1 by the PING of 10.01
# and left at 40.02. Now its last beacon is the scan of 10.02, one
# silent_timeout before the check of 40.02 up to the rounding of two timer
# chains' sums, which the check allows for.
ROOT_GONE_AT, LEFT_BY = 15.0, 40.02


@pytest.mark.parametrize("hosts_again", [False, True], ids=["departs", "new-nonce"])
def test_a_member_whose_root_goes_leaves_no_later_than_with_pings(hosts_again):
    # the root departs silently, or hosts again a second later under a new
    # nonce: either way its old SSID is gone from the member's scans
    w = make_world()
    star(w, 1, [2])
    w.schedule(ROOT_GONE_AT, "depart", device=1, silent=True)
    if hosts_again:
        w.schedule(ROOT_GONE_AT + 1.0, "arrive", device=1)
    w.run_until(60.0)
    (lost,) = trace_events(w, "root-lost", device=2)
    assert lost.details["reason"] == "root-silent"
    assert lost.time <= LEFT_BY
    assert lost.time <= ROOT_GONE_AT + w.p.silent_timeout + w.p.scan_period
    if hosts_again:
        assert w.nodes[2].attached == w.nodes[1].ssid


@pytest.mark.parametrize("lands_at", [22.025, 22.03])
def test_a_target_root_does_not_ping_a_courier_whose_accept_is_in_flight(lands_at):
    # courier 2's JOIN_REQUEST reaches root 10 at 22.02 s, and root 10's ping
    # cycle runs while the JOIN_ACCEPT is in flight, or in the instant it
    # lands: a courier just admitted was just heard, so it gets no PING,
    # which would be lost as different-hotspot
    w = make_world()
    star(w, 1, [2])
    w.add_device(10)
    w.add_device(11)
    w.add_edge(11, 10)
    w.add_edge(2, 10)
    arrive(w, [10, 11], t=lands_at - 20.0)
    w.run_until(40.0)
    (admit,) = [r for r in trace_events(w, "admit", device=10) if r.details["peer"] == 2]
    assert admit.time == pytest.approx(22.02)
    lost = [r.details for r in w.trace if r.kind in ("undeliverable", "drop")]
    assert lost == []


def test_root_loss_sends_members_back_to_scanning():
    w = make_world()
    star(w, 1, [2, 3])
    w.add_edge(2, 3)
    w.run_until(1.0)
    w.schedule(5.0, "depart", device=1, silent=True)
    w.run_until(5.0 + w.p.silent_timeout + w.p.ping_interval + w.p.join_timeout + 5.0)
    # survivors regroup into a new subnet among themselves
    assert not w.nodes[1].active
    states = {w.nodes[2].role, w.nodes[3].role}
    assert states == {ROOT, MEMBER}


def test_new_hosting_generation_gets_fresh_ssid():
    w = make_world()
    w.add_device(1)
    arrive(w, [1])
    w.run_until(1.0)
    first = w.nodes[1].ssid
    w.schedule(2.0, "depart", device=1, silent=True)
    w.schedule(3.0, "arrive", device=1)
    w.run_until(4.0)
    second = w.nodes[1].ssid
    assert w.nodes[1].role == ROOT
    assert first != second
    assert parse_ssid(first).root_id == parse_ssid(second).root_id == 1


def test_a_rejected_joiner_falls_back_to_the_next_hotspot():
    # root 1 is full and root 2 is open; device 50 sees both, asks 1 first
    # (lower SSID), is rejected and joins 2. The first request's timer must
    # not act on the second exchange.
    w = make_world(max_members=2)
    star(w, 1, [3, 4])
    star(w, 2, [])
    w.add_device(50)
    w.add_edge(50, 1)
    w.add_edge(50, 2)
    arrive(w, [50], t=5.0)
    w.run_until(5.0 + 2 * w.p.join_timeout)
    (reject,) = [r for r in trace_events(w, "recv", device=50)
                 if r.details["frame"] == FrameKind.JOIN_REJECT.name]
    assert reject.time == pytest.approx(5.02) and reject.details["src"] == 1
    node = w.nodes[50]
    assert node.role == MEMBER
    assert node.attached == w.nodes[2].ssid
    assert members_of(w, w.nodes[2].ssid) == {50}
    assert [r.details["role"] for r in trace_events(w, "role", device=50)] == [MEMBER]


def _shipped(name):
    return run_scenario(load_scenario(str(SCENARIOS / name)))


def _generated(name):
    sc = parse_scenario(workloads.WORKLOADS[name](SEED, **TINY[name]))
    world = build_world(sc)
    world.run_until(sc.until)
    return world


RUNS = [(_shipped, p.name) for p in sorted(SCENARIOS.glob("*.json"))] + [
    (_generated, name) for name in sorted(TINY)]


@pytest.mark.parametrize("run, name", RUNS, ids=[name for _, name in RUNS])
def test_no_frame_goes_to_a_member_out_on_a_courier_order(run, name):
    # a root pings, and sends wanted files to, only members that are here,
    # and lists only holders that are here as sources; a member out on an
    # order is attached to another hotspot or to none
    kinds = {FrameKind.PING.name, FrameKind.WANTED_FILE.name, FrameKind.BLOCK_REQUEST.name}
    lost = [r for r in run(name).trace
            if r.kind in ("undeliverable", "drop") and r.details["frame"] in kinds
            and r.details["reason"] == "different-hotspot"]
    assert lost == []
