"""Kernel layer: subnet formation, membership, leave/silent cleanup."""

import pathlib

import pytest

from pear2pear.core import parse_ssid
from pear2pear.frames import FrameKind
from pear2pear.node import MEMBER, ROOT, SCANNING, Node
from pear2pear.params import Params
from pear2pear.scenario import (
    ScenarioError, build_world, check_params, load_scenario, parse_scenario, run_scenario,
)

from helpers import (
    arrive, clique, make_world, members_of, record_frames, roots_of, send_times, star,
    trace_events,
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


def test_a_member_gone_silent_after_a_beacon_is_purged_within_its_skipped_scan():
    # member 2 beacons at 20.02 s and departs silently at 20.5 s. It may
    # skip one scan between beacons, so root 1 counts its silence from the
    # scan of 30.02: it pings it at 50 and 60 s, once it has missed a beacon,
    # and purges it at 70 s, the first cycle silent_timeout after that scan
    w = make_world()
    star(w, 1, [2])
    w.schedule(20.5, "depart", device=2, silent=True)
    w.run_until(100.0)
    (purge,) = trace_events(w, "purge", device=1)
    assert purge.details == {"peer": 2, "reason": "silent"}
    assert purge.time == pytest.approx(70.0)
    skipped = (w.p.beacon_scans - 1) * w.p.scan_period
    assert purge.time <= 20.5 + w.p.silent_timeout + skipped + w.p.ping_interval
    pings = [r.time for r in trace_events(w, "undeliverable", device=1)
             if r.details["frame"] == FrameKind.PING.name]
    assert pings == pytest.approx([50.0, 60.0])


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


def _drop_one_report(w, after):
    """Lose in flight the first SCAN_REPORT sent after `after`: it leaves
    its sender and never lands. Returns the list its loss time goes to."""
    link_loss, flying, lost = w._link_loss, [], []

    def lossy(frame):
        if frame.kind == FrameKind.SCAN_REPORT and not lost and w.clock > after:
            if any(f is frame for f in flying):   # its second check: at delivery
                lost.append(w.clock)
                return "lost-in-flight"
            flying.append(frame)
        return link_loss(frame)

    w._link_loss = lossy
    return lost


def test_an_idle_member_beacons_once_per_k_scans_and_is_never_pinged():
    # member 2 joins at 0.02 s and scans every 10 s; with nothing new to
    # report it beacons on every k-th scan, which keeps it listed: its root
    # neither pings nor purges it
    w = make_world()
    star(w, 1, [2])
    frames = record_frames(w)
    w.run_until(5 * w.p.silent_timeout)
    k = w.p.beacon_scans
    assert k == 2
    assert not any(f.kind == FrameKind.PING for f in frames)
    assert trace_events(w, "purge") == []
    reports = send_times(w, 2, FrameKind.SCAN_REPORT)
    assert reports == pytest.approx([0.02 + k * w.p.scan_period * i for i in range(8)])
    assert 2 in w.nodes[1].members


def test_a_change_in_the_visible_list_reaches_the_root_by_the_next_scan():
    # root 10 appears to member 2 at 25 s and goes at 45 s: each change is
    # reported at the next scan (30.02, 50.02), neither of which is a beacon
    w = make_world()
    star(w, 1, [2])
    w.add_device(10)
    w.add_edge(2, 10)
    arrive(w, [10], t=25.0)
    w.schedule(45.0, "depart", device=10, silent=True)
    root, lat = w.nodes[1], w.p.link_latency
    w.run_until(30.02 + lat + 1e-6)
    info = root.subnets.neighbors.get(w.nodes[10].ssid)
    assert info is not None and info.reachable_by == {2}
    w.run_until(50.02 + lat + 1e-6)
    assert root.subnets.neighbors[w.nodes[10].ssid].reachable_by == set()
    assert send_times(w, 2, FrameKind.SCAN_REPORT) == pytest.approx([0.02, 20.02, 30.02, 50.02])


@pytest.mark.parametrize("joins_at", [0.02, 9.985])
def test_one_beacon_lost_in_flight_does_not_purge_an_idle_member(joins_at):
    # member 2 beacons every 20 s from its join, and its beacon of
    # joins_at + 20 never lands. Joined at 0.02 s, it was last heard at 0.03
    # s, and root 1's cycle of 30 s finds it a beacon overdue. Joined at
    # 9.985 s, it was last heard at 9.995 s, and the cycle of 30 s comes
    # 5 ms too soon: the cycle of 40 s pings it, within the silence it may
    # skip. Either way its PONG keeps it listed.
    w = make_world()
    w.add_device(1)
    w.add_device(2)
    w.add_edge(2, 1)
    arrive(w, [1])
    arrive(w, [2], t=joins_at - 2 * w.p.link_latency)
    frames = record_frames(w)
    lost = _drop_one_report(w, after=joins_at + 15.0)
    w.run_until(5 * w.p.silent_timeout)
    assert lost == pytest.approx([joins_at + 20.0 + w.p.link_latency])
    assert trace_events(w, "purge") == []
    assert [(f.src, f.dst) for f in frames if f.kind in (FrameKind.PING, FrameKind.PONG)] \
        == [(1, 2), (2, 1)]
    assert 2 in w.nodes[1].members and w.nodes[2].role == MEMBER


def _purged_after_a_lost_beacon(scan_period, phases=40):
    """Of `phases` joins 0.5 s apart, how many a root purges after losing the
    member's first beacon."""
    purged = 0
    for i in range(phases):
        joins_at = 0.02 + 0.5 * i
        w = make_world(scan_period=scan_period)
        w.add_device(1)
        w.add_device(2)
        w.add_edge(2, 1)
        arrive(w, [1])
        arrive(w, [2], t=joins_at - 2 * w.p.link_latency)
        lost = _drop_one_report(w, after=joins_at + 15.0)
        w.run_until(joins_at + 5 * w.p.silent_timeout)
        assert lost, joins_at
        purged += bool(trace_events(w, "purge"))
    return purged


def test_one_lost_beacon_purges_no_member_when_it_beacons_every_scan():
    # Past a scan_period of 10 s a member beacons on every scan (k = 1). At
    # 19.99 s, the longest check_params accepts, the PING that a lost beacon
    # earns comes a ping cycle before the purge at every phase of the join
    # against the root's cycle. At 25 s, which it refuses, half the phases
    # find the member silent before any PING.
    accepted, refused = Params(scan_period=19.99), Params(scan_period=25.0)
    check_params(accepted)
    assert accepted.beacon_scans == refused.beacon_scans == 1
    with pytest.raises(ScenarioError):
        check_params(refused)
    assert _purged_after_a_lost_beacon(19.99) == 0
    assert _purged_after_a_lost_beacon(25.0) == 20


def test_a_neighbour_kept_only_by_unchanged_beacons_does_not_expire():
    # no courier runs, so only member 2's beacons, one per k scans, refresh
    # root 10 at root 1; neighbor_ttl is barely longer than a beacon period
    w = make_world(courier_period=1000.0, neighbor_ttl=25.0)
    star(w, 1, [2])
    star(w, 10, [11])
    w.add_edge(2, 10)
    root = w.nodes[1]
    for t in range(1, int(5 * w.p.neighbor_ttl)):
        w.run_until(float(t))
        assert w.nodes[10].ssid in root.subnets.neighbors, t
    beacons = [0.02 + 20.0 * i for i in range(7)]
    assert send_times(w, 2, FrameKind.SCAN_REPORT) == pytest.approx(beacons)


# Root departs at 15 s, between member 2's scans at 10.02 and 20.02. When
# roots pinged every idle member, 2 last heard root 1 by the PING of 10.01
# and left at 40.02. Now its last beacon is the scan of 10.02, one
# silent_timeout before the check of 40.02 up to the rounding of the scan
# timer's sums, which the check allows for.
ROOT_GONE_AT, LEFT_BY = 15.0, 40.02


# With other scan periods the root departs at 22 s. At a scan_period of 7 s
# that is just after member 2's scan of 21.02, its last beacon: a root check
# on a ping_interval timer of its own found the root silent only at 60.02,
# later than silent_timeout + scan_period after the departure.
@pytest.mark.parametrize("hosts_again, scan_period, gone_at", [
    (False, 10.0, ROOT_GONE_AT), (True, 10.0, ROOT_GONE_AT),
    (False, 7.0, 22.0), (True, 7.0, 22.0), (False, 12.0, 22.0), (True, 12.0, 22.0),
], ids=["departs", "new-nonce", "departs-scan-7", "new-nonce-scan-7",
        "departs-scan-12", "new-nonce-scan-12"])
def test_a_member_whose_root_goes_leaves_no_later_than_with_pings(hosts_again, scan_period,
                                                                   gone_at):
    # the root departs silently, or hosts again a second later under a new
    # nonce: either way its old SSID is gone from the member's scans. The
    # member checks its root at each scan, whatever the root's ping_interval.
    w = make_world(scan_period=scan_period, ping_interval=10.0)
    star(w, 1, [2])
    w.schedule(gone_at, "depart", device=1, silent=True)
    if hosts_again:
        w.schedule(gone_at + 1.0, "arrive", device=1)
    w.run_until(70.0)
    (lost,) = trace_events(w, "root-lost", device=2)
    assert lost.details["reason"] == "root-silent"
    assert lost.time <= gone_at + w.p.silent_timeout + scan_period
    if scan_period == Params().scan_period:
        assert lost.time <= LEFT_BY
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


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("name", sorted(TINY))
def test_no_live_member_is_purged_as_silent(name, seed, monkeypatch):
    # at the instant a root purges a member as silent, the member has left
    # or is attached to another hotspot (or to none, mid-hop)
    purges = []
    purge = Node._purge_member

    def checked(node, now, peer, reason, out):
        if reason == "silent":
            gone = w.nodes[peer]
            purges.append((now, peer, gone.active and gone.attached == node.ssid))
        purge(node, now, peer, reason, out)

    monkeypatch.setattr(Node, "_purge_member", checked)
    sc = parse_scenario(workloads.WORKLOADS[name](seed, **TINY[name]))
    w = build_world(sc)
    w.run_until(sc.until)
    assert [p for p in purges if p[2]] == []
