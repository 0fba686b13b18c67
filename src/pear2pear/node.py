"""Per-device protocol state machine.

One Node instance drives one device through every role: scanning, joining,
subnet member, or hotspot root. Handlers receive an event plus the current
simulation time and return a list of actions (frames to send, hops, timers,
trace notes) for the host to execute; nodes never touch the world directly.
"""

from dataclasses import dataclass

from . import core, routing, transfer
from .actions import HopTo, Note, RequestScan, Send, StartTimer
from .catalog import NetworkFileCatalog, SubnetCatalog
from .core import FileId, FileMeta, parse_ssid, render_ssid
from .frames import PROTOCOL_VERSION, Frame, FrameKind as K
from .params import Params

SCANNING = "scanning"
JOINING = "joining"
MEMBER = "member"
ROOT = "root"


@dataclass
class MembershipRecord:
    """A member as its root knows it. `away` is the order it is out on; an
    away member is never purged, so no order vanishes with its record.
    `beacons` once it has sent a scan report: it then sends one at least
    every beacon period."""
    last_seen: float
    leaving_since: float | None = None
    away: transfer.CourierMission | None = None
    beacons: bool = False


@dataclass
class WantedEntry:
    query: str
    by: str
    requester: int
    emitted: int = 0


@dataclass
class FileRequest:
    """One file request at its root, served by a single courier or by a
    swarm of one per block range: its orders are those its members are away
    on with its session id. A swarm may replace one lost courier; a single
    courier is not replaced."""
    requester: int
    reassigned: bool = False


def _id_digest(query):
    """The digest an id query names, in any spelling `FileId.from_hex` takes,
    or None."""
    try:
        return FileId.from_hex(query).digest
    except ValueError:
        return None


def _ignore_frame(node, now, src, payload, out):
    """PONG: the dispatch preamble refreshed its sender's last_seen."""


class Node:
    def __init__(self, device: int, params: Params, shared_files=()):
        self.device = device
        self.p = params
        self.files: dict[FileId, bytes] = {}
        self.metas: dict[FileId, FileMeta] = {}
        for file in shared_files:   # (name, content), or with its FileId known
            self.store_file(*file)

        self.active = True
        self.ssid: str | None = None   # the last SSID hosted
        self.generation = 0
        self._counter = 0
        self.term = 0
        self._new_life()

    def _enter(self, role):
        """Take `role` in a new term: timers and hops begun in the old one are dropped."""
        self.role = role
        self.term += 1

    def _new_life(self):
        """Scan afresh with no role state: on every arrival, and when a
        member loses its hotspot."""
        self._enter(SCANNING)
        self.attached: str | None = None

        # the join exchange: the SSID asked, and the one (ssid, delay) to ask
        # after a reject
        self.joining: str | None = None
        self.join_retry: tuple | None = None

        # member
        self.home_root: int | None = None
        self.last_root_seen = 0.0
        # the foreign SSIDs last reported (None: report at the next scan), and the scans since
        self.reported: tuple | None = None
        self.unreported_scans = 0

        # root
        self.members: dict[int, MembershipRecord] = {}
        self.catalog: NetworkFileCatalog | None = None
        self.subnets: SubnetCatalog | None = None
        self.wanted: dict[str, WantedEntry] = {}
        self.requests: dict[str, FileRequest] = {}  # by the request's session id
        self._courier_cycle_n = 0

        # courier / transfer
        self.mission: transfer.CourierMission | None = None
        self.sessions: dict[str, transfer.TransferSession] = {}

    # ------------------------------------------------------------------ utils

    def store_file(self, name: str, content: bytes, file_id: FileId | None = None) -> FileMeta:
        meta = core.make_meta(name, content, self.p.block_size, file_id)
        if meta.file_id in self.metas:
            self.metas[meta.file_id].names |= meta.names
        else:
            self.files[meta.file_id] = content
            self.metas[meta.file_id] = meta
        return self.metas[meta.file_id]

    def _new_id(self) -> str:
        self._counter += 1
        return f"{self.device}-{self._counter}"

    @staticmethod
    def _meta_payload(digest: bytes, meta) -> dict:
        """The payload of a file: its digest, and the names, size and block
        count of `meta`, a `FileMeta` or a catalog entry."""
        return {"file_id": digest, "names": tuple(sorted(meta.names)),
                "size": meta.size, "block_count": meta.block_count}

    @staticmethod
    def _meta_from_payload(raw: dict) -> FileMeta:
        return FileMeta(FileId(raw["file_id"]), set(raw["names"]),
                        raw["size"], raw["block_count"])

    def _send(self, out, kind, dst, payload, now):
        """Send a frame, or dispatch internally when the destination is this
        device (a root talking to itself never crosses the radio)."""
        frame = Frame(kind=kind, src=self.device, dst=dst, payload=payload)
        if dst == self.device:
            self._dispatch_frame(now, frame, out)
        else:
            out.append(Send(frame))

    def _after(self, out, delay, handler, *args):
        """Arm `handler(now, out, *args)` to fire after `delay` within this term."""
        out.append(StartTimer(delay, (self.term, handler) + args))

    def detach(self):
        """Called by the world when a hop physically leaves the hotspot."""
        self.attached = None

    # --------------------------------------------------------------- arrivals

    def on_arrive(self, now: float) -> list:
        out = [Note("arrive", {})]
        self._new_life()
        out.append(RequestScan())
        return out

    def on_depart(self, now: float, silent: bool) -> list:
        """A departure ends the device's downloads; its mission and any hop
        in flight end with the next arrival's new life."""
        out = [Note("depart", {"silent": silent})]
        if not silent and self.role == MEMBER and self.attached:
            self._send(out, K.LEAVE_NOTICE, self.home_root, {}, now)
        for sid in sorted(self.sessions):
            self._session_fail(now, self.sessions[sid], "departed", out)
        return out

    # ------------------------------------------------------------------- scan

    def on_scan(self, now: float, ssids: list) -> list:
        out = []
        if self.role == SCANNING:
            candidates = [s for s in ssids if parse_ssid(s) is not None]
            if candidates:
                # a rejected joiner asks the next hotspot at once, and only that one
                self._enter(JOINING)
                self._request_join(now, out, candidates[0],
                                   (candidates[1], 0.0) if len(candidates) > 1 else None)
            else:
                self._become_root(now, out)
        elif self.role == MEMBER and self.mission is None:
            if self.attached in ssids:   # its root is on the air, so alive
                self.last_root_seen = now
            foreign = tuple(s for s in ssids if s != self.attached and parse_ssid(s) is not None)
            # a change at once; an unchanged list as a beacon every beacon_scans scans
            self.unreported_scans += 1
            if foreign != self.reported or self.unreported_scans >= self.p.beacon_scans:
                self.reported, self.unreported_scans = foreign, 0
                self._send(out, K.SCAN_REPORT, self.home_root, {"visible": foreign}, now)
        return out

    def _become_root(self, now, out):
        self.generation += 1
        nonce = core.allocate_nonce(self.device, self.generation)
        self.ssid = render_ssid(core.Ssid(self.device, nonce))
        self._enter(ROOT)
        self.attached = self.ssid
        self.catalog = NetworkFileCatalog(self.ssid, self.p.courier_ttl)
        self.catalog.register_files(self.device, self.metas.values())
        self.subnets = SubnetCatalog()
        self._after(out, self.p.ping_interval, self._t_ping)
        self._after(out, self.p.courier_period, self._t_courier)
        out.append(Note("role", {"role": ROOT, "ssid": self.ssid}))

    def _become_member(self, now, ssid, root_id, out):
        self._enter(MEMBER)
        self.attached = ssid
        self.home_root = root_id
        self.last_root_seen = now
        files = tuple(self._meta_payload(fid.digest, m) for fid, m in sorted(self.metas.items()))
        self._send(out, K.FILE_LIST, root_id, {"files": files, "removed": ()}, now)
        out.append(RequestScan())
        self._after(out, self.p.scan_period, self._t_scan_report)
        out.append(Note("role", {"role": MEMBER, "ssid": ssid}))

    def _to_scanning(self, now, out, reason):
        out.append(Note("root-lost", {"reason": reason}))
        for sid in sorted(self.sessions):
            self._session_fail(now, self.sessions[sid], reason, out)
        self._new_life()
        out.append(RequestScan())

    # ------------------------------------------------------------------ frames

    def on_frame(self, now: float, frame: Frame) -> list:
        out = []
        if frame.version != PROTOCOL_VERSION:
            out.append(Note("bad-version", {"version": frame.version}))
            return out
        self._dispatch_frame(now, frame, out)
        return out

    def _dispatch_frame(self, now, frame, out):
        src = frame.src
        if self.role == ROOT and src in self.members:
            self.members[src].last_seen = now
        if self.role == MEMBER and src == self.home_root:
            self.last_root_seen = now

        self._HANDLERS[frame.kind](self, now, src, frame.payload, out)

    # kernel: membership ----------------------------------------------------

    def _here(self, peer):
        """This root, or a member neither leaving nor away on an order."""
        rec = self.members.get(peer)
        return peer == self.device or rec and rec.leaving_since is None and rec.away is None

    def _h_join_request(self, now, src, payload, out):
        if self.role != ROOT or payload.get("ssid") != self.ssid:
            return
        wants_catalog = bool(payload.get("wants_catalog"))
        rec = self.members.get(src)
        if rec is not None:
            rec.leaving_since = None
        elif sum(r.leaving_since is None for r in self.members.values()) < self.p.max_members:
            self.members[src] = MembershipRecord(now)
            out.append(Note("admit", {"peer": src}))
        else:
            self._send(out, K.JOIN_REJECT, src, {"ssid": self.ssid}, now)
            out.append(Note("reject", {"peer": src}))
            return
        self._send(out, K.JOIN_ACCEPT, src, {"ssid": self.ssid, "root": self.device}, now)
        if wants_catalog:
            # the joiner only attaches once the accept lands; send the
            # snapshot after that round trip so it is deliverable
            self._after(out, 2 * self.p.link_latency,
                        self._t_snapshot, src, payload.get("since", 0))

    # The joiner's side serves a scanning device, a courier at its target and
    # a courier back home; each answer picks its outcome from whom it serves:
    # the mission, which is None for a scanning device.

    def _request_join(self, now, out, ssid, retry=None):
        """Ask the root of `ssid` for admission and arm the timeout; `retry` is
        the one (ssid, delay) to ask after a reject. A catalog courier at its
        target asks for the target's catalog cut against `since`."""
        m = self.mission
        self.joining, self.join_retry = ssid, retry
        payload = {"ssid": ssid, "wants_catalog": False}
        if m is not None and m.kind == "catalog" and ssid == m.target:
            payload.update(wants_catalog=True, since=m.since)
        self._send(out, K.JOIN_REQUEST, parse_ssid(ssid).root_id, payload, now)
        self._after(out, self.p.join_timeout, self._t_join_timeout, ssid, m and m.mission_id)

    def _join_open(self, ssid, mid):
        """Whether the exchange a timer was armed for still waits: `ssid` is
        still asked, for mission `mid` or, with `mid` None, while scanning."""
        m = self.mission
        return self.joining == ssid and (m and m.mission_id) == mid

    def _h_join_accept(self, now, src, payload, out):
        if self.joining is None or payload.get("ssid") != self.joining:
            return
        ssid, m = self.joining, self.mission
        self.joining = self.join_retry = None
        if m is None:
            self._become_member(now, ssid, src, out)
            return
        self.attached = ssid
        if ssid != m.target:
            self._deliver_mission(now, out)   # home again
            return
        m.phase = transfer.M_WORKING
        if m.kind == "file":
            m.sub_session = transfer.TransferSession(f"{m.mission_id}/sub", m.file_id)
            self._send(out, K.DOWNLOAD_REQUEST, src,
                       {"file_id": m.file_id.digest,
                        "session_id": m.sub_session.session_id,
                        "origin": m.origin,
                        "ttl": m.ttl - 1, "user": False}, now)
        self._after(out, self.p.mission_timeout, self._t_mission_work, m.mission_id)

    def _h_join_reject(self, now, src, payload, out):
        if self.joining is None or payload.get("ssid") != self.joining:
            return
        retry, self.join_retry = self.join_retry, None
        if retry is None:
            self._join_failed(now, out, rejected=True)
            return
        ssid, delay = retry
        if delay:  # a courier asks its target again; the first deadline stays live
            self._after(out, delay, self._t_join_retry, ssid, self.mission.mission_id)
        else:
            self._request_join(now, out, ssid)

    def _join_failed(self, now, out, rejected):
        """Rejected or timed out: a scanning device hosts, a courier at its
        target heads home and a courier at home gives it up."""
        ssid, m = self.joining, self.mission
        self.joining = self.join_retry = None
        if m is None:
            self._become_root(now, out)
        elif ssid == m.target:
            self._head_home(m, out, "join-rejected" if rejected else "join-timeout")
        else:
            self._to_scanning(now, out, "rejoin-rejected" if rejected else "home-unreachable")

    def _t_join_timeout(self, now, out, ssid, mid):
        if self._join_open(ssid, mid):
            self._join_failed(now, out, rejected=False)

    def _t_join_retry(self, now, out, ssid, mid):
        if self._join_open(ssid, mid):
            self._request_join(now, out, ssid)

    def _h_leave_notice(self, now, src, payload, out):
        if self.role != ROOT:
            return
        rec = self.members.get(src)
        if rec is None or rec.leaving_since is not None:
            return
        self._lose_order(now, src, out)
        rec.leaving_since = now
        self.subnets.drop_peer(src)
        self._after(out, self.p.leave_countdown, self._t_leave_countdown, src, now)
        out.append(Note("leaving", {"peer": src}))

    def _purge_member(self, now, peer, reason, out):
        self.members.pop(peer, None)
        self.catalog.drop_holder(peer)
        self.subnets.drop_peer(peer)
        out.append(Note("purge", {"peer": peer, "reason": reason}))

    def _h_ping(self, now, src, payload, out):
        # an idle member's beacons keep it from being pinged unless one was lost
        self._send(out, K.PONG, src, {}, now)

    # catalogs --------------------------------------------------------------

    def _h_file_list(self, now, src, payload, out):
        if self.role != ROOT or src not in self.members:
            return
        # an away member lists files only for a new membership (a courier back reports first)
        self._lose_order(now, src, out)
        added = [self._meta_from_payload(raw) for raw in payload.get("files", [])]
        removed = [FileId(d) for d in payload.get("removed", [])]
        self.catalog.apply_file_change(src, added, removed)
        self._check_wanted(now, added, out)

    def _h_scan_report(self, now, src, payload, out):
        if self.role == ROOT and self._here(src):
            self.members[src].beacons = True
            self.subnets.report_scan(src, payload.get("visible", []), now)

    def _h_catalog_snapshot(self, now, src, payload, out):
        m = self.mission
        if m is not None and m.kind == "catalog" and m.phase == transfer.M_WORKING:
            m.snapshot = payload["snapshot"]
            self._leave_target(now, out)
            return
        if self.role == ROOT:
            order = self._end_order(src, payload.get("mission_id", ""))
            if order is None or order.target not in self.subnets.neighbors:
                # its records would route through a gateway this root no
                # longer lists, and its mirror went with the neighbour
                return
            if self.catalog.merge_snapshot(payload["snapshot"], payload["via"], now):
                out.append(Note("catalog-merge", {"via": payload["via"]}))

    # search and wanted -----------------------------------------------------

    def on_user_search(self, now: float, query: str, by: str = "name") -> list:
        out = [Note("search", {"query": query, "by": by})]
        if self.role in (MEMBER, ROOT):
            root = self.device if self.role == ROOT else self.home_root
            self._send(out, K.SEARCH_REQUEST, root, {"query": query, "by": by}, now)
        else:
            out.append(Note("search-result", {"ok": False, "count": 0, "query": query}))
        return out

    def _search_results(self, query, by):
        """The SEARCH_RESPONSE result of each file this root knows a source of."""
        if by == "id":
            digest = _id_digest(query)
            digests = [digest] if digest in self.catalog.entries else []
        else:
            digests = self.catalog.lookup_name(query)
        for digest in digests:
            entry = self.catalog.entries[digest]
            if entry.holders:
                locality, hops = "local", 0
            elif entry.remote:
                hops = min(r[0] for r in entry.remote.values())
                locality = "remote"
            else:
                continue
            yield {**self._meta_payload(digest, entry), "locality": locality, "hops": hops}

    def _h_search_request(self, now, src, payload, out):
        if self.role != ROOT:
            return
        query = payload.get("query", "")
        by = payload.get("by", "name")
        results = tuple(self._search_results(query, by))
        self._send(out, K.SEARCH_RESPONSE, src,
                   {"ok": bool(results), "results": results,
                    "query": query, "by": by}, now)
        if not results:
            self._start_wanted(now, query, by, src, out)

    def _h_search_response(self, now, src, payload, out):
        out.append(Note("search-result", {"ok": payload.get("ok", False),
                                          "count": len(payload.get("results", [])),
                                          "query": payload.get("query", "")}))

    def _start_wanted(self, now, query, by, requester, out):
        digest = _id_digest(query) if by == "id" else None  # one entry per file
        key = f"id:{digest.hex()}" if digest else f"{by}:{query}"
        if key in self.wanted:
            return
        self.wanted[key] = WantedEntry(query=query, by=by, requester=requester)
        self._emit_wanted(now, key, out)

    def _emit_wanted(self, now, key, out):
        entry = self.wanted.get(key)
        if entry is None:
            return
        entry.emitted += 1
        out.append(Note("wanted-emit", {"key": key, "n": entry.emitted}))
        for peer in filter(self._here, sorted(self.members)):
            self._send(out, K.WANTED_FILE, peer,
                       {"query": entry.query, "by": entry.by}, now)
        if entry.emitted >= self.p.wanted_max + 1:
            del self.wanted[key]
            out.append(Note("wanted-dead", {"key": key}))
        else:
            self._after(out, self.p.wanted_repeat, self._t_wanted, key)

    def _check_wanted(self, now, added_metas, out):
        for key in sorted(self.wanted):
            entry = self.wanted[key]
            hit = None
            for meta in added_metas:
                if entry.by == "name" and entry.query in meta.names:
                    hit = meta
                elif entry.by == "id" and _id_digest(entry.query) == meta.file_id.digest:
                    hit = meta
            if hit is None:
                continue
            results = tuple(self._search_results(entry.query, entry.by))
            self._send(out, K.SEARCH_RESPONSE, entry.requester,
                       {"ok": True, "results": results,
                        "query": entry.query, "by": entry.by}, now)
            del self.wanted[key]
            out.append(Note("wanted-resolved", {"key": key}))

    def _h_wanted_file(self, now, src, payload, out):
        out.append(Note("wanted-seen", {"query": payload.get("query", "")}))

    # download orchestration ------------------------------------------------

    def on_user_download(self, now: float, file_id: FileId) -> list:
        out = []
        sid = self._new_id()
        out.append(Note("download-start", {"session": sid, "file": file_id.short}))
        if file_id in self.files:
            # Already holding identical content: complete with zero frames.
            out.append(Note("download-source", {"session": sid, "mode": "duplicate",
                                                "hops": 0}))
            out.append(Note("download-complete", {"session": sid,
                                                  "file": file_id.short,
                                                  "duplicate": True}))
            return out
        if self.role not in (MEMBER, ROOT):
            out.append(Note("download-failed", {"session": sid, "reason": "unattached"}))
            return out
        sess = transfer.TransferSession(sid, file_id)
        self.sessions[sid] = sess
        target = self.device if self.role == ROOT else self.home_root
        self._send(out, K.DOWNLOAD_REQUEST, target,
                   {"file_id": file_id.digest, "session_id": sid, "user": True}, now)
        self._after(out, self.p.session_timeout, self._t_session_timeout, sid)
        return out

    def _eligible_couriers(self, now, gateway, exclude=()):
        """Members here that can fly to `gateway` now. A member unheard for
        `silent_timeout` may have left silently: ordering it again would
        keep it away, and so from the silent purge."""
        info = self.subnets.neighbors.get(gateway)
        if info is None:
            return set()
        return {p for p in info.reachable_by if self._here(p) and p not in exclude
                and now - self.members[p].last_seen < self.p.silent_timeout}

    def _order(self, now, out, mission, exclude=()):
        """Hand `mission` to the next eligible courier for its target, which
        is away on it until it reports or the deadline lapses. Returns None,
        drawing no mission id, when nobody can go."""
        courier = routing.designate_courier(
            self.subnets, mission.target,
            eligible=self._eligible_couriers(now, mission.target, exclude))
        if courier is None:
            return None
        mission.courier = courier
        mission.mission_id = mid = self._new_id()
        if mission.kind == "catalog":
            mirror = self.catalog.mirrors.get(mission.target)
            mission.since = mirror.version if mirror else 0
        self.members[courier].away = mission
        self._send(out, K.COURIER_ORDER, courier, mission.order(), now)
        self._after(out, self.p.mission_timeout, self._t_mission_deadline, courier, mid)
        out.append(Note("courier-assign", {"courier": courier, "target": mission.target,
                                           "mission": mission.kind,
                                           "session": mission.session_id}))
        return mission

    def _refuse(self, now, out, dst, sid, reason):
        self._send(out, K.SOURCE_LIST, dst,
                   {"ok": False, "session_id": sid, "reason": reason}, now)

    def _h_download_request(self, now, src, payload, out):
        if self.role != ROOT:
            return
        if src != self.device and src not in self.members:
            return
        file_id = FileId(payload["file_id"])
        sid = payload["session_id"]
        origin = payload.get("origin") or sid
        req_ttl = payload.get("ttl", self.p.courier_ttl)
        is_user = payload.get("user", True)
        sel = routing.select_source(self.catalog, file_id.digest)
        entry = self.catalog.entries.get(file_id.digest)

        if isinstance(sel, routing.Local):
            holders = [h for h in sel.holders if h != src]
            here = tuple(filter(self._here, holders))
            if not here:
                self._refuse(now, out, src, sid, "holder-away" if holders else "no-source")
                return
            self._send(out, K.SOURCE_LIST, src,
                       {"ok": True, "mode": "pull", "session_id": sid,
                        "file_id": file_id.digest, "sources": here, "hops": 0,
                        "meta": self._meta_payload(file_id.digest, entry)}, now)
            return

        if isinstance(sel, routing.Remote):
            if req_ttl < 1:
                self._refuse(now, out, src, sid, "ttl")
                return
            eligible = self._eligible_couriers(now, sel.gateway, exclude={src})
            ranges = [None]
            if is_user and sel.hops == 1 and entry.block_count >= self.p.swarm_threshold \
                    and len(eligible) >= 2:
                # no more ranges than blocks: an empty range's courier could only time out
                ranges = routing.partition_blocks(entry.block_count, min(
                    len(eligible), self.p.max_swarm, entry.block_count))
            orders = [self._order(now, out, transfer.CourierMission(
                "", "file", sel.gateway, ttl=req_ttl, file_id=file_id,
                block_range=rng, requester=src, session_id=sid, origin=origin),
                exclude={src}) for rng in ranges]
            if not any(orders):
                self._refuse(now, out, src, sid, "no-courier")
                return
            self.requests[sid] = FileRequest(requester=src, reassigned=len(ranges) == 1)
            self._send(out, K.SOURCE_LIST, src,
                       {"ok": True, "mode": "push", "session_id": sid,
                        "file_id": file_id.digest, "hops": sel.hops,
                        "meta": self._meta_payload(file_id.digest, entry)}, now)
            return

        self._refuse(now, out, src, sid, "notfound")
        if is_user:
            self._start_wanted(now, file_id.hex, "id", src, out)

    # requester / courier reception of SourceList ---------------------------

    def _session(self, sid):
        """A user download's session, or the current mission's sub-fetch."""
        sess = self.sessions.get(sid)
        m = self.mission
        if sess is None and m is not None and m.sub_session is not None \
                and m.sub_session.session_id == sid:
            sess = m.sub_session
        return sess

    def _h_source_list(self, now, src, payload, out):
        sess = self._session(payload.get("session_id", ""))
        if sess is None:
            return
        if not payload.get("ok"):
            # refused up front, or every courier of a push has failed
            if sess.phase in (transfer.PHASE_INIT, transfer.PHASE_PUSH):
                self._session_fail(now, sess, payload.get("reason", "refused"), out)
            return
        if sess.phase != transfer.PHASE_INIT:
            return
        meta = self._meta_from_payload(payload["meta"])
        sess.hops_used = payload.get("hops", 0)
        block_range = None if sess.session_id in self.sessions else self.mission.block_range
        out.append(Note("download-source", {"session": sess.session_id,
                                            "mode": payload["mode"],
                                            "hops": sess.hops_used}))
        if payload["mode"] == "pull":
            sess.begin_pull(meta, payload["sources"], block_range)
            self._session_pump(now, sess, out)
            self._after(out, self.p.block_timeout, self._t_block_timeout, sess.session_id)
        else:
            sess.begin_push(meta, block_range)

    def _session_pump(self, now, sess, out):
        for src, idx in sess.next_requests(now):
            self._send(out, K.BLOCK_REQUEST, src,
                       {"file_id": sess.file_id.digest, "index": idx,
                        "session_id": sess.session_id}, now)

    # block plane -----------------------------------------------------------

    def _h_block_request(self, now, src, payload, out):
        file_id = FileId(payload["file_id"])
        idx = payload["index"]
        sid = payload.get("session_id", "")
        content = self.files.get(file_id)
        if content is None or not 0 <= idx < core.block_count_for(len(content), self.p.block_size):
            self._send(out, K.BLOCK_RESPONSE, src,
                       {"ok": False, "file_id": file_id.digest, "index": idx,
                        "session_id": sid}, now)
            return
        data = core.block_payload(content, idx, self.p.block_size)
        self._send(out, K.BLOCK_RESPONSE, src,
                   {"ok": True, "file_id": file_id.digest, "index": idx,
                    "data": data, "session_id": sid}, now)

    def _h_block_response(self, now, src, payload, out):
        sess = self._session(payload.get("session_id", ""))
        if sess is None or sess.phase not in (transfer.PHASE_PULL, transfer.PHASE_PUSH):
            return
        if not payload.get("ok"):
            # a dropped source's later refusals are for blocks already moved
            if sess.phase == transfer.PHASE_PULL and src in sess.sources:
                self._session_lose(now, sess, [src], "sources-exhausted", out)
            return
        sess.on_block(payload["index"], payload.get("data", b""))
        if sess.complete():
            self._session_complete(now, sess, out)

    def _session_lose(self, now, sess, lost, reason, out):
        """Move the blocks of the `lost` sources to the others, once. A
        second loss fails the pull with `reason`; a first that leaves no
        source fails it as `sources-exhausted`."""
        if sess.reassign_used:
            self._session_fail(now, sess, reason, out)
            return
        sess.reassign_used = True
        for src in lost:
            sess.drop_source(src)
        out.append(Note("reassign", {"session": sess.session_id, "dropped": lost[0]}))
        if sess.sources:
            self._session_pump(now, sess, out)
        else:
            self._session_fail(now, sess, "sources-exhausted", out)

    def _session_complete(self, now, sess, out):
        partial = len(sess.wanted) != (sess.meta.block_count if sess.meta else 0)
        if not partial and not sess.verify():
            if sess.phase == transfer.PHASE_PULL and not sess.hash_retry_used:
                out.append(Note("hash-retry", {"session": sess.session_id}))
                sess.reset_for_retry()
                self._session_pump(now, sess, out)
                return
            self._session_fail(now, sess, "hash-mismatch", out)
            return
        sess.phase = transfer.PHASE_DONE
        if sess.session_id in self.sessions:
            content = sess.assemble()
            if sess.file_id not in self.files:
                name = sorted(sess.meta.names)[0] if sess.meta.names else sess.file_id.short
                meta = self.store_file(name, content)
                if self.role == MEMBER:
                    self._send(out, K.FILE_LIST, self.home_root,
                               {"files": (self._meta_payload(meta.file_id.digest, meta),),
                                "removed": ()}, now)
                elif self.role == ROOT:
                    self.catalog.register_files(self.device, [meta])
                    self._check_wanted(now, [meta], out)
            out.append(Note("download-complete", {"session": sess.session_id,
                                                  "file": sess.file_id.short,
                                                  "hops": sess.hops_used}))
            self.sessions.pop(sess.session_id, None)
        else:
            # courier sub-fetch finished: head home with the goods
            self._leave_target(now, out)

    def _session_fail(self, now, sess, reason, out):
        sess.phase = transfer.PHASE_FAILED
        if sess.session_id in self.sessions:
            out.append(Note("download-failed", {"session": sess.session_id,
                                                "reason": reason}))
            self.sessions.pop(sess.session_id, None)
        elif self.mission is not None and self.mission.sub_session is sess:
            self.mission.fail_reason = reason
            self._leave_target(now, out)

    # courier missions ------------------------------------------------------

    def _h_courier_order(self, now, src, payload, out):
        status = payload.get("status")
        if status is not None:
            self._h_courier_report(now, src, payload, out)
            return
        if self.role != MEMBER or src != self.home_root or self.mission is not None:
            self._report(now, out, src, payload["mission_id"], "refused")
            return
        m = self.mission = transfer.CourierMission.from_order(
            payload, self.device, self.attached, src)
        self.reported = None   # its first scan after the mission reports
        out.append(HopTo(m.target, label="forward", session_id=m.origin))

    def _leave_target(self, now, out):
        m = self.mission
        self._send(out, K.LEAVE_NOTICE, parse_ssid(m.target).root_id, {}, now)
        self._after(out, 2 * self.p.link_latency, self._t_mission_home, m.mission_id)

    def _head_home(self, m, out, reason=None):
        if reason is not None:
            m.fail_reason = reason
        m.phase = transfer.M_HOMEBOUND
        out.append(HopTo(m.home, label="return", session_id=m.origin))

    def _deliver_mission(self, now, out):
        m = self.mission
        if m.kind == "catalog" and not m.fail_reason and m.snapshot is not None:
            self._send(out, K.CATALOG_SNAPSHOT, m.home_root,
                       {"snapshot": m.snapshot, "via": m.target,
                        "mission_id": m.mission_id}, now)
        elif m.kind == "file" and not m.fail_reason and m.sub_session is not None:
            sub = m.sub_session
            for idx in sorted(sub.buffers):
                self._send(out, K.BLOCK_RESPONSE, m.requester,
                           {"ok": True, "file_id": m.file_id.digest, "index": idx,
                            "data": sub.buffers[idx], "session_id": m.session_id}, now)
            self._report(now, out, m.home_root, m.mission_id, "done")
        else:
            self._report(now, out, m.home_root, m.mission_id, "failed",
                         m.fail_reason or "unknown")
        self.mission = None

    def _report(self, now, out, dst, mid, status, reason=None):
        """A courier's COURIER_ORDER status frame for mission `mid`."""
        payload = {"status": status, "mission_id": mid}
        if reason is not None:
            payload["reason"] = reason
        self._send(out, K.COURIER_ORDER, dst, payload, now)

    def _end_order(self, peer, mid):
        """The order `mid` if `peer` is away on it, which every order leaves
        here: on a report, its deadline, a landing catalog or a new membership."""
        rec = self.members.get(peer)
        if rec is None or rec.away is None or rec.away.mission_id != mid:
            return None
        order, rec.away = rec.away, None
        return order

    def _lose_order(self, now, peer, out):
        """End the order `peer` is away on, if any, as `lost`."""
        order = self.members[peer].away
        if order is not None:
            self._h_courier_report(now, peer, {"status": "lost",
                                               "mission_id": order.mission_id}, out)

    def _h_courier_report(self, now, src, payload, out):
        if self.role != ROOT:
            return
        mid = payload.get("mission_id", "")
        order = self._end_order(src, mid)
        if order is None:
            return
        status = payload["status"]
        if status == "timeout":   # the deadline's own report
            out.append(Note("mission-timeout", {"mission": mid}))
        if status == "done":
            # the courier was just in the target, so it is still reachable,
            # though a courier flying missions sends no scan reports
            info = self.subnets.neighbors.get(order.target)
            if info is not None:
                info.last_seen = now
        else:
            out.append(Note("mission-failed", {"mission": mid, "status": status,
                                               "kind": order.kind}))
        # a catalog order is retried by the next courier period; a file order
        # with no request left belongs to one that has already failed
        sid = order.session_id
        request = self.requests.get(sid) if order.kind == "file" else None
        if request is None:
            return
        if status == "done":
            if not any(r.away and r.away.session_id == sid for r in self.members.values()):
                del self.requests[sid]
            return
        if not request.reassigned and self._order(
                now, out, order, exclude={order.courier, request.requester}) is not None:
            request.reassigned = True
            return
        del self.requests[sid]
        self._refuse(now, out, request.requester, sid, "courier-failed")

    # physical hop callbacks ------------------------------------------------

    def on_hop_complete(self, now: float, target: str) -> list:
        """A hop lands only in the term that began it, with its mission."""
        out = []
        m = self.mission
        if m.phase == transfer.M_OUTBOUND and target == m.target:
            # a rejected courier asks its target once more, a hop's time later
            self._request_join(now, out, target, (target, self.p.hop_latency))
        elif m.phase == transfer.M_HOMEBOUND and target == m.home:
            self._request_join(now, out, target)
        return out

    def on_hop_failed(self, now: float, target: str) -> list:
        out = []
        m = self.mission
        if self.attached is not None:
            # validated before leaving: still home, report and stand down
            self._report(now, out, m.home_root, m.mission_id, "failed", "hop-failed")
            self.mission = None
            return out
        if target != m.home:
            self._head_home(m, out, "hop-failed")
        else:
            self._to_scanning(now, out, "home-gone")
        return out

    # timers ----------------------------------------------------------------
    # A timer's tag is (term, handler, *args), armed by `_after`; it fires as
    # handler(now, out, *args) only in the term that armed it.

    def on_timer(self, now: float, tag: tuple) -> list:
        out = []
        if tag[0] == self.term:
            tag[1](now, out, *tag[2:])
        return out

    def _t_ping(self, now, out):
        self._after(out, self.p.ping_interval, self._t_ping)
        self._ping_cycle(now, out)

    def _t_courier(self, now, out):
        self._after(out, self.p.courier_period, self._t_courier)
        self._courier_cycle(now, out)

    def _t_scan_report(self, now, out):
        """Each scan period a member not out on a mission checks its root: it
        scans if it heard the root within `silent_timeout`, else gives it up.
        The scan reports to the root only a change in the foreign SSIDs, or
        else beacons on every `beacon_scans`-th scan."""
        self._after(out, self.p.scan_period, self._t_scan_report)
        if self.mission is not None:
            return
        # 1e-9: a beacon scanned on this timer's phase may read a rounding error younger
        if now - self.last_root_seen >= self.p.silent_timeout - 1e-9:
            self._to_scanning(now, out, "root-silent")
        else:
            out.append(RequestScan())

    def _t_leave_countdown(self, now, out, peer, since):
        """Purge `peer` only if the leave that started this countdown is
        still its current one: a rejoin and a second leave restart it."""
        rec = self.members.get(peer)
        if rec is not None and rec.leaving_since == since:
            self._purge_member(now, peer, "leave", out)

    def _t_snapshot(self, now, out, peer, since):
        if peer in self.members and self.members[peer].leaving_since is None:
            self._send(out, K.CATALOG_SNAPSHOT, peer,
                       {"snapshot": self.catalog.snapshot(since),
                        "via": self.ssid, "mission_id": ""}, now)

    def _t_wanted(self, now, out, key):
        if key in self.wanted:
            self._emit_wanted(now, key, out)

    def _t_mission_deadline(self, now, out, courier, mid):
        self._h_courier_report(now, courier, {"status": "timeout", "mission_id": mid}, out)

    def _t_session_timeout(self, now, out, sid):
        sess = self.sessions.get(sid)
        if sess is not None:
            self._session_fail(now, sess, "timeout", out)

    def _t_block_timeout(self, now, out, sid):
        sess = self._session(sid)
        if sess is None or sess.phase != transfer.PHASE_PULL:
            return
        overdue = sess.overdue_sources(now, self.p.block_timeout)
        if overdue:
            self._session_lose(now, sess, overdue, "sources-timeout", out)
        if sess.phase == transfer.PHASE_PULL:
            self._after(out, self.p.block_timeout, self._t_block_timeout, sid)

    def _mission_in(self, mid, phase):
        """The current mission if it is `mid` and in `phase`, else None."""
        m = self.mission
        return m if m is not None and m.mission_id == mid and m.phase == phase else None

    def _t_mission_home(self, now, out, mid):
        m = self._mission_in(mid, transfer.M_WORKING)
        if m is not None:
            self._head_home(m, out)

    def _t_mission_work(self, now, out, mid):
        m = self._mission_in(mid, transfer.M_WORKING)
        if m is not None:
            m.fail_reason = "work-timeout"
            if m.sub_session is not None:
                m.sub_session.phase = transfer.PHASE_FAILED
            self._leave_target(now, out)

    # root periodic cycles --------------------------------------------------

    def _ping_cycle(self, now, out):
        self.catalog.expire_remote(now, self.p.catalog_ttl)
        gone = self.subnets.expire(now, self.p.neighbor_ttl)
        if gone:
            self.catalog.drop_via_gateways(set(gone))
        p = self.p
        # The quiet that purges a member, and the quiet that pings it, by
        # `beacons`. A member that beacons may skip k - 1 scans between
        # reports, so its silence counts from the last of them, and it is
        # pinged once it has missed a beacon. Any other, such as a visiting
        # courier, is pinged after a scan period of quiet, or sooner so that
        # the PING leads the purge by a cycle.
        k = p.beacon_scans
        limits = {True: (p.silent_timeout + (k - 1) * p.scan_period,
                         k * p.scan_period + p.link_latency),
                  False: (p.silent_timeout,
                          min(p.scan_period, p.silent_timeout - p.ping_interval))}
        for peer in filter(self._here, sorted(self.members)):
            rec = self.members[peer]
            quiet = now - rec.last_seen
            purge_at, ping_at = limits[rec.beacons]
            if quiet >= purge_at:
                self._purge_member(now, peer, "silent", out)
            elif quiet >= ping_at:
                self._send(out, K.PING, peer, {}, now)

    def _courier_cycle(self, now, out):
        busy_targets = {r.away.target for r in self.members.values()
                        if r.away is not None and r.away.kind == "catalog"}
        # Rotate which neighbor gets first claim each cycle, otherwise a
        # member that is the only gateway to several subnets would always be
        # grabbed by the lexicographically first target and starve the rest.
        targets = sorted(self.subnets.neighbors)
        if targets:
            self._courier_cycle_n += 1
            off = self._courier_cycle_n % len(targets)
            targets = targets[off:] + targets[:off]
        for target in targets:
            if target not in busy_targets:
                self._order(now, out, transfer.CourierMission("", "catalog", target))

    # Frame kind -> handler function, built once for the class.
    _HANDLERS = {
        K.JOIN_REQUEST: _h_join_request,
        K.JOIN_ACCEPT: _h_join_accept,
        K.JOIN_REJECT: _h_join_reject,
        K.FILE_LIST: _h_file_list,
        K.SCAN_REPORT: _h_scan_report,
        K.LEAVE_NOTICE: _h_leave_notice,
        K.PING: _h_ping,
        K.PONG: _ignore_frame,
        K.SEARCH_REQUEST: _h_search_request,
        K.SEARCH_RESPONSE: _h_search_response,
        K.DOWNLOAD_REQUEST: _h_download_request,
        K.SOURCE_LIST: _h_source_list,
        K.BLOCK_REQUEST: _h_block_request,
        K.BLOCK_RESPONSE: _h_block_response,
        K.CATALOG_SNAPSHOT: _h_catalog_snapshot,
        K.COURIER_ORDER: _h_courier_order,
        K.WANTED_FILE: _h_wanted_file,
    }
