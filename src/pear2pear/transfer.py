"""Block-level transfer sessions and courier mission records.

A TransferSession tracks per-block state for one retrieval: either pulling
blocks from a set of same-subnet holders, or waiting for couriers to push
blocks in. Each index of the `wanted` range is buffered once it has landed,
in flight from one source since the time it was requested, or else missing.
Reassembled content is always verified against the FileId.
"""

from dataclasses import dataclass, field

from .core import FileId, FileMeta, compute_file_id
from .routing import assign_block_source

PHASE_INIT = "init"        # waiting for the root's SourceList
PHASE_PULL = "pull"        # requesting blocks from holders
PHASE_PUSH = "push"        # waiting for courier-delivered blocks
PHASE_DONE = "done"
PHASE_FAILED = "failed"


@dataclass
class TransferSession:
    session_id: str
    file_id: FileId
    meta: FileMeta | None = None
    phase: str = PHASE_INIT
    sources: list = field(default_factory=list)    # sorted holder ids (pull)
    wanted: range = range(0)                       # block indices needed
    inflight: dict = field(default_factory=dict)   # idx -> (src, sent), requested blocks
    buffers: dict = field(default_factory=dict)    # idx -> bytes, landed blocks
    hops_used: int = 0
    hash_retry_used: bool = False
    reassign_used: bool = False

    def begin(self, meta: FileMeta, sources, block_range=None) -> None:
        """Want `block_range` of `meta` (all of it by default), pulled from
        `sources`, or pushed in by couriers when `sources` is empty."""
        self.meta = meta
        self.sources = sorted(sources)
        self.wanted = range(*(block_range or (0, meta.block_count)))
        self.inflight = {}
        self.buffers = {}
        self.phase = PHASE_PULL if self.sources else PHASE_PUSH

    def next_requests(self, now: float) -> list:
        """(source, index) pairs to request now: every missing block, assigned
        round-robin by index over the sorted sources."""
        out = []
        if self.sources:
            for idx in self.wanted:
                if idx not in self.buffers and idx not in self.inflight:
                    src = assign_block_source(idx, self.sources)
                    self.inflight[idx] = (src, now)
                    out.append((src, idx))
        return out

    def on_block(self, idx: int, data: bytes) -> bool:
        if idx not in self.wanted or idx in self.buffers:
            return False
        self.inflight.pop(idx, None)
        self.buffers[idx] = data
        return True

    def drop_source(self, src: int) -> None:
        """Remove a dead source; its in-flight blocks go back to missing."""
        self.sources = [s for s in self.sources if s != src]
        self.inflight = {i: sent for i, sent in self.inflight.items() if sent[0] != src}

    def overdue_sources(self, now: float, timeout: float) -> list:
        """Sources of blocks requested `timeout` or more before `now`. The
        deadline is `sent + timeout`, the same float sum as the fire time of
        a timer armed when the block was sent; `now - sent` can round below
        `timeout` at that very instant."""
        return sorted({src for src, sent in self.inflight.values() if now >= sent + timeout})

    def complete(self) -> bool:
        return bool(self.wanted) and len(self.buffers) == len(self.wanted)

    def assemble(self) -> bytes:
        return b"".join(self.buffers[i] for i in sorted(self.buffers))

    def verify(self) -> bool:
        """Full-file sessions only; partial block ranges are verified by the
        final requester once every range has landed."""
        return compute_file_id(self.assemble()) == self.file_id

    def reset_for_retry(self) -> None:
        self.hash_retry_used = True
        self.inflight = {}
        self.buffers = {}


# Courier mission phases; `Node.joining` tells whether the courier is
# waiting to be admitted at its target (outbound) or at home (homebound).
M_OUTBOUND = "outbound"            # ordered, hopping toward the target subnet
M_WORKING = "working"              # fetching catalog/blocks inside the target
M_HOMEBOUND = "homebound"


@dataclass
class CourierMission:
    """One courier order. The home root holds it as its courier's `away`
    until the order ends; the courier rebuilds it with `from_order` and
    flies it. Only the courier side sets `home`; the courier's own
    `Node.home_root` is the root it reports to."""
    mission_id: str
    kind: str                      # "catalog" | "file"
    target: str                    # rendered SSID to visit
    home: str = ""                 # rendered SSID to return to
    ttl: int = 1
    phase: str = M_OUTBOUND
    fail_reason: str = ""          # set when the mission fails
    # catalog missions
    since: int = 0                 # the target's catalog version the home root holds
    snapshot: dict | None = None   # the delta the target root cut against `since`
    # file missions
    file_id: FileId | None = None
    block_range: tuple | None = None
    requester: int | None = None
    session_id: str = ""
    origin: str = ""               # user session this mission ultimately serves
    sub_session: TransferSession | None = None

    def order(self) -> dict:
        """The COURIER_ORDER payload that hands this mission to a courier."""
        payload = {"mission": self.kind, "target": self.target,
                   "mission_id": self.mission_id, "ttl": self.ttl,
                   "session_id": self.session_id, "origin": self.origin}
        if self.file_id is not None:
            payload["file_id"] = self.file_id.digest
            payload["requester"] = self.requester
        if self.block_range is not None:
            payload["range"] = self.block_range
        if self.kind == "catalog":
            payload["since"] = self.since
        return payload

    @classmethod
    def from_order(cls, payload: dict, home: str) -> "CourierMission":
        """The mission a courier at `home` flies for an `order()` payload."""
        rng = payload.get("range")
        session_id = payload.get("session_id", "")
        return cls(mission_id=payload["mission_id"], kind=payload["mission"],
                   target=payload["target"], home=home, ttl=payload.get("ttl", 1),
                   since=payload.get("since", 0),
                   file_id=FileId(payload["file_id"]) if "file_id" in payload else None,
                   block_range=(rng[0], rng[1]) if rng else None,
                   requester=payload.get("requester"), session_id=session_id,
                   origin=payload.get("origin", "") or session_id)
