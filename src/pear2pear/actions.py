"""Effects a node hands back to its host for execution.

Nodes never touch the world directly: every handler returns a list of these
and of the `Frame`s to send, which keeps transitions replayable and the
simulator in full control of timing, delivery and tracing.
"""

from dataclasses import dataclass, field


@dataclass(slots=True)
class HopTo:
    target: str          # rendered SSID
    label: str = "hop"   # "forward" | "return" | "hop" (for traces)
    session_id: str = ""


@dataclass(slots=True)
class StartTimer:
    delay: float
    tag: tuple           # (term, handler, *args), handed back to Node.on_timer


@dataclass(slots=True)
class RequestScan:
    """Scan now: the host hands the visible SSIDs to Node.on_scan."""


@dataclass(slots=True)
class Note:
    kind: str
    details: dict = field(default_factory=dict)
