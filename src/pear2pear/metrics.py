"""Per-download metrics and run aggregates, fed from trace notes and frame
emissions."""

from .frames import FrameKind


class MetricsCollector:
    def __init__(self):
        self.downloads: dict[str, dict] = {}
        self.courier_counts: dict[int, int] = {}

    def observe(self, now: float, device: int, kind: str, details: dict) -> None:
        if kind == "download-start":
            self.downloads[details["session"]] = {
                "session": details["session"], "file": details["file"],
                "requester": device, "started": now, "success": None,
                "completion_time": None, "hops": 0, "couriers": 0,
                "frames": 0, "bytes": 0,
            }
        elif kind == "download-source":
            rec = self.downloads.get(details["session"])
            if rec is not None:
                rec["hops"] = details.get("hops", 0)
        elif kind == "download-complete":
            rec = self.downloads.get(details["session"])
            if rec is not None:
                rec["success"] = True
                rec["completion_time"] = now - rec["started"]
        elif kind == "download-failed":
            rec = self.downloads.get(details["session"])
            if rec is not None:
                rec["success"] = False
                rec["completion_time"] = now - rec["started"]
        elif kind == "courier-assign" and details.get("mission") == "catalog":
            courier = details["courier"]
            self.courier_counts[courier] = self.courier_counts.get(courier, 0) + 1

    def on_frame_emit(self, frame) -> None:
        payload = frame.payload
        sid = payload.get("origin") or payload.get("session_id")
        if not sid or sid not in self.downloads:
            return
        rec = self.downloads[sid]
        rec["frames"] += 1
        if frame.kind == FrameKind.BLOCK_RESPONSE and payload.get("ok"):
            rec["bytes"] += len(payload.get("data", b""))
        elif frame.kind == FrameKind.COURIER_ORDER and payload.get("mission") == "file":
            rec["couriers"] += 1

    def report(self) -> dict:
        downloads = [self.downloads[sid] for sid in sorted(self.downloads)]
        finished = [d for d in downloads if d["success"] is not None]
        succeeded = [d for d in finished if d["success"]]
        aggregates = {
            "downloads": len(downloads),
            "success_rate": (len(succeeded) / len(finished)) if finished else None,
            "mean_completion_time": (
                sum(d["completion_time"] for d in succeeded) / len(succeeded)
            ) if succeeded else None,
            "courier_assignments": {str(k): v for k, v in
                                    sorted(self.courier_counts.items())},
        }
        return {"downloads": downloads, "aggregates": aggregates}

    def all_succeeded(self) -> bool:
        return all(d["success"] for d in self.downloads.values())
