"""Tunable protocol constants, overridable per scenario."""

from dataclasses import dataclass, fields


@dataclass
class Params:
    # kernel
    max_members: int = 7
    join_timeout: float = 5.0
    ping_interval: float = 10.0   # the root's ping cycle; a member checks its root at each scan
    silent_timeout: float = 30.0
    leave_countdown: float = 30.0
    # radio
    link_latency: float = 0.01
    hop_latency: float = 2.0
    scan_period: float = 10.0
    # catalogs / couriers
    courier_period: float = 20.0
    catalog_ttl: float = 60.0
    neighbor_ttl: float = 60.0
    courier_ttl: int = 8
    mission_timeout: float = 60.0
    # transfer
    block_size: int = 64 * 1024
    block_timeout: float = 5.0
    session_timeout: float = 120.0
    swarm_threshold: int = 16  # blocks
    max_swarm: int = 4
    # wanted-file policy
    wanted_repeat: float = 30.0
    wanted_max: int = 3

    def override(self, **kwargs) -> "Params":
        known = {f.name: f.type for f in fields(self)}
        out = Params(**{f.name: getattr(self, f.name) for f in fields(self)})
        for key, value in kwargs.items():
            name = key.lower()
            if name not in known:
                raise KeyError(f"unknown parameter: {key}")
            current = getattr(out, name)
            setattr(out, name, type(current)(value))
        return out
