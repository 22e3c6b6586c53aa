"""Operational status reporting for fault tolerance domains.

``domain_report`` assembles a structured snapshot of a running domain —
membership, per-group replica health, gateway statistics, traffic
counters — and ``format_report`` renders it for humans.  Examples and
operational tooling use this instead of poking at internals.
"""

from __future__ import annotations

from typing import Any, Dict, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .domain import FaultToleranceDomain


def domain_report(domain: "FaultToleranceDomain") -> Dict[str, Any]:
    """A structured snapshot of the domain's health and activity."""
    try:
        rm = domain.coordinator_rm()
    except Exception:
        return {"domain": domain.name, "alive": False}
    live = list(rm.live_hosts)
    groups = []
    for info in rm.registry.all_groups():
        ready = 0
        for host_name in info.placement:
            peer = domain.rms.get(host_name)
            if peer is None or not peer.alive:
                continue
            record = peer.replicas.get(info.group_id)
            if record is not None and record.ready:
                ready += 1
        groups.append({
            "group_id": info.group_id,
            "name": info.name,
            "style": info.style.value,
            "placement": list(info.placement),
            "ready_replicas": ready,
            "min_replicas": info.min_replicas,
            "healthy": ready >= info.min_replicas,
            "version": info.version,
            "primary": info.primary(live),
        })
    rm_totals: Dict[str, int] = {}
    for peer in domain.rms.values():
        for key, value in peer.stats.items():
            rm_totals[key] = rm_totals.get(key, 0) + value
    gateways = []
    for gateway in domain.gateways:
        gateways.append({
            "host": gateway.host.name,
            "port": gateway.port,
            "alive": gateway.alive,
            "mirror_requests": gateway.mirror_requests,
            "stats": {k: v for k, v in gateway.stats.items() if v},
        })
    return {
        "domain": domain.name,
        "alive": True,
        "live_hosts": live,
        "stable": domain.is_stable(),
        "groups": groups,
        "gateways": gateways,
        "replication_totals": {k: v for k, v in rm_totals.items() if v},
        # Messages on the ring (as `totem.msg.sent`), not frames.
        "multicasts": sum(m.stats["sent"] for m in domain.members.values()),
    }


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`domain_report`."""
    if not report.get("alive", False):
        return f"domain {report['domain']}: DOWN"
    lines = [
        f"domain {report['domain']}: "
        f"{'stable' if report['stable'] else 'UNSTABLE'}, "
        f"{len(report['live_hosts'])} live hosts, "
        f"{report['multicasts']} multicasts",
    ]
    for group in report["groups"]:
        health = "ok" if group["healthy"] else "DEGRADED"
        lines.append(
            f"  group {group['group_id']:>3} {group['name']:<28} "
            f"{group['style']:<18} {group['ready_replicas']}/"
            f"{len(group['placement'])} replicas [{health}] "
            f"primary={group['primary']}")
    for gateway in report["gateways"]:
        state = "up" if gateway["alive"] else "DOWN"
        lines.append(
            f"  gateway {gateway['host']}:{gateway['port']} [{state}] "
            f"{gateway['stats']}")
    return "\n".join(lines)
