"""Per-server serving metrics, backed by the unified ``repro.obs`` layer.

A server's latency histogram is a :class:`repro.obs.Histogram`.
:class:`ServerCounters` keeps exact per-server integers for the
``stats`` op (tests and dashboards rely on per-instance values) while
mirroring every bump into the process-wide registry as
``server.<name>_total``, so the ``metrics`` op reports serving traffic
alongside ingest/query/storage/cluster activity.
"""

from __future__ import annotations

import threading

from ..obs import get_registry


class ServerCounters:
    """Admission and completion counters for one server."""

    _FIELDS = (
        "connections",
        "requests",
        "accepted",
        "queued",
        "inline",
        "rejected_busy",
        "completed",
        "failed",
        "timed_out",
        "cancelled",
        "bad_requests",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        registry = get_registry()
        self._mirrors = {
            name: registry.counter(f"server.{name}_total")
            for name in self._FIELDS
        }
        for name in self._FIELDS:
            setattr(self, name, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)
        self._mirrors[name].inc(amount)

    def snapshot(self) -> dict:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}
