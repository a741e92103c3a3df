"""The worker fleet's one RPC, driven through injected faults (tier 1).

``WorkerFleet.call`` is the only master-side path to a worker for both
``ProcessCluster`` and ``ShardedCluster``, so its contract is pinned
here once: a dropped reply is answered by the resend, a slow reply is
still accepted and its stale duplicates are discarded by the next call,
a crash surfaces as ``WorkerFailure`` with the exit code, silence
through every retry as ``WorkerFailure`` too, a handler exception as
``WorkerRPCError``, and concurrent callers of one worker never receive
each other's replies. Every fault uses the data-free ``ping`` method so
the suite stays at tier-1 speed.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

import pytest

from repro import Configuration
from repro.cluster import Fault, FaultPlan, WorkerFleet
from repro.cluster.fleet import CRASH_EXIT_CODE
from repro.core.errors import WorkerFailure, WorkerRPCError
from repro.obs import get_registry

#: What an empty worker answers to ``flush``: (segments, bytes).
EMPTY_FLUSH = (0, 0)


@contextmanager
def fleet_of(n_workers: int = 1, **kwargs):
    fleet = WorkerFleet(n_workers, Configuration(), **kwargs)
    try:
        yield fleet
    finally:
        fleet.close()


def counter(name: str, **labels) -> float:
    return get_registry().counter(name, **labels).value


def test_healthy_call_returns_value_and_worker_seconds():
    with fleet_of() as fleet:
        value, elapsed = fleet.call(0, "ping")
        assert value == "pong" and elapsed >= 0.0
        assert fleet.live_ids == [0] and len(fleet) == 1


def test_dropped_reply_is_answered_by_the_resend():
    retries = counter("cluster.rpc_retries_total")
    posted = counter("cluster.rpc_total", method="ping")
    plan = FaultPlan.drop(0, method="ping")
    with fleet_of(fault_plan=plan, timeout=0.1) as fleet:
        assert fleet.call(0, "ping")[0] == "pong"
        assert fleet.is_alive(0)
    assert counter("cluster.rpc_retries_total") == retries + 1
    assert counter("cluster.rpc_total", method="ping") == posted + 2


def test_late_original_is_accepted_and_stale_duplicates_discarded():
    # The reply to the first post arrives after two resends went out;
    # it answers the call, and the resends' replies are left queued.
    retries = counter("cluster.rpc_retries_total")
    plan = FaultPlan.slow(0, delay=0.35, method="ping")
    with fleet_of(fault_plan=plan, timeout=0.1, backoff=2.0) as fleet:
        assert fleet.call(0, "ping")[0] == "pong"
        assert counter("cluster.rpc_retries_total") > retries
        # The next call must skip those stale "pong"s, not take one.
        assert tuple(fleet.call(0, "flush")[0]) == EMPTY_FLUSH
        assert fleet.call(0, "ping")[0] == "pong"


def test_crash_raises_worker_failure_with_the_exit_code():
    plan = FaultPlan.crash(0, method="ping")
    with fleet_of(fault_plan=plan, timeout=5.0) as fleet:
        with pytest.raises(WorkerFailure) as failure:
            fleet.call(0, "ping")
        assert failure.value.worker_id == 0
        assert f"code {CRASH_EXIT_CODE}" in failure.value.reason


def test_silence_through_every_retry_raises_worker_failure():
    timeouts = counter("cluster.rpc_timeouts_total")
    plan = FaultPlan([Fault(0, "ping", "drop", times=10)])
    with fleet_of(
        fault_plan=plan, timeout=0.05, max_retries=2, backoff=1.0
    ) as fleet:
        with pytest.raises(WorkerFailure, match="unresponsive"):
            fleet.call(0, "ping")
        assert counter("cluster.rpc_timeouts_total") == timeouts + 3
        # Detection is the fleet's job, the verdict the policy's: the
        # worker stays a member until it is retired, exactly once.
        assert fleet.is_alive(0)
        assert fleet.retire(0) is True
        assert fleet.retire(0) is False
        assert fleet.live_ids == []


def test_handler_exception_raises_worker_rpc_error():
    with fleet_of() as fleet:
        with pytest.raises(WorkerRPCError, match="unknown RPC method"):
            fleet.call(0, "no_such_method")
        assert fleet.call(0, "ping")[0] == "pong"  # the worker survived


def test_concurrent_callers_of_one_worker_never_swap_replies():
    calls_each = 150
    wrong: list[object] = []

    def caller(fleet, method: str, expected: object) -> None:
        for _ in range(calls_each):
            value, _ = fleet.call(0, method)
            if (tuple(value) if method == "flush" else value) != expected:
                wrong.append((method, value))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with fleet_of() as fleet:
            threads = [
                threading.Thread(target=caller, args=(fleet, *case))
                for case in (("ping", "pong"), ("flush", EMPTY_FLUSH)) * 2
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert wrong == []


def test_scatter_and_metrics_fold_span_the_fleet():
    with fleet_of(2) as fleet:
        futures = fleet.scatter(fleet.call, [(0, "ping"), (1, "ping")])
        assert [future.result()[0] for future in futures] == ["pong"] * 2
        folded = fleet.metrics()
        assert any(
            name.startswith("cluster.rpc_total")
            for name in folded["counters"]
        )
    fleet.close()  # idempotent
