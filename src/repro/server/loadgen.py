"""Closed-loop load generator for the query server.

``N`` client threads each hold one connection and issue the next
statement as soon as the previous response arrives (a closed loop, so
offered load adapts to server capacity — the harness shape the SciTS
benchmark, arXiv:2204.09795, uses for time-series servers). Latency is
measured client-side around each request; the report carries exact
p50/p95/p99 over all completed requests plus throughput, admission
rejections and server-side cache hits.

The statement mix comes from the paper's evaluation workloads
(:mod:`repro.workloads.queries`): S-AGG and L-AGG always, P/R when the
caller knows the data's time range.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..workloads.queries import l_agg, p_r, s_agg
from .client import ServerClient
from .protocol import ServerError

#: Back-off after a busy rejection, so a saturated closed loop does not
#: spin on the admission controller.
_BUSY_BACKOFF_SECONDS = 0.002


def build_workload(
    tids,
    start_time: int | None = None,
    end_time: int | None = None,
    sampling_interval: int | None = None,
    seed: int = 0,
) -> list[str]:
    """The mixed SQL statement list the load generator cycles over."""
    tids = list(tids)
    if not tids:
        raise ValueError("the workload needs at least one Tid")
    statements = [spec.to_sql() for spec in s_agg(tids, seed=seed).queries]
    statements += [spec.to_sql() for spec in l_agg().queries]
    if (
        start_time is not None
        and end_time is not None
        and sampling_interval
        and end_time > start_time
    ):
        statements += [
            spec.to_sql()
            for spec in p_r(
                tids, start_time, end_time, sampling_interval, seed=seed
            ).queries
        ]
    return statements


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(int(round(fraction * len(sorted_values) + 0.5)) - 1, 0)
    return sorted_values[min(rank, len(sorted_values) - 1)]


@dataclass
class LoadReport:
    """Aggregate outcome of one closed-loop run."""

    clients: int
    duration_seconds: float
    completed: int = 0
    rejected_busy: int = 0
    errors: int = 0
    cache_hits: int = 0
    latencies: list[float] = field(default_factory=list)
    #: Error responses per server error code; worker crashes count
    #: under "client-crash" so a dead client is never silent.
    errors_by_code: dict[str, int] = field(default_factory=dict)
    #: The first error observed across all clients, verbatim.
    first_error: str | None = None

    @property
    def throughput_qps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds

    def to_dict(self) -> dict:
        ordered = sorted(self.latencies)
        mean = (sum(ordered) / len(ordered) * 1000.0) if ordered else 0.0
        return {
            "clients": self.clients,
            "duration_s": round(self.duration_seconds, 3),
            "completed": self.completed,
            "rejected_busy": self.rejected_busy,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "throughput_qps": round(self.throughput_qps, 2),
            "latency_mean_ms": round(mean, 3),
            "latency_p50_ms": round(percentile(ordered, 0.50) * 1000, 3),
            "latency_p95_ms": round(percentile(ordered, 0.95) * 1000, 3),
            "latency_p99_ms": round(percentile(ordered, 0.99) * 1000, 3),
            "errors_by_code": dict(sorted(self.errors_by_code.items())),
            "first_error": self.first_error,
        }

    def summary(self) -> str:
        data = self.to_dict()
        text = (
            f"{data['clients']:>3} clients: "
            f"{data['throughput_qps']:>9.1f} q/s  "
            f"p50 {data['latency_p50_ms']:.2f} ms  "
            f"p95 {data['latency_p95_ms']:.2f} ms  "
            f"p99 {data['latency_p99_ms']:.2f} ms  "
            f"({data['completed']} ok, {data['rejected_busy']} busy, "
            f"{data['errors']} errors)"
        )
        if self.first_error is not None:
            text += f"  first error: {self.first_error}"
        return text


def _client_loop(
    host: str,
    port: int,
    statements: list[str],
    offset: int,
    duration: float,
    request_timeout: float,
    start_barrier: threading.Barrier,
    report: LoadReport,
    lock: threading.Lock,
    columnar: bool = True,
) -> None:
    completed = 0
    rejected = 0
    errors = 0
    cache_hits = 0
    latencies: list[float] = []
    errors_by_code: dict[str, int] = {}
    first_error: str | None = None
    try:
        with ServerClient(host, port, columnar=columnar) as client:
            # Connect first; the measurement window opens for every
            # client at once when the barrier releases.
            start_barrier.wait(timeout=30)
            deadline = time.perf_counter() + duration
            index = offset
            while time.perf_counter() < deadline:
                sql = statements[index % len(statements)]
                index += 1
                started = time.perf_counter()
                try:
                    response = client.query_response(
                        sql, timeout=request_timeout
                    )
                except ServerError as exc:
                    # Typed transport failure (retries exhausted inside
                    # the client): tally it under its error code and
                    # keep the loop alive — the client re-dials on the
                    # next request.
                    errors += 1
                    errors_by_code[exc.code] = (
                        errors_by_code.get(exc.code, 0) + 1
                    )
                    if first_error is None:
                        first_error = f"{exc.code}: {exc}"
                    continue
                elapsed = time.perf_counter() - started
                if response.get("ok"):
                    completed += 1
                    latencies.append(elapsed)
                    if response.get("cached"):
                        cache_hits += 1
                elif (
                    response.get("error", {}).get("code") == "busy"
                ):
                    rejected += 1
                    time.sleep(_BUSY_BACKOFF_SECONDS)
                else:
                    errors += 1
                    error = response.get("error", {})
                    code = str(error.get("code", "unknown"))
                    errors_by_code[code] = errors_by_code.get(code, 0) + 1
                    if first_error is None:
                        first_error = (
                            f"{code}: {error.get('message', '<no message>')}"
                        )
    except Exception as exc:  # broad-ok: recorded in the report below
        errors += 1
        code = "client-crash"
        errors_by_code[code] = errors_by_code.get(code, 0) + 1
        if first_error is None:
            first_error = f"{code}: {type(exc).__name__}: {exc}"
    with lock:
        report.completed += completed
        report.rejected_busy += rejected
        report.errors += errors
        report.cache_hits += cache_hits
        report.latencies.extend(latencies)
        for code, count in errors_by_code.items():
            report.errors_by_code[code] = (
                report.errors_by_code.get(code, 0) + count
            )
        if first_error is not None and report.first_error is None:
            report.first_error = first_error


def run_load(
    host: str,
    port: int,
    statements: list[str],
    clients: int = 8,
    duration: float = 5.0,
    request_timeout: float = 30.0,
    columnar: bool = True,
) -> LoadReport:
    """Drive ``clients`` concurrent closed-loop clients for ``duration``
    seconds and aggregate their outcomes. ``columnar`` selects the
    response wire format the clients negotiate (RCF1 vs JSON rows)."""
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if not statements:
        raise ValueError("statements must not be empty")
    report = LoadReport(clients=clients, duration_seconds=duration)
    lock = threading.Lock()
    # +1 for this thread: workers connect first, then everyone enters
    # the measurement window together when the barrier releases.
    barrier = threading.Barrier(clients + 1)
    threads = []
    for worker in range(clients):
        # Stagger each client's starting point in the mix so the cache
        # sees a realistic interleaving rather than a lockstep scan.
        offset = (worker * 7) % len(statements)
        thread = threading.Thread(
            target=_client_loop,
            args=(
                host,
                port,
                statements,
                offset,
                duration,
                request_timeout,
                barrier,
                report,
                lock,
                columnar,
            ),
            daemon=True,
        )
        threads.append(thread)
        thread.start()
    barrier.wait(timeout=30)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=duration + request_timeout + 30)
    report.duration_seconds = time.perf_counter() - started
    return report
