"""The served workloads' server process: start, readiness, teardown.

The server under test is the unchanged ``python -m repro serve`` CLI in
a process of its own (traced runs start it through
:mod:`benchmarks.suite.serve_entry`, which installs the span wrappers
first). It runs in its own session with stdout/stderr in files — never
pipes: ``serve --shards 2`` leaves orphaned workers behind on SIGTERM,
and a worker holding an inherited pipe open would hang a harness that
waits for EOF. Readiness is a ``ping``; teardown is SIGTERM, a grace
period, then SIGKILL of whatever is left of the process group, and a
forced kill is counted so the result shows it.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.server import ServerClient

from .harness import ROOT

HOST = "127.0.0.1"
#: SIGTERM grace for the server process itself.
_LEADER_GRACE_S = 5.0
#: Extra grace for group members once the leader is gone: nothing is
#: left to reap them, so waiting longer only delays the SIGKILL.
_ORPHAN_GRACE_S = 0.5
_READY_TIMEOUT_S = 60.0
_ENTRY = Path(__file__).with_name("serve_entry.py")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def _group_members(pgid: int) -> list[int]:
    """Live pids in the process group (Linux ``/proc``)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we were looking
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        fields = stat.rpartition(")")[2].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _peak_rss_kib(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class ServerProcess:
    """One ``serve`` process group for one workload run."""

    def __init__(
        self,
        directory: Path,
        flags: list[str],
        log_dir: Path,
        spans_path: Path | None = None,
    ) -> None:
        self.port = _free_port()
        self.forced_kills = 0
        serve = ["serve", str(directory), "--port", str(self.port), *flags]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(_ENTRY), str(spans_path), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self._stdout = open(log_dir / f"server-{self.port}.out", "wb")
        self._stderr = open(log_dir / f"server-{self.port}.err", "wb")
        self._stderr_path = log_dir / f"server-{self.port}.err"
        try:
            self._process = subprocess.Popen(
                command,
                stdin=subprocess.DEVNULL,
                stdout=self._stdout,
                stderr=self._stderr,
                env=env,
                cwd=ROOT,
                start_new_session=True,
            )
        except OSError:
            self._stdout.close()
            self._stderr.close()
            raise
        self._pgid = self._process.pid

    def connect(self) -> ServerClient:
        return ServerClient(HOST, self.port)

    def wait_ready(self) -> None:
        """Block until the server answers a ``ping``."""
        deadline = time.perf_counter() + _READY_TIMEOUT_S
        while True:
            if self._process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self._process.returncode} before "
                    f"it was ready: {self._stderr_path.read_text()[-2000:]}"
                )
            try:
                with self.connect() as client:
                    client.ping()
                return
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server did not open its port in time")
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """Peak resident set summed over the server's process tree."""
        pids = _group_members(self._pgid)
        return sum(_peak_rss_kib(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGTERM, grace, SIGKILL of the group; waits for every exit."""
        try:
            self._signal(signal.SIGTERM)
            try:
                self._process.wait(timeout=_LEADER_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
            deadline = time.perf_counter() + _ORPHAN_GRACE_S
            while _group_members(self._pgid) and time.perf_counter() < deadline:
                time.sleep(0.02)
            if _group_members(self._pgid):
                self.forced_kills += 1
                self._signal(signal.SIGKILL)
                deadline = time.perf_counter() + _LEADER_GRACE_S
                while _group_members(self._pgid) and time.perf_counter() < deadline:
                    time.sleep(0.01)
            self._process.wait()
        finally:
            self._stdout.close()
            self._stderr.close()

    def _signal(self, signum: int) -> None:
        try:
            os.killpg(self._pgid, signum)
        except ProcessLookupError:
            pass  # the whole group is already gone

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
