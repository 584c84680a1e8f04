"""The real ``python -m repro.cli db daemon`` as a subprocess with an own
interpreter lock: start, readiness, drain and reaping.

Every exit path ends in :meth:`DaemonProcess.stop`, which reaps the daemon (so
its and its workers' CPU and peak memory land in ``RUSAGE_CHILDREN``) and then
kills whatever is left of its process group, so a failed run leaves no orphan
worker and no socket behind."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.db.daemon import DaemonClient, DaemonError

#: ``src/`` of the checkout this file lives in.
SOURCE_DIR = Path(__file__).resolve().parent.parent / "src"

_READY_TIMEOUT_S = 60.0
_DRAIN_TIMEOUT_S = 45.0  # above the daemon's own 30 s drain limit
_POLL_S = 0.005


class DaemonProcess:
    def __init__(
        self, store: Path, scratch: Path, arguments: Sequence[str] = ()
    ) -> None:
        self.store = Path(store)
        self.log_path = Path(scratch) / "daemon.log"
        # A Unix socket address holds about 100 bytes: the path relative to
        # the working directory is the short one when run from the checkout.
        socket_path = str(Path(scratch) / "daemon.sock")
        self.address = "unix:" + min(socket_path, os.path.relpath(socket_path), key=len)
        self.arguments = list(arguments)
        self.process: Optional[subprocess.Popen] = None
        self.pid: Optional[int] = None
        self.worker_pids: List[int] = []

    def start(self) -> "DaemonProcess":
        command = [
            sys.executable, "-m", "repro.cli", "db", "daemon", str(self.store),
            "--address", self.address, *self.arguments,
        ]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, env={**os.environ, "PYTHONPATH": str(SOURCE_DIR)}, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise
        return self

    def _await_ready(self) -> None:
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.process.returncode} before "
                    f"it was ready:\n{self._log_tail()}"
                )
            try:
                with DaemonClient(self.address, timeout=5.0) as client:
                    health = client.health()
                if health["status"] == "ready":
                    self.pid = health["pid"]
                    self.worker_pids = list(health["worker_pids"])
                    return
            except DaemonError:
                pass  # not listening yet
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"daemon not ready after {_READY_TIMEOUT_S:.0f} s:\n{self._log_tail()}"
                )
            time.sleep(_POLL_S)

    def pids(self) -> List[int]:
        return [self.pid, *self.worker_pids]

    def stop(self) -> Optional[int]:
        """SIGTERM, wait for the drain, reap; SIGKILL the group if the drain
        overruns or anything survived.  Returns the daemon's exit code."""
        process, self.process = self.process, None
        if process is None:
            return None
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                return process.wait(timeout=_DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return None
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)  # the session it leads
            except (ProcessLookupError, PermissionError):
                pass  # nothing left in the group: the normal case
            process.wait()

    def _log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return "(no daemon log)"

