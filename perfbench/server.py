"""One ``python -m repro serve`` subprocess, started and stopped as users do.

The server runs from the checkout's ``src/`` with the caller's
environment unchanged (no thread-count variables are set), on an
ephemeral port, over a private cache volume. :meth:`Server.stop` sends
SIGTERM, confirms the drain from the exit code and the server's own log
line, and waits until the server and every worker it spawned are gone.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import PRESET, WORKERS

_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")


def _stat(pid: int) -> list[str] | None:
    """The /proc/<pid>/stat fields after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The command name may hold spaces; the fields follow its ')'.
            return handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _children() -> dict[int, list[int]]:
    """Parent pid -> child pids, from one scan of /proc."""
    tree: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        fields = _stat(int(entry.name))
        if fields is not None:
            tree.setdefault(int(fields[1]), []).append(int(entry.name))
    return tree


def descendants(pid: int) -> list[int]:
    tree = _children()
    found, frontier = [], [pid]
    while frontier:
        kids = tree.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def _identity(pid: int) -> tuple[int, str] | None:
    """(pid, start time): tells a live process from a recycled pid."""
    fields = _stat(pid)
    if fields is None or fields[0] == "Z":
        return None
    return pid, fields[19]


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set (VmHWM) of one process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_bytes(root: Path) -> int:
    """Apparent size of every file under ``root``."""
    total = 0
    for directory, __, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except OSError:
                pass  # a tmp file renamed or evicted mid-walk
    return total


class Server:
    """A running service process over a private cache volume."""

    def __init__(self, root: Path, cache_dir: Path, log_dir: Path) -> None:
        self.root = root
        self.cache_dir = cache_dir
        self.stdout_path = log_dir / "server.out"
        self.stderr_path = log_dir / "server.err"
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self._known: set[tuple[int, str]] = set()

    def start(self, timeout: float = 60.0) -> int:
        """Spawn the server; returns its port once the banner is out."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", str(WORKERS), "--preset", PRESET,
            "--cache-dir", str(self.cache_dir),
        ]
        with open(self.stdout_path, "wb") as out, \
                open(self.stderr_path, "wb") as err:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _BANNER.search(self.stdout_path.read_text())
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(
            f"server did not come up: {self.stderr_path.read_text()[-2000:]}"
        )

    def pids(self) -> list[int]:
        assert self.process is not None
        pids = [self.process.pid] + descendants(self.process.pid)
        self._known.update(filter(None, map(_identity, pids)))
        return pids

    def rss_peak_mb(self) -> float:
        """Summed VmHWM of the server and all its workers, in MiB."""
        return sum(vm_hwm_kib(pid) for pid in self.pids()) / 1024.0

    def stop(self, timeout: float = 60.0) -> dict:
        """SIGTERM, wait for the drain, and reap every process spawned."""
        assert self.process is not None
        self.pids()  # remember the workers before the parent goes
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        log = self.stderr_path.read_text()
        leftover = self._reap(timeout=10.0)
        return {
            "exit_code": code,
            "drained": code == 0 and "draining on SIGTERM" in log,
            "leftover_processes": leftover,
        }

    def kill(self) -> None:
        """Abnormal-path teardown: SIGKILL everything this server spawned."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.pids()
        self._kill(self._live())
        try:
            self.process.wait(10.0)
        except subprocess.TimeoutExpired:
            pass
        self._reap(timeout=5.0)

    def _reap(self, timeout: float) -> int:
        """Wait for every known process to end; kill stragglers."""
        deadline = time.monotonic() + timeout
        while self._live() and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = self._live()
        self._kill(alive)
        return len(alive)

    def _live(self) -> list[int]:
        return [key[0] for key in self._known if _identity(key[0]) == key]

    @staticmethod
    def _kill(pids: list[int]) -> None:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass  # already gone
