"""The system under test: one ``repro serve`` process.

Started exactly as a user would start it, from the checkout's ``src``
tree, with both cache tiers on.  The traced variant runs the same
``serve`` call through :mod:`launcher`, which wraps layer functions
before the server starts.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
MEMORY_CACHE = 256  # the fleet worker default; `serve` alone has none
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def server_command(cache_dir: Path, spans_out: Optional[Path] = None,
                   ) -> List[str]:
    """The exact command line; traced when ``spans_out`` is given."""
    serve = ["serve", "--port", "0", "--workers", "1", "--cache",
             str(cache_dir), "--memory-cache", str(MEMORY_CACHE)]
    if spans_out is None:
        return [sys.executable, "-m", "repro", *serve]
    return [sys.executable, str(HERE / "launcher.py"), str(spans_out), *serve]


class Server:
    """A running server process, ready to serve on ``self.port``."""

    def __init__(self, root: Path, cache_dir: Path,
                 spans_out: Optional[Path] = None) -> None:
        self.command = server_command(cache_dir, spans_out)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(cache_dir.parent)
        env["PYTHONUNBUFFERED"] = "1"
        self.log_path = cache_dir.parent / f"{cache_dir.name}.log"
        self._log = open(self.log_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command, cwd=str(root), env=env,
            stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.port = self._read_port()
            self._wait_ready(t0 + START_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}; "
                               f"{self.log_tail()}")
        return int(match.group(1))

    def _wait_ready(self, deadline: float) -> None:
        url = f"http://127.0.0.1:{self.port}/v1/ready"
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_tail()}")
            try:
                with urllib.request.urlopen(url, timeout=5) as reply:
                    if reply.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.002)
        raise RuntimeError("server never became ready")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB (10^6 bytes)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
        return kib * 1024 / 1e6

    def log_tail(self, limit: int = 2000) -> str:
        """The end of the server's stderr, for error messages."""
        text = self.log_path.read_bytes().decode("utf-8", "replace")
        return text[-limit:]

    def stop(self) -> None:
        """SIGTERM and wait for the drain; raises if it does not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError("server did not drain on SIGTERM")
        self._close_pipes()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode}: "
                               f"{self.log_tail()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
