"""Start, probe and stop one ``repro serve`` process tree."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from launcher import TRACE_ENV

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
_ADDRESS = re.compile(r"service on http://([\d.]+):(\d+)")

#: BLAS/OpenMP pools pinned to one thread per server process, so the
#: server's parallelism is its own threads and processes, not the BLAS
#: library's guess about a shared two-core box.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _children(pid: int) -> list[int]:
    kids = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
    except OSError:
        pass
    return kids


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class ServerProcess:
    """``repro serve`` started through the launcher in ``run_dir``.

    The server's working directory and ``TMPDIR`` are ``run_dir``, so the
    store, the shared solve cache and worker sockets stay inside the
    checkout (relative socket paths keep clear of the 108-byte limit).
    """

    def __init__(self, root: Path, run_dir: Path, args: list[str],
                 trace_dir: Path | None = None) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env.pop(TRACE_ENV, None)
        env.update(PINNED_THREADS)
        env.update(PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1",
                   TMPDIR=".")
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            env[TRACE_ENV] = str(trace_dir)
        self._out_path = run_dir / "server.out"
        self._out = open(self._out_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), "serve", "--port", "0", *args],
            cwd=run_dir, env=env, stdout=self._out, stderr=subprocess.STDOUT,
        )
        self.host = "127.0.0.1"
        self.port = 0
        self._tree: set[int] = {self.proc.pid}

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until every worker answers ``/v1/health``; returns seconds."""
        deadline = self.started + timeout
        while not self.port:
            self._check_running(deadline)
            match = _ADDRESS.search(self._out_path.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            else:
                time.sleep(0.005)
        while True:
            self._check_running(deadline)
            try:
                conn = http.client.HTTPConnection(self.host, self.port,
                                                  timeout=5)
                conn.request("GET", "/v1/health")
                reply = conn.getresponse()
                payload = json.loads(reply.read())
                conn.close()
            except (OSError, http.client.HTTPException, ValueError):
                time.sleep(0.005)
                continue
            workers = payload.get("workers")
            if reply.status == 200 and (
                workers is None or workers["alive"] == workers["total"]
            ):
                self._tree.update(self.descendants())
                return time.perf_counter() - self.started
            time.sleep(0.005)

    def _check_running(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.proc.returncode}:\n"
                + self._out_path.read_text(errors="replace")[-2000:]
            )
        if time.perf_counter() > deadline:
            raise RuntimeError("server did not become ready in time")

    def descendants(self) -> list[int]:
        found, todo = [], [self.proc.pid]
        while todo:
            for kid in _children(todo.pop()):
                found.append(kid)
                todo.append(kid)
        return found

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) summed over the server and its descendants."""
        total_kb = 0
        for pid in [self.proc.pid, *self.descendants()]:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (graceful drain, spans written), then make sure every
        process of the tree has ended."""
        self._tree.update(self.descendants())
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        for pid in self._tree:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + 10.0
        for pid in self._tree:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
        self._out.close()
