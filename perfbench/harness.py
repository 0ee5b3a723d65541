"""Process, timing and statistics helpers shared by the workloads."""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

MINT_BASE = "https://kg.example.org/chemotion/"
DATASET_CLASS = "https://nfdi.fiz-karlsruhe.de/ontology/NFDI_0000009"


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, the program is missing)."""


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_mb: float


def program_env(root: Path) -> dict[str, str]:
    """Environment for program processes: the checkout's ``src`` on the
    path and no inherited ``KGFORGE_*`` overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KGFORGE_")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_config(path: Path, records: Path, work: Path) -> Path:
    doc = {
        "source": {"base_url": str(records), "mode": "directory"},
        "mint": {"base": MINT_BASE},
        "store_dir": str(work / "store"),
        "cache_dir": str(work / "cache"),
        "staging_dir": str(work / "staging"),
        "endpoint": {"host": "127.0.0.1", "port": 0},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "kgforge.cli", *args]


def run_cli(root: Path, scratch: Path, *args: str, timeout: float = 170.0) -> CliRun:
    """Run one ``kgforge`` command to completion, its output captured in
    files under ``scratch``; peak RSS comes from ``os.wait4``."""
    scratch.mkdir(parents=True, exist_ok=True)
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cli_command(*args), cwd=root, env=program_env(root),
            stdout=out, stderr=err,
        )
        status, usage = _wait(proc, timeout)
        seconds = time.perf_counter() - started
    return CliRun(
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        seconds=seconds,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its resource usage, killing it after ``timeout``."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage


class Server:
    """``kgforge serve`` as a child process on an OS-chosen port."""

    def __init__(self, root: Path, config: Path):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cli_command("-c", str(config), "serve"), cwd=root, env=program_env(root),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.port = self._await_port()
        self.maxrss_mb = 0.0

    def _await_port(self) -> int:
        # cmd_serve logs "serving <dir> at http://host:port/sparql" once
        # the snapshot is loaded and the socket is bound.
        while True:
            line = self.proc.stderr.readline()
            if not line:
                self.stop()
                raise BenchError("kgforge serve exited before it was ready")
            text = line.decode("utf-8", "replace")
            if " at http://" in text:
                address = text.rsplit("http://", 1)[1].split("/", 1)[0]
                return int(address.rsplit(":", 1)[1])

    def stop(self) -> float:
        """Terminate the server, reap it, and return its peak RSS in MB.
        (SIGINT would do, but a process started in the background may
        inherit SIGINT as ignored.)"""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            _, usage = _wait(self.proc, 5.0)
            self.maxrss_mb = usage.ru_maxrss / 1024.0
            self.proc.stderr.close()
        return self.maxrss_mb


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def tail_percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` percentile when at least ten samples lie
    beyond it; otherwise no tail percentile is supported and this is
    the median."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    if len(ordered) - 1 - rank < 10:
        return statistics.median(ordered)
    return ordered[rank]


def median(values: list[float]) -> float:
    return statistics.median(values)
