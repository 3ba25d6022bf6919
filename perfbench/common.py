"""Shared helpers: paths, percentiles, seeds, and the host fingerprint."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import time
import zlib
from pathlib import Path

#: The checkout root (the directory that holds ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (results, span files, scratch caches) lives
#: here, inside the checkout, and is ignored by git.
OUT = ROOT / ".perfbench"


class CheckFailed(Exception):
    """An output check failed: the run is not correct."""


def derive_seed(seed: int, *labels: object) -> int:
    """A stable 31-bit seed for one named sub-stream of a run's seed."""
    text = ":".join([str(seed), *map(str, labels)])
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 1]); ``inf`` marks a miss."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(samples) -> float:
    return percentile(samples, 0.5)


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def setup_probe(workload: str) -> float:
    """Set-up time of one fresh interpreter.

    The probe is ``run.py --setup-only``: it starts, imports, warms the
    workload's lazy state, prints one line and exits.  The time is taken
    here, from spawn to that line, so it includes interpreter start-up.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--setup-only"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not line.startswith("READY"):
        raise RuntimeError(f"set-up probe for {workload} failed ({code})")
    return elapsed


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` inside the checkout only
    (a source tree exported without ``.git`` has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_fingerprint() -> dict:
    """What a number depends on besides the code: results compare only
    between runs with the same fingerprint (the native tier in particular
    decides which backend serves each lane)."""
    import numpy

    from repro.softfloat.nativefast import host_fastpath_report

    report = host_fastpath_report()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "native_fastpath": report,
        "native_fastpath_ok": bool(report.get("ok")),
    }
