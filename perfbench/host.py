"""The host: its record, and a probe of how fast it runs right now.

The benchmark shares a 2-core machine with other tenants, whose load
changes this host's speed by up to ~1.9x, in steps that can come less
than a second apart.  A fixed pure-Python reference task, timed right
before and after each measured interval, tracks that drift:
``host_speed`` is the reference time over the probe's time now, raised
to :data:`SENSITIVITY` (1.0 = the reference host, lower = slower).
Timings are reported normalised to the reference host — a speed is
divided by the interval's host speed, a duration multiplied by it —
and the raw values go to the diagnostic line.  The probe runs with the
collector paused, so the size of the program's heap cannot slow it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import os
import platform
import subprocess
from pathlib import Path
from time import perf_counter

#: Seconds the reference task takes on the reference host (this repo's
#: 2-core development host when uncontended).  A fixed scale: both
#: sides of any comparison divide by the same constant.
REFERENCE_S = 0.003

#: Reference-task repetitions per probe (the probe reports the median).
PROBE_REPEATS = 3

#: How strongly the program's speed follows the reference task's.  The
#: tight reference loop slows more than the simulator when the host is
#: contended: on the development host the log-log slope of repetition
#: time against probe time was 0.34-0.50 within runs and ~0.6 across
#: runs.  Over four sets of ten runs per workload, the exponent 0.6 gave
#: the narrowest worst-case quartile spread of ``sim_speed`` (0.13,
#: against 0.19 with full scaling and 0.37 raw).
SENSITIVITY = 0.6


def _reference_task() -> float:
    """Interpreter work of the kind the simulator does: heap pushes and
    pops, dict and list updates, float arithmetic, small tuples."""
    heap: list = []
    table: dict = {}
    value = 0.5
    started = perf_counter()
    for index in range(4000):
        value = (value * 3.9 * (1.0 - value)) or 0.5
        heapq.heappush(heap, (value, index))
        if len(heap) > 64:
            heapq.heappop(heap)
        key = index % 97
        table[key] = table.get(key, 0.0) + value
    return perf_counter() - started


def probe() -> float:
    """Current host speed relative to the reference host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = sorted(_reference_task() for _ in range(PROBE_REPEATS))
    finally:
        if enabled:
            gc.enable()
    return (REFERENCE_S / times[len(times) // 2]) ** SENSITIVITY


class SpeedTrack:
    """Host speed around measured intervals (probe before and after)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def around(self, before: float) -> float:
        """Close an interval opened with speed ``before``; returns the
        interval's host speed (mean of the two probes)."""
        after = probe()
        speed = (before + after) / 2.0
        self.samples.append(speed)
        return speed


def source_digest(root: Path) -> str:
    """Digest of the program's sources (the revision when git is absent)."""
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def git_revision(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def record(root: Path) -> dict:
    """nproc, load, versions, kernel and revision of this set of runs."""
    import numpy

    from repro._kernel import kernel_name

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": kernel_name(),
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
    }
