"""Shared plumbing for the repository benchmark: paths, host facts, statistics,
answer digests, resource-leak checks and the result record.

Every workload module returns a :class:`Outcome`; ``run.py`` turns it into the
one-line JSON result.  Nothing here imports :mod:`repro` at module load, so
``run.py`` can report a missing source tree as an error instead of crashing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout for edge lists and request traces; it is
#: emptied and removed after every workload (a leftover file fails the run).
WORK_DIR = ROOT / ".perfbench-work"
DIGESTS = BENCH_DIR / "digests.json"
MANIFEST = BENCH_DIR / "manifest.json"

#: Prefix of the work-stealing shared-memory segments (``repro.extensions.
#: stealing.SEGMENT_PREFIX``); repeated here so the leak check needs no import.
SHM_PREFIX = "repro-steal"


def affinity_count() -> int:
    """CPUs this process may run on — the worker budget, never ``cpu_count``."""
    return len(os.sched_getaffinity(0))


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` when present (else "unknown")."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            packed = git / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    """Content hash of ``src/`` — identifies the code when ``.git`` is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts() -> dict:
    return {
        "affinity_cpus": affinity_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_id(),
        "source_digest": source_digest(),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


#: Candidate tail percentiles, highest first; the reported tail is the highest
#: one that leaves at least :data:`TAIL_MIN_BEYOND` samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def tail(values) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest ladder step with >= 10 samples beyond."""
    for pct in TAIL_LADDER:
        if len(values) * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------
def answer_digest(cliques) -> str:
    """Order-independent digest of a set of vertex sets (labels compared as str)."""
    canonical = sorted(sorted(str(label) for label in clique) for clique in cliques)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()[:20]


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


# ----------------------------------------------------------------------
# Resource hygiene
# ----------------------------------------------------------------------
def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if one was started, and wait for it.

    Shared memory starts the tracker lazily as a child process; left alone it
    exits only some time after this process does, so a run would end with it
    still running.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def live_children() -> list[str]:
    """Command lines of running processes whose parent is this process (zombies skipped)."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            found.append(f"{entry}: {command.strip()[:120]}")
    return found


def leak_report(shm_before: set[str]) -> list[str]:
    """Everything a finished workload left behind; empty means clean."""
    import threading

    leaks = []
    extra_shm = shm_segments() - shm_before
    if extra_shm:
        leaks.append(f"/dev/shm segments left: {sorted(extra_shm)}")
    children = live_children()
    if children:
        leaks.append(f"child processes still running: {children}")
    threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if threads:
        leaks.append(f"threads still running: {threads}")
    if WORK_DIR.exists() and any(WORK_DIR.iterdir()):
        leaks.append(f"files left in {WORK_DIR.name}: "
                     f"{sorted(p.name for p in WORK_DIR.iterdir())}")
    return leaks


# ----------------------------------------------------------------------
# Result record
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and verified."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.problems.append(message)


def log(message: str) -> None:
    """Progress lines go to stderr; stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)
