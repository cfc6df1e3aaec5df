"""Intra-subproblem work stealing over shared-memory compact subproblems.

Handing *whole* DC subproblems to workers serializes the run whenever one
subproblem dominates — the common case on skewed degree distributions, where
the hub vertex's 2-hop ball holds most of the work.  This module, the
multi-process path behind
:class:`~repro.extensions.parallel.ParallelDCFastQC`, also parallelises
*inside* a subproblem: the explicit work-stack driver
(:func:`repro.core.kernel.depth_first_enumerate`) exposes its pending subtrees,
so an idle worker can steal one from the **bottom** of a busy worker's stack
(the bottom-most entry roots the largest unexplored subtree — classic
work-first stealing order) and enumerate it independently.

Three properties keep stolen subtrees exact:

* **Masks are a complete snapshot.**  A pending ``(S, C, D)`` entry fully
  determines its subtree: the ledger kernel's degree arrays are pure functions
  of the masks and the graph, so the steal payload is just three ints —
  O(|S| + |C|) bits, not O(subgraph) — and the thief rebuilds identical
  ledgers with ``BranchState.from_branch``.
* **The maximality halo travels with the subproblem.**  Workers attach the
  :class:`~repro.core.dcfastqc.CompactSubproblem` (ball + one-hop halo
  adjacency) from a shared-memory segment, so a thief's maximality filtering
  decides exactly like a full-graph check, wherever the subtree runs.
* **Verdicts flow back.**  An ancestor's ``G[S]`` fallback emission depends on
  whether *any* descendant output a quasi-clique, so a donor parks the stolen
  subtree's parent frame (:class:`~repro.core.kernel.BranchFrame`) and the
  thief's exact driver verdict is routed back and contributed via
  :func:`~repro.core.kernel.contribute_steal_result` before the ancestor
  closes.  Candidate batches are therefore branch-for-branch identical to the
  sequential driver (each branch is expanded exactly once, somewhere).

The process topology is one coordinator (the parent) plus N workers sharing a
task queue.  Tasks are either subproblem roots (seeded by the coordinator) or
stolen subtrees (published by donors directly onto the task queue); every task
eventually produces exactly one ``done`` event, possibly long after the
worker's local stack drained, and the coordinator routes thief verdicts back
to donor inboxes.  Termination is announce/done accounting with out-of-order
tolerance (a thief's ``done`` may overtake the donor's ``steal`` announce).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct
import time
import traceback
from dataclasses import dataclass
from multiprocessing import shared_memory
from queue import Empty

from ..core.branch import Branch
from ..core.dcfastqc import CompactSubproblem
from ..core.fastqc import FastQC
from ..core.kernel import contribute_steal_result
from ..core.stats import SearchStatistics
from ..errors import ReproError
from ..resilience.faults import fault_point

#: Prefix of every shared-memory segment this module creates; the chaos tests
#: and CI assert nothing matching ``/dev/shm/<prefix>*`` survives a run.
SEGMENT_PREFIX = "repro-steal"

#: How many branch expansions a worker runs between scheduler polls (inbox
#: drain + hungry check).  Small enough to keep steal latency low, large
#: enough that the disabled-path cost is one counter decrement per branch.
DEFAULT_POLL_PERIOD = 64

#: After publishing a steal, a donor skips this many polls before offering
#: another subtree, so one hungry signal does not flood the queue.
_STEAL_COOLDOWN_POLLS = 4


class WorkerCrash(ReproError):
    """A branch-parallel worker died mid-run; the caller should fall back."""


# ----------------------------------------------------------------------
# Shared-memory codec: one segment per compact subproblem
# ----------------------------------------------------------------------
# Layout: header | ball adjacency rows | halo adjacency rows | labels pickle.
# All rows are ``row_bytes`` wide (masks over ball indices), so a worker can
# slice any row without parsing; labels are pickled once at the tail.
_MAGIC = b"RQS1"
_HEADER = struct.Struct("<4sIIIII")  # magic, ball, halo, row_bytes, root, labels_len


def encode_subproblem(subproblem: CompactSubproblem) -> bytes:
    """Serialise a compact subproblem into the shared-memory segment layout."""
    ball = len(subproblem.labels)
    halo = len(subproblem.halo_labels)
    row_bytes = max(1, (ball + 7) // 8)
    labels_blob = pickle.dumps(
        (subproblem.labels, subproblem.halo_labels),
        protocol=pickle.HIGHEST_PROTOCOL)
    size = _HEADER.size + row_bytes * (ball + halo) + len(labels_blob)
    buffer = bytearray(size)
    _HEADER.pack_into(buffer, 0, _MAGIC, ball, halo, row_bytes,
                      subproblem.root_local, len(labels_blob))
    offset = _HEADER.size
    for mask in subproblem.adjacency_masks:
        buffer[offset:offset + row_bytes] = mask.to_bytes(row_bytes, "little")
        offset += row_bytes
    for mask in subproblem.halo_adjacency:
        buffer[offset:offset + row_bytes] = mask.to_bytes(row_bytes, "little")
        offset += row_bytes
    buffer[offset:] = labels_blob
    return bytes(buffer)


def decode_subproblem(buffer: bytes) -> CompactSubproblem:
    """Inverse of :func:`encode_subproblem` (accepts any bytes-like view)."""
    magic, ball, halo, row_bytes, root_local, labels_len = _HEADER.unpack_from(
        buffer, 0)
    if magic != _MAGIC:
        raise ReproError("not a repro shared-memory subproblem segment")
    offset = _HEADER.size
    rows = []
    for _ in range(ball + halo):
        rows.append(int.from_bytes(buffer[offset:offset + row_bytes], "little"))
        offset += row_bytes
    labels, halo_labels = pickle.loads(
        bytes(buffer[offset:offset + labels_len]))
    return CompactSubproblem(
        root_local=root_local, labels=labels,
        adjacency_masks=tuple(rows[:ball]),
        halo_labels=halo_labels, halo_adjacency=tuple(rows[ball:]))


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without registering it for auto-unlink.

    Only the coordinator owns segment lifetimes; a worker that also registered
    the name with its resource tracker would race the parent's unlink and spam
    "leaked shared_memory" warnings at exit.  Python 3.13 has ``track=False``
    for exactly this; older versions need the documented unregister dance.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Python < 3.13: attach re-registers the name, but workers are forked
        # so they share the coordinator's tracker process, whose cache is a
        # set — the re-registration is idempotent and the coordinator's
        # eventual unlink removes the single entry.  Unregistering here would
        # strip the coordinator's own registration and make that unlink
        # traceback inside the tracker.
        return shared_memory.SharedMemory(name=name)


class SharedSubproblemStore:
    """Coordinator-side owner of the per-subproblem shared-memory segments.

    ``publish`` copies one encoded subproblem into a fresh segment and returns
    its name (the *token* shipped in task messages); ``close`` unlinks every
    segment — it runs in a ``finally`` so a crashed run leaves ``/dev/shm``
    clean.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._sequence = 0

    def publish(self, subproblem: CompactSubproblem) -> str:
        blob = encode_subproblem(subproblem)
        self._sequence += 1
        name = (f"{SEGMENT_PREFIX}-{os.getpid()}-{self._sequence}-"
                f"{os.urandom(3).hex()}")
        segment = shared_memory.SharedMemory(name=name, create=True,
                                             size=len(blob))
        segment.buf[:len(blob)] = blob
        self._segments[segment.name] = segment
        return segment.name

    def close(self) -> None:
        for segment in self._segments.values():
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()


class SubproblemCache:
    """Worker-side attach-once cache: token -> decoded subproblem."""

    def __init__(self) -> None:
        self._attached: dict[str, tuple] = {}

    def get(self, token: str) -> CompactSubproblem:
        hit = self._attached.get(token)
        if hit is not None:
            return hit[1]
        segment = _attach_segment(token)
        subproblem = decode_subproblem(segment.buf)
        self._attached[token] = (segment, subproblem)
        return subproblem

    def close(self) -> None:
        for segment, _ in self._attached.values():
            try:
                segment.close()
            except Exception:  # pragma: no cover - shutdown best-effort
                pass
        self._attached.clear()


# ----------------------------------------------------------------------
# Scheduler: the object depth_first_enumerate calls back into
# ----------------------------------------------------------------------
class StealScheduler:
    """Bridges the enumeration driver and a steal-capable runtime.

    The driver calls :meth:`begin_task` once per task (handing over its
    ``steal`` closure, its ``close`` callable and the task's root frame) and
    :meth:`on_branch` once per expansion; every ``period`` expansions the
    runtime polls its inbox and decides whether to offer a subtree.  The
    runtime may be the real multiprocessing worker runtime or the inline
    single-process model used by the parity tests — the driver cannot tell.
    """

    def __init__(self, runtime, period: int = DEFAULT_POLL_PERIOD) -> None:
        self.runtime = runtime
        self.period = max(1, period)
        self._countdown = self.period
        self.steal = None
        self.close = None

    def begin_task(self, steal, close, root_frame) -> None:
        self.steal = steal
        self.close = close
        self.runtime.bind_root_frame(root_frame)

    def on_branch(self) -> None:
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.period
        self.runtime.poll(self)


@dataclass
class ForcedStealSchedule:
    """Deterministic steal forcing for tests: offer on every Nth poll.

    Replaces the hungry-worker signal so steal points are reproducible; the
    protocol must produce sequential-identical answers for *any* schedule, so
    the differential tests sweep ``every`` and ``offset`` over a seed grid.
    """

    every: int = 2
    offset: int = 0
    _polls: int = 0

    def __call__(self, runtime) -> bool:
        self._polls += 1
        return self._polls % self.every == self.offset % self.every


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _BranchWorkerConfig:
    """Per-run parameters shipped to every branch-parallel worker."""

    gamma: float
    theta: int
    branching: str
    kernel: str
    poll_period: int
    steal_schedule: object | None  # picklable callable(runtime) -> bool


class _WorkerRuntime:
    """Everything one branch-parallel worker process owns.

    One :class:`FastQC` engine per attached subproblem (reused across tasks of
    that subproblem, so per-worker ``_seen_masks`` dedup and statistics
    accumulate across its tasks); one global emission buffer
    flushed with each ``done`` event; and a ``parked`` table mapping published
    steal ids to the frames awaiting the thief's verdict.
    """

    def __init__(self, worker_id: int, tasks, events, inbox, hungry,
                 config: _BranchWorkerConfig) -> None:
        self.worker_id = worker_id
        self.tasks = tasks
        self.events = events
        self.inbox = inbox
        self.hungry = hungry
        self.config = config
        self.cache = SubproblemCache()
        self.scheduler = StealScheduler(self, period=config.poll_period)
        self.engines: dict[str, FastQC] = {}
        self.emissions: list[frozenset] = []
        self.parked: dict[str, tuple] = {}
        self.active_task: tuple[str, str] | None = None  # (task_id, token)
        self.steal_sequence = 0
        self.cooldown = 0
        self.busy_seconds = 0.0
        self.idle_gaps_ms: list[int] = []
        self.steals_published = 0

    # -- engine/task plumbing ------------------------------------------
    def engine_for(self, token: str) -> FastQC:
        engine = self.engines.get(token)
        if engine is None:
            subproblem = self.cache.get(token)
            graph = subproblem.build_graph()
            maximality = (subproblem.build_maximality_graph()
                          if subproblem.halo_labels else graph)
            engine = FastQC(graph, self.config.gamma, self.config.theta,
                            branching=self.config.branching,
                            kernel=self.config.kernel,
                            maximality_graph=maximality,
                            on_output=self.emissions.append)
            self.engines[token] = engine
        return engine

    def bind_root_frame(self, root_frame) -> None:
        task_id, _token = self.active_task
        origin = self._origin_of(task_id)

        def task_resolved(found: bool, _task_id=task_id, _origin=origin) -> None:
            self.events.put(("done", _task_id, _origin, bool(found),
                             self._flush_emissions()))

        root_frame.on_resolve = task_resolved

    @staticmethod
    def _origin_of(task_id: str):
        # Stolen tasks are named "steal-<donor>:<seq>"; initial tasks "init-<n>".
        if task_id.startswith("steal-"):
            donor, _, sequence = task_id[len("steal-"):].partition(":")
            return int(donor), task_id[len("steal-"):]
        return None

    def _flush_emissions(self) -> list[frozenset]:
        # Copy-and-clear in place: every engine holds ``self.emissions.append``
        # as its on_output, so rebinding the attribute would strand them on a
        # dead list and silently drop their outputs.
        flushed = self.emissions[:]
        self.emissions.clear()
        return flushed

    def run_task(self, task_id: str, token: str, s_mask: int, c_mask: int,
                 d_mask: int) -> None:
        fault_point("worker.task")
        engine = self.engine_for(token)
        self.active_task = (task_id, token)
        started = time.perf_counter()
        engine.enumerate_branch(Branch(s_mask, c_mask, d_mask),
                                scheduler=self.scheduler)
        self.busy_seconds += time.perf_counter() - started
        self.active_task = None

    # -- scheduler callbacks -------------------------------------------
    def poll(self, scheduler: StealScheduler) -> None:
        self.drain_inbox()
        if self.cooldown > 0:
            self.cooldown -= 1
            return
        if self._should_offer() and self._publish_steal(scheduler):
            self.cooldown = _STEAL_COOLDOWN_POLLS

    def _should_offer(self) -> bool:
        if self.config.steal_schedule is not None:
            return self.config.steal_schedule(self)
        return self.hungry is not None and self.hungry.value > 0

    def _publish_steal(self, scheduler: StealScheduler) -> bool:
        stolen = scheduler.steal()
        if stolen is None:
            return False
        state, frame = stolen
        self.steal_sequence += 1
        steal_id = f"{self.worker_id}:{self.steal_sequence}"
        task_id = f"steal-{steal_id}"
        _active_id, token = self.active_task
        self.parked[steal_id] = (frame, scheduler.close)
        # Announce first so the coordinator learns of the new task before any
        # chance of seeing its done; it still tolerates the reverse order.
        self.events.put(("steal", task_id))
        self.tasks.put(("task", task_id, token,
                        state.s_mask, state.c_mask, state.d_mask))
        self.steals_published += 1
        return True

    def drain_inbox(self) -> None:
        while True:
            try:
                message = self.inbox.get_nowait()
            except Empty:
                return
            _kind, steal_id, found = message
            frame, close = self.parked.pop(steal_id)
            contribute_steal_result(frame, found, close)

    # -- main loop ------------------------------------------------------
    def loop(self) -> None:
        idle_since = None
        while True:
            self.drain_inbox()
            if idle_since is None:
                idle_since = time.perf_counter()
                if self.hungry is not None:
                    with self.hungry.get_lock():
                        self.hungry.value += 1
            try:
                message = self.tasks.get(timeout=0.02)
            except Empty:
                continue
            if self.hungry is not None:
                with self.hungry.get_lock():
                    self.hungry.value -= 1
            gap_ms = int((time.perf_counter() - idle_since) * 1000)
            if len(self.idle_gaps_ms) < 512:
                self.idle_gaps_ms.append(gap_ms)
            idle_since = None
            if message[0] == "stop":
                return
            _kind, task_id, token, s_mask, c_mask, d_mask = message
            self.run_task(task_id, token, s_mask, c_mask, d_mask)

    def farewell(self) -> None:
        """Send this worker's accumulated statistics and telemetry."""
        stats = SearchStatistics()
        for engine in self.engines.values():
            stats.merge(engine.statistics)
        stats.steals = self.steals_published
        stats.parallel_busy_seconds = self.busy_seconds
        self.events.put(("bye", self.worker_id, stats, self.busy_seconds,
                         self.idle_gaps_ms))


def _branch_worker_main(worker_id: int, tasks, events, inbox, hungry,
                        config: _BranchWorkerConfig) -> None:
    runtime = _WorkerRuntime(worker_id, tasks, events, inbox, hungry, config)
    try:
        runtime.loop()
        if runtime.parked:  # pragma: no cover - protocol invariant
            raise ReproError(f"worker {worker_id} stopped with "
                             f"{len(runtime.parked)} unresolved steals")
        runtime.farewell()
    except Exception:  # pragma: no cover - surfaced as WorkerCrash
        events.put(("error", worker_id, traceback.format_exc()))
    finally:
        runtime.cache.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def _context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-POSIX


def branch_parallel_enumerate(subproblems, gamma: float, theta: int, *,
                              branching: str = "hybrid",
                              kernel: str = "ledger", workers: int = 2,
                              steal_schedule=None,
                              poll_period: int = DEFAULT_POLL_PERIOD,
                              liveness_interval: float = 0.2):
    """Enumerate compact subproblems with work-stealing branch parallelism.

    Returns ``(candidates, statistics, telemetry)``: the union of worker
    emissions as a set of frozensets, the merged per-worker
    :class:`SearchStatistics` (branch counts add up exactly to the sequential
    driver's — every branch is expanded once, somewhere), and a telemetry dict
    (``steals``, ``busy_seconds``, ``wall_seconds``, ``idle_gaps_ms``,
    ``workers``, ``worker_branches``).

    Raises :class:`WorkerCrash` when a worker dies mid-run; the caller is
    expected to fall back to the sequential driver.  Shared-memory segments
    are unlinked on every path, including crashes.
    """
    if workers < 2:
        raise ValueError("branch-parallel enumeration needs >= 2 workers")
    subproblems = list(subproblems)
    context = _context()
    store = SharedSubproblemStore()
    tasks = context.Queue()
    events = context.Queue()
    inboxes = [context.Queue() for _ in range(workers)]
    hungry = context.Value("i", 0)
    config = _BranchWorkerConfig(gamma=gamma, theta=theta, branching=branching,
                                 kernel=kernel, poll_period=poll_period,
                                 steal_schedule=steal_schedule)
    processes = [
        context.Process(target=_branch_worker_main,
                        args=(index, tasks, events, inboxes[index], hungry,
                              config),
                        daemon=True)
        for index in range(workers)
    ]
    started = time.perf_counter()
    results: set[frozenset] = set()
    statistics = SearchStatistics()
    telemetry = {"steals": 0, "busy_seconds": 0.0, "idle_gaps_ms": [],
                 "workers": workers, "wall_seconds": 0.0,
                 "worker_branches": {}}
    try:
        # Publish every segment *before* forking: the first registration
        # lazily spawns the parent's resource-tracker process, and workers
        # must inherit that tracker — a worker whose first shm registration
        # happens post-fork with no inherited tracker would spawn a private
        # one that tries to "clean up" the parent's segments when it exits.
        announced: set[str] = set()
        for index, subproblem in enumerate(subproblems):
            token = store.publish(subproblem)
            root = subproblem.initial_branch()
            task_id = f"init-{index}"
            announced.add(task_id)
            tasks.put(("task", task_id, token,
                       root.s_mask, root.c_mask, root.d_mask))
        for process in processes:
            process.start()
        outstanding = len(announced)
        pending_dones: dict[str, tuple] = {}

        def check_liveness() -> None:
            for process in processes:
                if not process.is_alive():
                    raise WorkerCrash(
                        f"branch-parallel worker pid={process.pid} died "
                        f"(exitcode={process.exitcode})")

        def apply_done(message) -> None:
            nonlocal outstanding
            _kind, _task_id, origin, found, emissions = message
            results.update(emissions)
            if origin is not None:
                donor, steal_id = origin
                inboxes[donor].put(("steal_result", steal_id, found))
            outstanding -= 1

        while outstanding > 0 or pending_dones:
            try:
                message = events.get(timeout=liveness_interval)
            except Empty:
                check_liveness()
                continue
            kind = message[0]
            if kind == "steal":
                task_id = message[1]
                announced.add(task_id)
                outstanding += 1
                held = pending_dones.pop(task_id, None)
                if held is not None:
                    apply_done(held)
            elif kind == "done":
                task_id = message[1]
                if task_id in announced:
                    apply_done(message)
                else:
                    # The thief's done overtook the donor's announce.
                    pending_dones[task_id] = message
            elif kind == "error":
                raise WorkerCrash(f"branch-parallel worker {message[1]} "
                                  f"raised:\n{message[2]}")

        for _ in processes:
            tasks.put(("stop",))
        farewells = 0
        while farewells < len(processes):
            try:
                message = events.get(timeout=liveness_interval)
            except Empty:
                check_liveness()
                continue
            if message[0] == "bye":
                _kind, worker_id, worker_stats, busy, idle_gaps = message
                statistics.merge(worker_stats)
                telemetry["busy_seconds"] += busy
                telemetry["idle_gaps_ms"].extend(idle_gaps)
                # Per-worker branch counts: max/total is the run's critical
                # path, the machine-independent bound on parallel speedup the
                # benchmarks record alongside wall clock.
                telemetry["worker_branches"][worker_id] = (
                    worker_stats.branches_explored)
                farewells += 1
            elif message[0] == "error":
                raise WorkerCrash(f"branch-parallel worker {message[1]} "
                                  f"raised:\n{message[2]}")
        for process in processes:
            process.join(timeout=10)
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
        store.close()
    telemetry["steals"] = statistics.steals
    telemetry["wall_seconds"] = time.perf_counter() - started
    return results, statistics, telemetry


# ----------------------------------------------------------------------
# Inline protocol model (deterministic, single-process) for parity tests
# ----------------------------------------------------------------------
class InlineStealRuntime:
    """Single-process model of the steal protocol with synchronous thieves.

    Drives the *same* scheduler/driver surfaces as the multiprocessing
    runtime, but a "stolen" subtree is enumerated immediately by a fresh
    sequential thief engine over the same compact graphs, and its exact driver
    verdict is contributed straight back.  With a seeded
    :class:`ForcedStealSchedule` the steal points are fully deterministic,
    which is what the branch-for-branch differential tests sweep.
    """

    def __init__(self, make_engine, schedule,
                 period: int = 4) -> None:
        self._make_engine = make_engine
        self._schedule = schedule
        self.scheduler = StealScheduler(self, period=period)
        self.thief_engines: list[FastQC] = []
        self.steals = 0
        self.root_result: bool | None = None

    def bind_root_frame(self, root_frame) -> None:
        def record(found: bool) -> None:
            self.root_result = found
        root_frame.on_resolve = record

    def poll(self, scheduler: StealScheduler) -> None:
        if not self._schedule(self):
            return
        stolen = scheduler.steal()
        if stolen is None:
            return
        state, frame = stolen
        thief = self._make_engine()
        self.thief_engines.append(thief)
        thief.enumerate_branch(Branch(state.s_mask, state.c_mask,
                                      state.d_mask))
        self.steals += 1
        contribute_steal_result(frame, thief.last_branch_found,
                                scheduler.close)

    def enumerate(self, engine: FastQC, branch: Branch) -> list[frozenset]:
        """Run one task under this runtime and return the donor's emissions."""
        outputs = engine.enumerate_branch(branch, scheduler=self.scheduler)
        # Synchronous thieves contribute before the driver returns, so the
        # root always resolves locally here.
        assert self.root_result is not None or engine.stopped
        return outputs
