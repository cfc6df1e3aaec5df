"""served-mix: reads beside writes against a ``repro serve`` process.

The server runs in its own process with default flags (plus an ephemeral
port and ``--allow-shutdown`` so the benchmark can stop it cleanly) and
serves enron, wordnet, hyves and pokec.  This process is the load generator:
:data:`CLIENTS` threads, each with one ``ServeClient`` connection, in a
closed loop.  Each client replays a seeded operation sequence built in rounds
of 20: 12 hot specs, 6 fresh specs and 2 edge toggles (``add_edge`` when the
edge is absent, ``remove_edge`` when present).  enron is read-only and
shared by both clients, so cache hits and coalescing happen across clients;
every other graph belongs to one client, so its answers are deterministic and
are checked by replaying that client's operations in-process on a fresh copy
of the dataset with the plain pipeline (no engine, cache or server).
"""

from __future__ import annotations

import itertools
import os
import random
import select
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict

from repro import QuerySpec
from repro.datasets.registry import default_parameters, get_spec, load_dataset
from repro.dynamic import DynamicEngine
from repro.errors import ReproError
from repro.pipeline.mqce import run_enumeration
from repro.serve import ServeClient, fetch_http
from repro.serve.protocol import wire_to_clique

from common import (SRC, WORK_DIR, Outcome, Stopwatch, answer_digest, mean, median,
                    process_peak_rss_mb, tail)
from grid import OWNED_GRAPHS, SHARED_GRAPH, fresh_specs, hot_specs

SERVED = ("enron", "wordnet", "hyves", "pokec")
CLIENTS = 2
SETUP_REPEATS = 8
#: One round of a client's sequence: (hot, fresh, mutate) operation counts,
#: spread evenly over the client's graphs (each count divides evenly).
ROUND = (12, 6, 2)
#: Every 4th toggle on a graph falls inside its planted (dense) region, where
#: it changes answers; the others are uniform vertex pairs.
PLANTED_TOGGLE_EVERY = 4
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0
CLIENT_TIMEOUT = 60.0


class Server:
    """One ``repro serve`` child process, from launch to a successful ping."""

    def __init__(self, tag: str, trace_dir=None) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--allow-shutdown"]
        for name in SERVED:
            command += ["--dataset", name]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self.log_path = WORK_DIR / f"serve-{tag}.log"
        start = time.perf_counter()
        with open(self.log_path, "w") as log_file:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log_file, text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=str(WORK_DIR))
        self.port = None
        try:
            self.port = self._read_port(start)
            while True:
                try:
                    with ServeClient(port=self.port, timeout=CLIENT_TIMEOUT) as client:
                        if client.ping():
                            break
                except OSError:
                    if time.perf_counter() - start > START_TIMEOUT:
                        raise
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - start

    def _read_port(self, start: float) -> int:
        stream = self.process.stdout
        while time.perf_counter() - start < START_TIMEOUT:
            ready, _, _ = select.select([stream], [], [], 1.0)
            if not ready:
                continue
            line = stream.readline()
            if not line:
                break
            if line.startswith("# serving"):
                return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        raise RuntimeError(f"repro serve did not start: {self.log_tail()}")

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text()[-400:]
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Ask for shutdown, wait; kill if it does not exit in time."""
        if self.process.poll() is None:
            if self.port is not None:
                try:
                    with ServeClient(port=self.port, timeout=STOP_TIMEOUT) as client:
                        client.shutdown()
                except (OSError, ReproError):
                    pass  # the wait below still ends the process
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log_path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Operation sequences
# ----------------------------------------------------------------------
def planted_region(name: str) -> int:
    """Vertices ``0..n-1`` hold the dataset's planted quasi-cliques."""
    spec = get_spec(name)
    return sum(size + 3 for size in spec.planted_sizes)


def operations(seed: int, client: int):
    """Yield one client's operations forever: ``(kind, graph, payload)``.

    ``kind`` is ``"query"`` with payload ``(gamma, theta)`` or ``"mutate"``
    with payload ``(op, u, v)``.  Every round holds the same number of hot
    queries, fresh queries and mutations per graph, in a seeded order, so
    seeds differ in order and in which fresh specs and edges they draw, not
    in the mix.  Toggles are decided against a private copy of each owned
    graph, so every mutation is valid when it is replayed.
    """
    rng = random.Random(seed * 7919 + client)
    owned = OWNED_GRAPHS[client]
    graphs = (SHARED_GRAPH,) + owned
    shadow = {name: load_dataset(name) for name in owned}
    hot, fresh, mutate = ROUND
    plan = ([("hot", name) for name in graphs for _ in range(hot // len(graphs))]
            + [("fresh", name) for name in graphs for _ in range(fresh // len(graphs))]
            + [("mutate", name) for name in owned for _ in range(mutate // len(owned))])
    hot_turn = dict.fromkeys(graphs, 0)
    fresh_pool = {name: [] for name in graphs}
    toggles = dict.fromkeys(owned, 0)
    while True:
        rng.shuffle(plan)
        for kind, name in plan:
            if kind == "hot":
                specs = hot_specs(name)
                hot_turn[name] += 1
                yield "query", name, specs[hot_turn[name] % len(specs)]
            elif kind == "fresh":
                pool = fresh_pool[name]
                if not pool:
                    pool.extend(fresh_specs(name))
                    rng.shuffle(pool)
                yield "query", name, pool.pop()
            else:
                graph = shadow[name]
                toggles[name] += 1
                planted = toggles[name] % PLANTED_TOGGLE_EVERY == 0
                limit = planted_region(name) if planted else graph.vertex_count
                u, v = rng.sample(range(limit), 2)
                op = "remove_edge" if graph.has_edge(u, v) else "add_edge"
                getattr(graph, op)(u, v)
                yield "mutate", name, (op, u, v)


class Record:
    __slots__ = ("kind", "graph", "payload", "seconds", "first_batch", "frame",
                 "answer", "error")

    def __init__(self, kind, graph, payload) -> None:
        self.kind, self.graph, self.payload = kind, graph, payload
        self.seconds = self.first_batch = None
        self.frame: dict = {}
        self.answer = None
        self.error = None


def timed_query(client, graph: str, gamma: float, theta: int, record: Record) -> None:
    cliques = []
    start = time.perf_counter()
    for frame in client.query_stream({"gamma": gamma, "theta": theta}, graph=graph):
        if frame["type"] == "batch":
            if record.first_batch is None:
                record.first_batch = time.perf_counter() - start
            cliques.extend(wire_to_clique(entry) for entry in frame["cliques"])
        else:
            record.frame = frame
    record.seconds = time.perf_counter() - start
    record.answer = cliques


def client_loop(port: int, ops, deadline: float, records: list) -> None:
    """Closed loop: send the next operation once the previous one completed."""
    with ServeClient(port=port, timeout=CLIENT_TIMEOUT) as client:
        for kind, graph, payload in ops:
            if time.perf_counter() >= deadline:
                return
            record = Record(kind, graph, payload)
            records.append(record)
            try:
                if kind == "query":
                    timed_query(client, graph, *payload, record)
                else:
                    start = time.perf_counter()
                    record.frame = client.mutate([list(payload)], graph=graph)
                    record.seconds = time.perf_counter() - start
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                record.error = f"{type(exc).__name__}: {exc}"


def run_phase(port: int, seed: int, seconds: float) -> tuple[list[list[Record]], float]:
    records = [[] for _ in range(CLIENTS)]
    sequences = [operations(seed, client) for client in range(CLIENTS)]
    # The first step of each sequence builds its private graph copies; take
    # it before the clock starts.
    first_ops = [next(sequence) for sequence in sequences]
    deadline = time.perf_counter() + seconds
    threads = [threading.Thread(
        target=client_loop, name=f"served-mix-client-{client}",
        args=(port, itertools.chain([first_ops[client]], sequences[client]), deadline,
              records[client]))
        for client in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * CLIENT_TIMEOUT)
    return records, time.perf_counter() - start


# ----------------------------------------------------------------------
# Verification by replay
# ----------------------------------------------------------------------
class Replay:
    """Expected answers from the plain pipeline on in-process graph copies."""

    def __init__(self) -> None:
        self.graphs = {name: load_dataset(name) for name in SERVED}
        self.versions = dict.fromkeys(SERVED, 0)
        self.memo: dict = {}

    def expected(self, graph: str, gamma: float, theta: int) -> str:
        key = (graph, self.versions[graph], gamma, theta)
        if key not in self.memo:
            result = run_enumeration(self.graphs[graph], QuerySpec(gamma, theta))
            self.memo[key] = answer_digest(result.maximal_quasi_cliques)
        return self.memo[key]

    def apply(self, graph: str, op: str, u, v) -> None:
        getattr(self.graphs[graph], op)(u, v)
        self.versions[graph] += 1


def verify(outcome: Outcome, replay: Replay, records: list[Record]) -> None:
    """Check one client's records in order against the replay."""
    for record in records:
        outcome.attempted += 1
        if record.error is not None:
            outcome.failed += 1
            outcome.fail(f"{record.kind} on {record.graph} failed: {record.error}")
            continue
        if record.kind == "mutate":
            replay.apply(record.graph, *record.payload)
            continue
        ok = (record.frame.get("finished") and not record.frame.get("truncated")
              and answer_digest(record.answer) == replay.expected(record.graph,
                                                                  *record.payload))
        if not ok:
            outcome.failed += 1
            outcome.fail(f"wrong served answer: {record.graph} {record.payload}")


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def first_queries(port: int, outcome: Outcome, replay: Replay) -> list[float]:
    """The first query on each freshly started graph, at its default point."""
    samples = []
    with ServeClient(port=port, timeout=CLIENT_TIMEOUT) as client:
        for name in SERVED:
            record = Record("query", name, default_parameters(name))
            timed_query(client, name, *record.payload, record)
            verify(outcome, replay, [record])
            samples.append(record.seconds)
    return samples


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    WORK_DIR.mkdir(exist_ok=True)
    replay = Replay()
    setup_s, first_query = [], []
    servers = []
    try:
        for repeat in range(SETUP_REPEATS):
            traced = trace and repeat == SETUP_REPEATS - 1
            server = Server(str(repeat), WORK_DIR / "traces" if traced else None)
            servers.append(server)
            setup_s.append(server.setup_seconds)
            first_query.append(mean(first_queries(server.port, outcome, replay)))
            if repeat < SETUP_REPEATS - (2 if trace else 1):
                servers.pop().stop()
        if trace:
            _traced(outcome, servers, seed, seconds, replay)
            return outcome
        server = servers[-1]
        records, wall = run_phase(server.port, seed, seconds)
        rss = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(WORK_DIR / "traces", ignore_errors=True)
    for client_records in records:
        verify(outcome, replay, client_records)
    queries = [r for client in records for r in client if r.kind == "query" and r.error is None]
    latencies = [r.seconds for r in queries]
    tail_pct, tail_value = tail(latencies) or (0.0, 0.0)
    outcome.end_to_end.update({
        "setup_s": median(setup_s),
        "query_p50_ms": median(latencies) * 1000,
        "queries_per_s": len(latencies) / wall,
        "first_query_ms": median(first_query) * 1000,
        "peak_rss_mb": rss,
    })
    outcome.notes.update(
        queries=len(latencies),
        mutations=sum(r.kind == "mutate" for client in records for r in client),
        tail=f"p{tail_pct:g}={tail_value * 1000:.3f} ms",
        first_batch_p50_ms=round(median(r.first_batch for r in queries
                                        if r.first_batch is not None) * 1000, 3),
        mutate_p50_ms=round(median(r.seconds for client in records for r in client
                                   if r.kind == "mutate" and r.error is None) * 1000, 3),
        from_cache=round(sum(bool(r.frame.get("from_cache")) for r in queries)
                         / max(1, len(queries)), 3))
    return outcome


def _traced(outcome: Outcome, servers: list, seed: int, seconds: float,
            replay: Replay) -> None:
    """Same sequence on an untraced and a tracing server, half the time each."""
    with Stopwatch() as build:
        graphs = [load_dataset(name) for name in SERVED]
    with Stopwatch() as prepare:
        for graph in graphs:
            DynamicEngine(graph)
    untraced_server, traced_server = servers
    plain, _ = run_phase(untraced_server.port, seed, seconds / 2)
    records, _ = run_phase(traced_server.port, seed, seconds / 2)
    _, metrics_text = fetch_http("/metrics", port=traced_server.port)
    for client_records in records:
        verify(outcome, replay, client_records)
    replay_plain = Replay()
    for client_records in plain:
        verify(outcome, replay_plain, client_records)
    queries = [r for client in records for r in client if r.kind == "query" and r.error is None]
    mutations = [r for client in records for r in client if r.kind == "mutate" and r.error is None]
    plain_queries = [r.seconds for client in plain for r in client
                     if r.kind == "query" and r.error is None]
    invalidated = sum(r.frame.get("invalidated", 0) for r in mutations)
    retained = sum(r.frame.get("retained", 0) for r in mutations)
    layers = request_trace_layers(WORK_DIR / "traces")
    outcome.per_layer.update({
        "graph.build_s": build.seconds,
        "engine.prepare_ms": prepare.seconds * 1000,
        "engine.cache_hit_ratio": sum(bool(r.frame.get("from_cache")) for r in queries)
        / max(1, len(queries)),
        "core.decompose_ms": layers.get("decompose", 0.0),
        "core.shrink_ms": layers.get("shrink", 0.0),
        "core.search_ms": layers.get("subproblem", 0.0),
        "serve.server_ms": median(r.frame.get("seconds", 0.0) for r in queries) * 1000,
        "serve.overhead_ms": median(r.seconds - r.frame.get("seconds", 0.0)
                                    for r in queries) * 1000,
        "serve.coalesced_ratio": sum(bool(r.frame.get("coalesced")) for r in queries)
        / max(1, len(queries)),
        "serve.shed": prometheus_sum(metrics_text, "repro_serve_requests_total",
                                     'outcome="overloaded"'),
        "serve.mutate_ms": median(r.seconds for r in mutations) * 1000,
        "stream.first_batch_ms": median(r.frame["first_batch_seconds"] for r in queries
                                        if r.frame.get("first_batch_seconds") is not None)
        * 1000,
        "dynamic.apply_ms": median(r.frame.get("seconds", 0.0) for r in mutations) * 1000,
        "dynamic.invalidated_ratio": invalidated / (invalidated + retained)
        if invalidated + retained else 0.0,
        "dynamic.full_rebuilds": sum(bool(r.frame.get("full_rebuild")) for r in mutations),
        "trace.overhead_pct": (median(r.seconds for r in queries)
                               / median(plain_queries) - 1) * 100,
    })
    outcome.notes.update(live_requests=layers.get("requests", 0),
                         queries=len(queries), mutations=len(mutations))


def request_trace_layers(trace_dir) -> dict[str, float]:
    """Mean ms per executed request of the DC spans in the server's traces."""
    import json

    totals: dict[str, float] = defaultdict(float)
    requests = 0
    for path in sorted(trace_dir.glob("request-*.json")):
        events = json.loads(path.read_text())["traceEvents"]
        names = {event["name"] for event in events}
        if "decompose" not in names:
            continue
        requests += 1
        for event in events:
            if event.get("ph") == "X":
                totals[event["name"]] += event["dur"] / 1000.0
    layers = {name: totals[name] / requests for name in ("decompose", "shrink", "subproblem")
              } if requests else {}
    layers["requests"] = requests
    return layers


def prometheus_sum(text: str, metric: str, label: str) -> float:
    """Sum of one counter's samples whose labels contain ``label``."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(metric + "{") and label in line:
            total += float(line.rsplit(" ", 1)[1])
    return total
