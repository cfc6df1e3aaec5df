"""Serve-layer tests: protocol, coalescing, admission, CLI.

The acceptance criteria live here:

* a stampede of >= 8 concurrent identical cold queries runs exactly ONE
  enumeration (verified via ``repro_engine_queries_total{served="execute"}``
  and the coalesce counters) and every client receives the full,
  byte-identical batch sequence;
* overload sheds with the typed :class:`ServiceOverloadedError` without
  corrupting in-flight streams;
* server answers under admission control match single-process
  ``MQCEEngine.query`` across a differential case grid, including across an
  interleaved graph mutation.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro import Graph, MQCEEngine, QuerySpec
from repro.cli import main
from repro.errors import ReproError, ServiceOverloadedError, SpecError
from repro.obs.metrics import REGISTRY
from repro.serve import ReproService, ServeClient, fetch_http, start_in_thread
from repro.serve.protocol import (ProtocolError, clique_to_wire, decode_frame,
                                  encode_frame, error_payload,
                                  exception_from_payload, validate_request,
                                  wire_to_clique)

_EXECUTED = REGISTRY.counter("repro_engine_queries_total")
_COALESCED = REGISTRY.counter("repro_serve_coalesced_waiters_total")
_SHED = REGISTRY.counter("repro_serve_shed_total")


def _random_graph(seed: int = 11, vertices: int = 36, edges: int = 260) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    while graph.edge_count < edges:
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v:
            graph.add_edge(u, v)
    return graph


def _edges(graph: Graph) -> list[tuple]:
    return sorted((min(u, v), max(u, v)) for u, v in graph.edges())


@pytest.fixture
def graph() -> Graph:
    return _random_graph()


@pytest.fixture
def service(graph):
    service = ReproService(max_concurrent=2, allow_shutdown=True)
    service.add_graph("demo", graph)
    with start_in_thread(service) as handle:
        yield handle
    # teardown handled by the context manager


class _GatedStream:
    """Wraps a ResultStream so iteration blocks until the test says go."""

    def __init__(self, inner, gate: threading.Event) -> None:
        self._inner_stream = inner
        self._gate = gate

    def __iter__(self):
        assert self._gate.wait(timeout=30), "test gate never opened"
        yield from self._inner_stream

    def cancel(self) -> None:
        self._inner_stream.cancel()

    def __getattr__(self, name):
        return getattr(self._inner_stream, name)


def _gate_host(service: ReproService, name: str = "demo") -> threading.Event:
    """Make the named host's enumerations block on the returned event."""
    host = service.hosts[name]
    gate = threading.Event()
    original = host.open_stream
    host.open_stream = (lambda spec, tracer=None:
                        _GatedStream(original(spec, tracer=tracer), gate))
    return gate


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        payload = {"op": "query", "spec": {"gamma": 0.9, "theta": 5}}
        line = encode_frame(payload)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert decode_frame(line) == payload

    def test_encoding_is_canonical(self):
        a = encode_frame({"b": 1, "a": [2, 3]})
        b = encode_frame({"a": [2, 3], "b": 1})
        assert a == b and b" " not in a

    @pytest.mark.parametrize("line", [b"", b"   ", b"not json", b"[1,2]"])
    def test_decode_rejects_garbage(self, line):
        with pytest.raises(ProtocolError):
            decode_frame(line)

    def test_validate_request(self):
        assert validate_request({"op": "ping"}) == "ping"
        with pytest.raises(ProtocolError):
            validate_request({"op": "bogus"})
        with pytest.raises(ProtocolError):
            validate_request({"op": "query"})  # no spec
        with pytest.raises(ProtocolError):
            validate_request({"op": "mutate"})  # no updates/script

    def test_clique_wire_round_trip(self):
        clique = frozenset({3, 1, 2})
        wired = clique_to_wire(clique)
        assert wired == sorted(wired, key=lambda x: (str(type(x)), str(x)))
        assert wire_to_clique(wired) == clique

    def test_typed_errors_cross_the_wire(self):
        exc = ServiceOverloadedError("full", running=2, queued=3)
        back = exception_from_payload(error_payload(exc))
        assert isinstance(back, ServiceOverloadedError)
        assert back.running == 2 and back.queued == 3
        spec_err = exception_from_payload(error_payload(SpecError("bad spec")))
        assert isinstance(spec_err, SpecError)
        unknown = exception_from_payload({"error": "WeirdError", "message": "x"})
        assert isinstance(unknown, ReproError)
        assert "WeirdError" in str(unknown)


# ----------------------------------------------------------------------
# Service basics
# ----------------------------------------------------------------------
class TestServiceBasics:
    def test_ping_graphs_stats(self, service):
        with ServeClient(port=service.port) as client:
            assert client.ping()
            graphs = client.graphs()
            assert graphs["demo"]["vertices"] == 36
            stats = client.stats()
            assert stats["admission"]["max_concurrent"] == 2
            assert "demo" in stats["graphs"]

    def test_query_matches_engine(self, service, graph):
        with ServeClient(port=service.port) as client:
            cliques, done = client.query({"gamma": 0.9, "theta": 4})
        reference = MQCEEngine().query(_random_graph(),
                                       spec=QuerySpec(gamma=0.9, theta=4))
        assert set(cliques) == set(reference.maximal_quasi_cliques)
        assert done["finished"] and not done["truncated"]

    def test_second_query_hits_cache(self, service):
        with ServeClient(port=service.port) as client:
            first, done1 = client.query({"gamma": 0.9, "theta": 4})
            second, done2 = client.query({"gamma": 0.9, "theta": 4})
        assert not done1["from_cache"] and done2["from_cache"]
        assert set(first) == set(second)

    def test_flush_forces_re_execution(self, service):
        with ServeClient(port=service.port) as client:
            client.query({"gamma": 0.9, "theta": 4})
            assert client.flush() >= 1
            _, done = client.query({"gamma": 0.9, "theta": 4})
        assert not done["from_cache"]

    def test_protocol_error_keeps_connection_usable(self, service):
        with ServeClient(port=service.port) as client:
            client._send({"op": "bogus"})
            frame = client._recv()
            assert frame["type"] == "error"
            assert frame["error"] == "ProtocolError"
            assert client.ping()  # same connection still works

    def test_unknown_graph_is_typed_error(self, service):
        with ServeClient(port=service.port) as client:
            with pytest.raises(ReproError):
                client.query({"gamma": 0.9, "theta": 4}, graph="nope")
            assert client.ping()

    def test_removed_parallel_mode_is_a_typed_spec_error(self, service):
        with ServeClient(port=service.port) as client:
            client._send({"op": "query", "graph": "demo",
                          "spec": {"gamma": 0.9, "theta": 4,
                                   "parallel": "shard"}})
            frame = client._recv()
            assert frame["type"] == "error" and frame["error"] == "SpecError"
            assert "'auto', 'none', 'branch'" in frame["message"]
            assert client.ping()  # the connection survives the bad spec
            # "kernel" is not a QuerySpec field: a typed error too.
            client._send({"op": "query", "graph": "demo",
                          "spec": {"gamma": 0.9, "theta": 4,
                                   "kernel": "reference"}})
            frame = client._recv()
            assert frame["type"] == "error" and frame["error"] == "SpecError"
            assert "'kernel'" in frame["message"]
            assert client.ping()

    def test_budget_overlay_caps_results(self, graph):
        service = ReproService(max_results=2)
        service.add_graph("demo", graph)
        with start_in_thread(service) as handle:
            with ServeClient(port=handle.port) as client:
                cliques, done = client.query({"gamma": 0.9, "theta": 4})
        assert len(cliques) <= 2
        assert done["truncated"]

    def test_http_shim(self, service):
        status, body = fetch_http("/metrics", port=service.port)
        assert status == 200
        assert "repro_serve_requests_total" in body
        assert "repro_engine_queries_total" in body
        status, body = fetch_http("/healthz", port=service.port)
        assert status == 200 and json.loads(body)["status"] == "ok"
        status, body = fetch_http("/stats", port=service.port)
        assert status == 200 and "admission" in json.loads(body)
        status, _ = fetch_http("/nope", port=service.port)
        assert status == 404


# ----------------------------------------------------------------------
# Differential grid vs the in-process engine (acceptance criterion)
# ----------------------------------------------------------------------
class TestDifferentialGrid:
    GRID = [
        {"gamma": 0.9, "theta": 4},
        {"gamma": 0.85, "theta": 4},
        {"gamma": 0.9, "theta": 5},
        {"gamma": 0.9, "theta": 4, "k": 3},
        {"gamma": 0.9, "theta": 3, "contains": [0]},
        {"gamma": 0.9, "theta": 4, "algorithm": "fastqc"},
    ]

    def test_grid_matches_engine_across_mutation(self, service):
        mutations = [("add_edge", 0, 35), ("add_edge", 1, 34),
                     ("remove_edge", *_edges(_random_graph())[0])]
        local = _random_graph()

        def check_all(client):
            engine = MQCEEngine()
            for fields in self.GRID:
                served, done = client.query(fields)
                expected = engine.query(local, spec=QuerySpec.from_dict(fields))
                assert set(served) == set(expected.maximal_quasi_cliques), fields
                assert done["finished"], fields

        with ServeClient(port=service.port) as client:
            check_all(client)
            report = client.mutate(mutations)
            assert report["type"] == "report"
            for op, u, v in mutations:
                getattr(local, op)(u, v)
            check_all(client)  # same grid, post-mutation


# ----------------------------------------------------------------------
# Single-flight coalescing (acceptance criterion)
# ----------------------------------------------------------------------
class TestSingleFlight:
    STAMPEDE = 8

    def test_stampede_runs_exactly_one_enumeration(self, service):
        gate = _gate_host(service.service)
        spec = {"gamma": 0.9, "theta": 4}
        frames: dict[int, list] = {}
        errors: list[BaseException] = []

        def run_client(index: int) -> None:
            try:
                with ServeClient(port=service.port) as client:
                    frames[index] = list(client.query_stream(spec))
            except BaseException as exc:  # noqa: BLE001 - surfaced by the test
                errors.append(exc)

        executed_before = _EXECUTED.value(served="execute")
        coalesced_before = _COALESCED.value()
        threads = [threading.Thread(target=run_client, args=(i,))
                   for i in range(self.STAMPEDE)]
        for thread in threads:
            thread.start()
        # Open the gate only after every client has subscribed to the flight,
        # so the coalescing decision is deterministic, not a race.
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            joined = sum(f.joined for f in
                         service.service.flights._flights.values())
            if joined >= self.STAMPEDE:
                break
            time.sleep(0.01)
        else:
            pytest.fail("clients never all subscribed")
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors

        # Exactly ONE enumeration for the whole stampede, counter-verified.
        assert _EXECUTED.value(served="execute") == executed_before + 1
        assert _COALESCED.value() == coalesced_before + self.STAMPEDE - 1

        # Every client saw the identical batch sequence (hence identical
        # bytes: encode_frame is canonical), and the full result set.
        batch_frames = {i: [f for f in seq if f["type"] == "batch"]
                        for i, seq in frames.items()}
        reference = batch_frames[0]
        assert all(batch_frames[i] == reference for i in batch_frames)
        expected = MQCEEngine().query(_random_graph(),
                                      spec=QuerySpec(gamma=0.9, theta=4))
        delivered = {wire_to_clique(c) for f in reference for c in f["cliques"]}
        assert delivered == set(expected.maximal_quasi_cliques)
        # One done frame each; exactly one client led, the rest coalesced.
        done_frames = [seq[-1] for seq in frames.values()]
        assert all(f["type"] == "done" and f["finished"] for f in done_frames)
        assert sum(1 for f in done_frames if not f["coalesced"]) == 1

    def test_disabled_coalescing_runs_n_enumerations(self, graph):
        service = ReproService(single_flight=False)
        service.add_graph("demo", graph)
        executed_before = _EXECUTED.value(served="execute")
        with start_in_thread(service) as handle:
            gate = _gate_host(service)
            spec = {"gamma": 0.9, "theta": 4}

            def query() -> None:
                with ServeClient(port=handle.port) as client:
                    client.query(spec)

            threads = [threading.Thread(target=query) for _ in range(3)]
            for thread in threads:
                thread.start()
            gate.set()
            for thread in threads:
                thread.join(timeout=30)
        assert _EXECUTED.value(served="execute") == executed_before + 3


# ----------------------------------------------------------------------
# Admission control and load shedding (acceptance criterion)
# ----------------------------------------------------------------------
class TestAdmission:
    def test_overload_sheds_typed_error_without_corrupting_streams(self, graph):
        service = ReproService(max_concurrent=1, max_queue=0)
        service.add_graph("demo", graph)
        with start_in_thread(service) as handle:
            gate = _gate_host(service)
            slow_result: dict = {}

            def slow_client() -> None:
                with ServeClient(port=handle.port) as client:
                    cliques, done = client.query({"gamma": 0.9, "theta": 4})
                    slow_result["cliques"] = cliques
                    slow_result["done"] = done

            slow = threading.Thread(target=slow_client)
            slow.start()
            deadline = time.monotonic() + 15
            while service.admission.running < 1:
                assert time.monotonic() < deadline, "first query never admitted"
                time.sleep(0.01)

            shed_before = _SHED.value()
            with ServeClient(port=handle.port) as client:
                with pytest.raises(ServiceOverloadedError) as info:
                    client.query({"gamma": 0.85, "theta": 5})  # distinct query
                assert info.value.running == 1
                assert client.ping()  # connection survives the shed
            assert _SHED.value() == shed_before + 1

            gate.set()  # release the in-flight enumeration
            slow.join(timeout=30)
        expected = MQCEEngine().query(_random_graph(),
                                      spec=QuerySpec(gamma=0.9, theta=4))
        assert set(slow_result["cliques"]) == set(expected.maximal_quasi_cliques)
        assert slow_result["done"]["finished"]

    def test_queue_admits_when_below_bound(self, graph):
        service = ReproService(max_concurrent=1, max_queue=4)
        service.add_graph("demo", graph)
        with start_in_thread(service) as handle:
            gate = _gate_host(service)
            results: list = []

            def client_thread(theta: int) -> None:
                with ServeClient(port=handle.port) as client:
                    results.append(client.query({"gamma": 0.9, "theta": theta}))

            threads = [threading.Thread(target=client_thread, args=(theta,))
                       for theta in (4, 5)]
            for thread in threads:
                thread.start()
            gate.set()
            for thread in threads:
                thread.join(timeout=30)
        assert len(results) == 2  # the second waited in the queue, no shed


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_client_query_and_mutate(self, service, tmp_path, capsys):
        rc = main(["client", "--port", str(service.port),
                   "--query", '{"gamma": 0.9, "theta": 4}'])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# " in out and "answers" in out

        script = tmp_path / "updates.txt"
        script.write_text("add 100 101\nadd 101 102\n")
        rc = main(["client", "--port", str(service.port),
                   "--mutate", str(script)])
        assert rc == 0
        assert "mutations applied" in capsys.readouterr().out

    def test_client_json_stream(self, service, capsys):
        rc = main(["client", "--port", str(service.port), "--json",
                   "--query", '{"gamma": 0.9, "theta": 4, "k": 2}'])
        assert rc == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.strip().splitlines()]
        assert sum(1 for entry in lines if "clique" in entry) == 2
        assert lines[-1]["type"] == "done"

    def test_client_control_operations(self, service, capsys):
        assert main(["client", "--port", str(service.port)]) == 0
        assert "pong" in capsys.readouterr().out
        assert main(["client", "--port", str(service.port), "--graphs"]) == 0
        assert "demo" in capsys.readouterr().out
        assert main(["client", "--port", str(service.port), "--stats"]) == 0
        assert "admission" in capsys.readouterr().out

    def test_client_shutdown(self, graph, capsys):
        service = ReproService(allow_shutdown=True)
        service.add_graph("demo", graph)
        handle = start_in_thread(service)
        assert main(["client", "--port", str(handle.port), "--shutdown"]) == 0
        assert "shut down" in capsys.readouterr().out
        handle.thread.join(timeout=10)
        assert not handle.thread.is_alive()

    def test_shutdown_refused_without_flag(self, graph, capsys):
        locked = ReproService()  # allow_shutdown defaults to False
        locked.add_graph("demo", graph)
        with start_in_thread(locked) as handle:
            rc = main(["client", "--port", str(handle.port), "--shutdown"])
        assert rc == 2  # typed ProtocolError -> CLI error exit
        assert "shutdown is disabled" in capsys.readouterr().err

    def test_serve_cli_boots_serves_and_shuts_down(self, graph, tmp_path):
        import socket as socket_module

        from repro.graph.io import write_edge_list

        with socket_module.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        edges = tmp_path / "graph.txt"
        write_edge_list(graph, str(edges))
        outcome: dict = {}
        server = threading.Thread(target=lambda: outcome.update(rc=main(
            ["serve", "--input", str(edges), "--name", "demo",
             "--port", str(port), "--allow-shutdown", "--max-concurrent", "2"])))
        server.start()
        deadline = time.monotonic() + 20
        while True:
            try:
                ServeClient(port=port, timeout=5).close()
                break
            except OSError:
                assert time.monotonic() < deadline, "serve CLI never bound"
                time.sleep(0.05)
        with ServeClient(port=port) as client:
            assert client.graphs().keys() == {"demo"}
            _, done = client.query({"gamma": 0.9, "theta": 4})
            assert done["finished"]
            client.shutdown()
        server.join(timeout=20)
        assert outcome.get("rc") == 0

    def test_serve_cli_requires_a_graph(self):
        with pytest.raises(SystemExit):
            main(["serve", "--port", "0"])

    def test_worker_command_is_gone(self, capsys):
        # The file-spool worker tier was removed; argparse rejects the name.
        with pytest.raises(SystemExit) as info:
            main(["worker", "--spool", "unused"])
        assert info.value.code == 2
        assert "invalid choice: 'worker'" in capsys.readouterr().err
