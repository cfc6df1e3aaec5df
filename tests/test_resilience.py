"""Fault-tolerance tests: injection, retry/resume, degradation.

The acceptance criteria live here:

* a client stream interrupted by injected connection drops resumes from the
  last acked batch and reassembles a byte-identical frame sequence;
* repeated enumeration failures open the per-``(graph, spec)`` circuit
  (typed :class:`CircuitOpenError`), and a half-open probe closes it again.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import Graph
from repro.errors import (CircuitOpenError, ConnectionLostError,
                          DeadlineExceededError, FaultInjectedError,
                          ReproError)
from repro.obs.metrics import REGISTRY
from repro.resilience import (BreakerBoard, CircuitBreaker, Deadline,
                              FaultPlan, RetryPolicy, call_with_retry,
                              fault_point, install_plan, parse_plan,
                              reset_plan)
from repro.serve import ReproService, ServeClient, fetch_http, start_in_thread
from repro.serve.protocol import (encode_frame, error_payload,
                                  exception_from_payload, validate_request)

_INJECTED = REGISTRY.counter("repro_faults_injected_total")


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    """Every test starts fault-free and leaves no plan behind."""
    install_plan(None)
    yield
    reset_plan()


def _random_graph(seed: int = 11, vertices: int = 36, edges: int = 260) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    while graph.edge_count < edges:
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v:
            graph.add_edge(u, v)
    return graph


@pytest.fixture
def graph() -> Graph:
    return _random_graph()


def _sequential_answer(graph, gamma, theta):
    from repro.core.dcfastqc import DCFastQC
    from repro.settrie.filter import filter_non_maximal

    return set(filter_non_maximal(DCFastQC(graph, gamma, theta).enumerate(),
                                  theta=theta))


# ----------------------------------------------------------------------
# Fault plan mechanics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_plan_round_trip(self):
        plan = parse_plan("client.connect:raise:after=2;"
                          "serve.write_frame:drop:times=3;"
                          "worker.task:delay=0.25;"
                          "serve.enumerate:raise:p=0.5:seed=7:times=0")
        rules = {rule.site: rule for rule in plan.rules()}
        assert rules["client.connect"].after == 2
        assert rules["serve.write_frame"].times == 3
        assert rules["worker.task"].action == "delay"
        assert rules["worker.task"].delay == 0.25
        assert rules["serve.enumerate"].p == 0.5

    @pytest.mark.parametrize("text", ["nonsense", "site:explode",
                                      "site:raise:after=0", "site:raise:p=2",
                                      "site:raise:wat=1"])
    def test_malformed_plans_are_rejected(self, text):
        with pytest.raises(ReproError):
            parse_plan(text)

    def test_no_plan_is_a_no_op(self):
        assert fault_point("worker.task") is None

    def test_after_and_times_schedule_hits(self):
        install_plan(parse_plan("x:raise:after=2:times=2"))
        assert fault_point("x") is None          # hit 1: before `after`
        for _ in range(2):                        # hits 2-3 fire
            with pytest.raises(FaultInjectedError) as info:
                fault_point("x")
            assert info.value.site == "x"
        assert fault_point("x") is None          # budget exhausted

    def test_truncate_and_drop_are_returned_not_raised(self):
        install_plan(parse_plan("w:truncate:times=0;d:drop:times=0"))
        assert fault_point("w") == "truncate"
        assert fault_point("d") == "drop"

    def test_delay_sleeps(self):
        install_plan(parse_plan("z:delay=0.05"))
        start = time.monotonic()
        assert fault_point("z") is None
        assert time.monotonic() - start >= 0.05

    def test_probabilistic_rules_are_seeded_deterministic(self):
        def fired_pattern():
            plan = parse_plan("p:raise:p=0.5:seed=42:times=0")
            install_plan(plan)
            pattern = []
            for _ in range(20):
                try:
                    fault_point("p")
                    pattern.append(False)
                except FaultInjectedError:
                    pattern.append(True)
            return pattern

        first, second = fired_pattern(), fired_pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_fired_faults_are_counted(self):
        before = _INJECTED.value(site="counted", action="raise")
        install_plan(parse_plan("counted:raise"))
        with pytest.raises(FaultInjectedError):
            fault_point("counted")
        assert _INJECTED.value(site="counted", action="raise") == before + 1
        assert install_plan(None) is None

    def test_env_var_arms_the_plan_after_reset(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "envsite:raise")
        reset_plan()
        with pytest.raises(FaultInjectedError):
            fault_point("envsite")
        install_plan(None)  # detach from env for the rest of the test


# ----------------------------------------------------------------------
# Retry policy and deadlines
# ----------------------------------------------------------------------
class TestRetry:
    def test_delays_are_deterministic_capped_and_decorrelated(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, max_delay=1.0,
                             seed=3)
        first, second = list(policy.delays()), list(policy.delays())
        assert first == second
        assert len(first) == 5
        assert all(0.1 <= delay <= 1.0 for delay in first)

    def test_call_with_retry_recovers_then_succeeds(self):
        sleeps, attempts = [], []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionResetError("boom")
            return "ok"

        result = call_with_retry(
            flaky, policy=RetryPolicy(max_attempts=4, seed=1),
            retryable=(ConnectionResetError,), sleep=sleeps.append)
        assert result == "ok"
        assert len(attempts) == 3 and len(sleeps) == 2

    def test_call_with_retry_exhausts_and_reraises(self):
        def always():
            raise ConnectionResetError("still down")

        with pytest.raises(ConnectionResetError):
            call_with_retry(always,
                            policy=RetryPolicy(max_attempts=3, seed=1),
                            retryable=(ConnectionResetError,),
                            sleep=lambda _s: None)

    def test_non_retryable_errors_pass_straight_through(self):
        calls = []

        def typed():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            call_with_retry(typed, policy=RetryPolicy(max_attempts=5, seed=1),
                            retryable=(ConnectionResetError,),
                            sleep=lambda _s: None)
        assert len(calls) == 1

    def test_deadline_bounds_the_retry_loop(self):
        clock = {"now": 0.0}
        deadline = Deadline(1.0, clock=lambda: clock["now"])

        def always():
            clock["now"] += 0.6
            raise ConnectionResetError("down")

        with pytest.raises(ConnectionResetError):
            call_with_retry(always,
                            policy=RetryPolicy(max_attempts=10, seed=1),
                            retryable=(ConnectionResetError,),
                            deadline=deadline, sleep=lambda _s: None)
        assert clock["now"] < 2.0  # far fewer than 10 attempts ran

    def test_deadline_check_raises_typed_error(self):
        clock = {"now": 0.0}
        deadline = Deadline.after(0.5, clock=lambda: clock["now"])
        deadline.check("warm-up")
        clock["now"] = 1.0
        assert deadline.expired() and deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            deadline.check("enumeration")

    def test_deadline_default_clock_is_read_when_made(self, monkeypatch):
        import repro.resilience.retry as retry_module

        class FakeTime:
            now = 100.0

            @classmethod
            def monotonic(cls) -> float:
                return cls.now

        monkeypatch.setattr(retry_module, "time", FakeTime)
        deadline = Deadline.after(2.0)
        assert deadline.remaining() == 2.0 and not deadline.expired()
        FakeTime.now = 102.0
        assert deadline.expired()


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_at_threshold_and_fails_fast(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0,
                                 clock=lambda: clock["now"])
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        with pytest.raises(CircuitOpenError) as info:
            breaker.allow()
        assert info.value.retry_after == pytest.approx(10.0)
        assert breaker.state_name == "open"

    def test_half_open_admits_one_probe_then_closes_on_success(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=lambda: clock["now"])
        breaker.allow()
        breaker.record_failure()
        clock["now"] = 6.0
        assert breaker.state_name == "half-open"
        breaker.allow()                       # the probe
        with pytest.raises(CircuitOpenError):
            breaker.allow()                   # concurrent arrival: fail fast
        breaker.record_success()
        assert breaker.state_name == "closed"
        breaker.allow()

    def test_probe_failure_reopens_for_a_full_timeout(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=lambda: clock["now"])
        breaker.allow()
        breaker.record_failure()
        clock["now"] = 6.0
        breaker.allow()
        breaker.record_failure()              # probe failed
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock["now"] = 10.9                   # < 6.0 + 5.0
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_board_keys_breakers_independently(self):
        board = BreakerBoard(failure_threshold=1, reset_timeout=30.0)
        board.for_key(("g", "spec-a")).record_failure()
        with pytest.raises(CircuitOpenError):
            board.for_key(("g", "spec-a")).allow()
        board.for_key(("g", "spec-b")).allow()  # untouched neighbour
        assert len(board) == 2
        assert any("spec-a" in key for key in board.stats())

    def test_circuit_open_error_survives_the_wire(self):
        err = CircuitOpenError("open", retry_after=1.5)
        back = exception_from_payload(error_payload(err))
        assert isinstance(back, CircuitOpenError)
        assert back.retry_after == pytest.approx(1.5)


# ----------------------------------------------------------------------
# Client retry + stream resume against a live service
# ----------------------------------------------------------------------
SPEC = {"gamma": 0.85, "theta": 4}


@pytest.fixture
def service(graph):
    service = ReproService(max_concurrent=2, allow_shutdown=True,
                           circuit_threshold=2, circuit_reset=0.3)
    service.add_graph("demo", graph)
    with start_in_thread(service) as handle:
        yield handle


class TestClientResilience:
    def test_dead_socket_is_closed_and_reconnects(self, service):
        client = ServeClient(port=service.port)
        try:
            assert client.ping()
            # Kill the next frame write server-side: abrupt RST mid-request.
            install_plan(parse_plan("serve.write_frame:drop:times=1"))
            with pytest.raises((ConnectionLostError, ConnectionError)):
                client.ping()
            install_plan(None)
            # Satellite fix: the dead socket is gone, not left bound.
            assert not client.connected
            assert client.ping()  # transparently redialled
            assert client.connected
        finally:
            client.close()

    def test_connect_fault_surfaces_then_recovers(self, service):
        install_plan(parse_plan("client.connect:raise:times=1"))
        with pytest.raises(FaultInjectedError):
            ServeClient(port=service.port)
        with ServeClient(port=service.port) as client:
            assert client.ping()

    def test_resumed_stream_is_byte_identical(self, service):
        with ServeClient(port=service.port) as client:
            list(client.query_stream(SPEC, batch=1))  # warm the cache
            baseline = list(client.query_stream(SPEC, batch=1))
        batches = [frame for frame in baseline if frame["type"] == "batch"]
        assert len(batches) >= 3, "need a multi-batch stream to interrupt"
        # Every cache replay of the same key shares one stream token.
        assert {f["stream"] for f in batches} == {batches[0]["stream"]}

        with ServeClient(port=service.port) as client:
            install_plan(parse_plan("serve.write_frame:drop:after=3:times=1"))
            received = []
            with pytest.raises((ConnectionLostError, ConnectionError)):
                for frame in client.query_stream(SPEC, batch=1):
                    if frame["type"] == "batch":
                        received.append(frame)
            install_plan(None)
            assert 0 < len(received) < len(batches)
            resumed = [frame
                       for frame in client.query_stream(
                           SPEC, batch=1, resume_from=len(received),
                           resume_stream=received[-1]["stream"])
                       if frame["type"] == "batch"]
        stitched = received + resumed
        assert [f["seq"] for f in stitched] == list(range(len(batches)))
        assert b"".join(map(encode_frame, stitched)) \
            == b"".join(map(encode_frame, batches))

    def test_resume_restarts_when_stream_identity_changes(self, service,
                                                          graph):
        # A first attempt riding a *live* enumeration (unique stream token)
        # is interrupted; the sole subscriber leaving cancels the flight, so
        # nothing is cached and the retry leads a fresh live flight with a
        # *different* token.  The server must refuse the stale resume offset
        # (batch order is not comparable across live streams) and restart
        # from batch 0; the client must discard the superseded partial
        # batches — the final list holds each clique exactly once.
        spec = {"gamma": 0.8, "theta": 3}
        install_plan(parse_plan("serve.write_frame:drop:after=2:times=1"))
        with ServeClient(port=service.port) as client:
            got, done = client.query(
                spec, batch=1,
                retry=RetryPolicy(max_attempts=5, base_delay=0.01,
                                  max_delay=0.05, seed=3))
        install_plan(None)
        expected = _sequential_answer(graph, 0.8, 3)
        assert set(got) == expected
        assert len(got) == len(expected), "restart left duplicate batches"
        assert done["type"] == "done"

    def test_query_retries_to_the_full_answer_under_drops(self, service,
                                                          graph):
        with ServeClient(port=service.port) as client:
            expected, _ = client.query(SPEC)
        # Two separate connection drops; the retrying client stitches the
        # stream back together from the resume point each time.
        install_plan(parse_plan("serve.write_frame:drop:after=2:times=1;"
                                "serve.write_frame:drop:after=5:times=1"))
        with ServeClient(port=service.port) as client:
            got, done = client.query(
                SPEC, batch=1,
                retry=RetryPolicy(max_attempts=5, base_delay=0.01,
                                  max_delay=0.05, seed=7))
        install_plan(None)
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))
        assert done["type"] == "done"
        assert set(got) == _sequential_answer(graph, 0.85, 4)

    def test_retry_metric_counts_server_side(self, service):
        install_plan(parse_plan("serve.write_frame:drop:after=2:times=1"))
        with ServeClient(port=service.port) as client:
            client.query(SPEC, batch=1,
                         retry=RetryPolicy(max_attempts=4, base_delay=0.01,
                                           max_delay=0.02, seed=1))
        install_plan(None)
        status, body = fetch_http("/metrics", port=service.port)
        assert status == 200
        assert 'repro_serve_retries_total{kind="resume"}' in body
        assert "repro_faults_injected_total" in body

    def test_deadline_clamps_the_server_side_budget(self, service):
        with ServeClient(port=service.port) as client:
            _cliques, done = client.query(SPEC, deadline=30.0)
        assert done["type"] == "done" and done["finished"]

    def test_deadline_is_validated_on_the_wire(self):
        with pytest.raises(ReproError):
            validate_request({"op": "query", "spec": {}, "deadline": -1})
        with pytest.raises(ReproError):
            validate_request({"op": "query", "spec": {}, "resume_from": -2})
        with pytest.raises(ReproError):
            validate_request({"op": "query", "spec": {}, "attempt": "x"})


class TestServiceDegradation:
    def test_circuit_opens_then_half_open_probe_recovers(self, service):
        install_plan(parse_plan("serve.enumerate:raise:times=0"))
        with ServeClient(port=service.port) as client:
            for _ in range(2):  # circuit_threshold=2
                with pytest.raises(FaultInjectedError):
                    client.query(SPEC)
            with pytest.raises(CircuitOpenError) as info:
                client.query(SPEC)
            assert info.value.retry_after is not None
            install_plan(None)
            time.sleep(0.35)  # past circuit_reset: half-open
            cliques, done = client.query(SPEC)  # the probe, succeeds
            assert done["finished"]
            cliques2, _ = client.query(SPEC)
            assert sorted(map(sorted, cliques2)) == sorted(map(sorted, cliques))
            stats = client.stats()
            assert stats["circuits"] == {}  # closed circuits are not reported

    def test_open_circuit_is_visible_in_stats_and_metrics(self, service):
        install_plan(parse_plan("serve.enumerate:raise:times=0"))
        with ServeClient(port=service.port) as client:
            for _ in range(2):
                with pytest.raises(FaultInjectedError):
                    client.query({"gamma": 0.9, "theta": 5})
            stats = client.stats()
        install_plan(None)
        assert any("open" == entry["state"]
                   for entry in stats["circuits"].values())
        status, body = fetch_http("/metrics", port=service.port)
        assert status == 200
        assert 'repro_serve_circuit_state{graph="demo"} 2' in body

    def test_overload_does_not_trip_the_breaker(self, graph, monkeypatch):
        # Shedding is back-pressure, not evidence the query is poisoned:
        # with circuit_threshold=1 a single *real* failure would open the
        # breaker, so a shed followed by a clean success proves overload
        # leaves it untouched.
        from repro.errors import ServiceOverloadedError

        service = ReproService(max_concurrent=2, circuit_threshold=1,
                               circuit_reset=30.0)
        service.add_graph("demo", graph)
        host = service.hosts["demo"]
        real_open = host.open_stream
        calls = {"n": 0}

        def shed_once(spec, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ServiceOverloadedError("synthetic shed",
                                             running=2, queued=0)
            return real_open(spec, **kwargs)

        monkeypatch.setattr(host, "open_stream", shed_once)
        with start_in_thread(service):
            with ServeClient(port=service.port) as client:
                with pytest.raises(ServiceOverloadedError):
                    list(client.query_stream(SPEC))
                cliques, done = client.query(SPEC)
        assert done["type"] == "done"
        assert set(cliques) == _sequential_answer(graph, SPEC["gamma"],
                                                  SPEC["theta"])
        assert calls["n"] == 2
        assert all(b["state"] != "open"
                   for b in service.breakers.stats().values())


class TestAdmissionDeadline:
    def test_apply_budgets_clamps_to_the_deadline(self):
        from repro.api.spec import QuerySpec
        from repro.serve.admission import AdmissionController

        controller = AdmissionController(default_time_limit=60.0,
                                         max_time_limit=120.0)
        spec = QuerySpec(gamma=0.9, theta=3)
        assert controller.apply_budgets(spec).time_limit == 60.0
        assert controller.apply_budgets(spec, deadline=5.0).time_limit == 5.0
        capped = controller.apply_budgets(
            QuerySpec(gamma=0.9, theta=3, time_limit=500.0), deadline=90.0)
        assert capped.time_limit == 90.0
        loose = controller.apply_budgets(
            QuerySpec(gamma=0.9, theta=3, time_limit=2.0), deadline=90.0)
        assert loose.time_limit == 2.0
