"""Tests for the unified QuerySpec API: spec, builder, errors."""

from __future__ import annotations

import dataclasses
import json
import warnings
from fractions import Fraction

import pytest

from repro import (
    EngineError,
    Graph,
    GraphError,
    MQCEEngine,
    ParameterError,
    Q,
    QueryError,
    QuerySpec,
    ReproError,
    SpecError,
    run_enumeration,
)
from repro.api import result_value, shape_result
from repro.datasets import get_spec, load_dataset
import repro.engine.planner as planner_module
from repro.engine import ResultCache
from repro.extensions.parallel import LAST_PARALLEL_RUN


@pytest.fixture
def diamond() -> Graph:
    """A 4-clique with a pendant vertex."""
    return Graph(edges=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4), (4, 5)])


class TestQuerySpec:
    def test_frozen_and_hashable(self):
        spec = QuerySpec(gamma=0.9, theta=5)
        assert hash(spec) == hash(QuerySpec(gamma=0.9, theta=5))
        assert spec == QuerySpec(gamma=0.9, theta=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.gamma = 0.8

    def test_workload_derivation(self):
        assert QuerySpec(gamma=0.9, theta=5).workload == "enumerate"
        assert QuerySpec(gamma=0.9, theta=5, k=3).workload == "topk"
        assert QuerySpec(gamma=0.9, theta=5, contains=("a",)).workload == "containment"
        assert QuerySpec(gamma=0.9, theta=5, count_only=True).workload == "count"

    def test_contains_normalised(self):
        a = QuerySpec(gamma=0.9, contains=("b", "a", "a"))
        b = QuerySpec(gamma=0.9, contains=["a", "b"])
        assert a.contains == ("a", "b")
        assert a == b and hash(a) == hash(b)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            QuerySpec(gamma=0.4, theta=5)
        with pytest.raises(ParameterError):
            QuerySpec(gamma=0.9, theta=0)

    @pytest.mark.parametrize("fields", [
        {"algorithm": "bogus"},
        {"branching": "bogus"},
        {"framework": "bogus"},
        {"kernel": "reference"},  # not a field: one execution path
        {"max_rounds": -1},
        {"k": 0},
        {"time_limit": 0},
        {"max_results": 0},
    ])
    def test_spec_validation(self, fields):
        data = {"gamma": 0.9, "theta": 5, **fields}
        with pytest.raises(SpecError):
            QuerySpec.from_dict(data)
        with pytest.raises(SpecError):
            QuerySpec.from_json(json.dumps(data))

    def test_json_round_trip(self):
        spec = QuerySpec(gamma=0.9, theta=5, k=3, time_limit=1.5,
                         contains=("a",), algorithm="fastqc")
        again = QuerySpec.from_json(json.dumps(spec.to_dict()))
        assert again == spec

    def test_to_json_is_canonical(self):
        spec = QuerySpec(gamma=0.9, theta=5, k=3, contains=("b", "a"))
        text = spec.to_json()
        # Compact separators, sorted keys: byte-identical for equal specs.
        assert " " not in text
        assert text == QuerySpec(gamma=0.9, theta=5, k=3,
                                 contains=("a", "b")).to_json()
        assert QuerySpec.from_json(text) == spec
        assert json.loads(text) == spec.to_dict()

    def test_fields_from_json_rejects_garbage(self):
        with pytest.raises(SpecError):
            QuerySpec.fields_from_json("{not json")
        with pytest.raises(SpecError):
            QuerySpec.fields_from_json("[1, 2, 3]")
        with pytest.raises(SpecError):
            QuerySpec.from_json('{"gamma": 0.9, "bogus": 1}')

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            QuerySpec.from_dict({"gamma": 0.9, "bogus": 1})
        with pytest.raises(SpecError):
            QuerySpec.from_dict({"theta": 5})

    def test_cache_key_excludes_output_options_and_budgets(self):
        base = QuerySpec(gamma=0.9, theta=5, algorithm="dcfastqc",
                         branching="hybrid", framework="dc")
        shaped = dataclasses.replace(base, max_results=2, include_candidates=False,
                                     count_only=True)
        assert base.cache_key() == shaped.cache_key()
        assert base.cache_key() != dataclasses.replace(base, theta=6).cache_key()
        fraction = dataclasses.replace(base, gamma=Fraction(9, 10))
        assert base.cache_key() == fraction.cache_key()

    def test_cacheable(self):
        assert QuerySpec(gamma=0.9).cacheable
        assert not QuerySpec(gamma=0.9, time_limit=1.0).cacheable

    def test_engine_takes_only_a_spec(self, diamond):
        engine = MQCEEngine()
        with pytest.raises(SpecError, match="float"):
            engine.query(diamond, 0.9, 3)
        with pytest.raises(SpecError, match="float"):
            engine.stream(diamond, 0.9)
        with pytest.raises(SpecError, match="dict"):
            engine.explain(diamond, {"gamma": 0.9, "theta": 3})
        assert engine.stats()["queries"] == 0


class TestErrorHierarchy:
    def test_all_under_repro_error_and_value_error(self):
        for exc in (QueryError, ParameterError, SpecError, EngineError, GraphError):
            assert issubclass(exc, ReproError)
            assert issubclass(exc, ValueError)
        assert issubclass(ParameterError, QueryError)
        assert issubclass(SpecError, QueryError)

    def test_legacy_import_locations_are_aliases(self):
        from repro.extensions import QueryError as ext_query_error
        from repro.quasiclique.definitions import ParameterError as defs_parameter_error
        from repro.engine import EngineError as engine_error

        assert ext_query_error is QueryError
        assert defs_parameter_error is ParameterError
        assert engine_error is EngineError


class TestBuilder:
    def test_builder_spec(self):
        spec = (Q(None).gamma(0.9).theta(5).algorithm("fastqc").branching("se")
                .containing("a", "b").top(10).limit(4).within(2.0)
                .no_candidates().spec())
        assert spec == QuerySpec(gamma=0.9, theta=5, algorithm="fastqc",
                                 branching="se", contains=("a", "b"), k=10,
                                 max_results=4, time_limit=2.0,
                                 include_candidates=False)

    def test_builder_is_immutable(self, diamond):
        base = Q(diamond).gamma(0.6).theta(3)
        top = base.top(1)
        assert base.spec().k is None
        assert top.spec().k == 1

    def test_run_shapes(self, diamond):
        base = Q(diamond).gamma(0.6).theta(3)
        result = base.run()
        assert result.maximal_quasi_cliques == [frozenset({1, 2, 3, 4})]
        assert base.count().run() == 1
        assert base.top(1).run() == [frozenset({1, 2, 3, 4})]
        assert base.containing(1).run() == [frozenset({1, 2, 3, 4})]
        assert base.containing(5).run() == []

    def test_stream_matches_run(self, diamond):
        base = Q(diamond).gamma(0.6).theta(3)
        assert set(base.stream()) == set(base.run().maximal_quasi_cliques)

    def test_run_through_engine(self, diamond):
        engine = MQCEEngine()
        base = Q(diamond).gamma(0.6).theta(3)
        first = base.run(engine)
        second = base.run(engine)
        assert first.maximal_quasi_cliques == second.maximal_quasi_cliques
        assert engine.cache.stats.hits == 1

    def test_explain(self, diamond):
        plan = Q(diamond).gamma(0.6).theta(3).explain()
        assert plan.algorithm in ("fastqc", "dcfastqc")

    def test_run_executes_the_plan_explain_prints(self):
        # The README quickstart graph: four vertices, so the plan is FastQC.
        graph = Graph(edges=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4)])
        query = Q(graph).gamma(0.6).theta(3)
        plan = query.explain()
        assert (plan.algorithm, plan.parallel) == ("fastqc", False)
        assert query.result().algorithm == plan.algorithm

    def test_one_shot_queries_stay_in_process(self, monkeypatch):
        # With the size gate open, an engine with two workers fans out ...
        monkeypatch.setattr(planner_module, "PARALLEL_MIN_VERTICES", 1)
        graph = load_dataset("twitter")
        query = Q(graph).gamma(0.9).theta(5)
        assert MQCEEngine(workers=2).explain(graph, query.spec()).parallel
        # ... but Q without an engine plans and runs on one worker.
        plan = query.explain()
        assert (plan.algorithm, plan.parallel, plan.workers) == ("dcfastqc", False, 1)
        LAST_PARALLEL_RUN.clear()
        assert query.result().algorithm == plan.algorithm
        assert not LAST_PARALLEL_RUN


class TestShapeResult:
    def test_max_results_and_candidates(self, diamond):
        spec = QuerySpec(gamma=0.6, theta=2)
        result = run_enumeration(diamond, spec)
        shaped = shape_result(result, dataclasses.replace(
            spec, max_results=1, include_candidates=False))
        assert len(shaped.maximal_quasi_cliques) == 1
        assert shaped.candidate_quasi_cliques == []
        # The original envelope is untouched (defensive copy).
        assert len(result.maximal_quasi_cliques) >= 1
        assert result.candidate_quasi_cliques

    def test_result_value_count(self, diamond):
        spec = QuerySpec(gamma=0.6, theta=3, count_only=True)
        assert result_value(run_enumeration(diamond, spec), spec) == 1


class TestDeprecatedShims:
    """The engine agrees with the one-shot pipeline the removed kwargs
    entry points used to wrap."""

    def test_engine_matches_deprecated_pipeline(self):
        name = "kmer"
        spec = get_spec(name)
        graph = load_dataset(name)
        query = QuerySpec(gamma=spec.default_gamma, theta=spec.default_theta)
        one_shot = run_enumeration(graph, query)
        result = MQCEEngine().query(graph, query)
        assert set(result.maximal_quasi_cliques) == set(one_shot.maximal_quasi_cliques)


class TestEngineSpecCaching:
    """Acceptance: ResultCache hit/miss behaviour is preserved with spec keys."""

    def test_warm_identical_specs_skip_enumeration(self):
        engine = MQCEEngine()
        graph = load_dataset("twitter")
        spec = QuerySpec(gamma=0.9, theta=5)
        first = engine.query(graph, spec)
        second = engine.query(graph, spec)
        assert engine.cache.stats.hits == 1
        assert engine.cache.stats.misses == 1
        assert first.maximal_quasi_cliques == second.maximal_quasi_cliques

    def test_keyword_and_positional_specs_share_cache_entries(self):
        engine = MQCEEngine()
        graph = load_dataset("twitter")
        engine.query(graph, spec=QuerySpec(0.9, 5))
        engine.query(graph, QuerySpec(gamma=0.9, theta=5))
        assert engine.cache.stats.hits == 1
        assert len(engine.cache) == 1

    def test_output_options_do_not_fragment_cache(self):
        engine = MQCEEngine()
        graph = load_dataset("twitter")
        full = engine.query(graph, QuerySpec(gamma=0.9, theta=5))
        shaped = engine.query(graph, QuerySpec(gamma=0.9, theta=5, max_results=1,
                                               include_candidates=False))
        assert engine.cache.stats.hits == 1
        assert shaped.maximal_quasi_cliques == full.maximal_quasi_cliques[:1]
        assert shaped.candidate_quasi_cliques == []

    def test_budgeted_queries_are_not_cached(self):
        engine = MQCEEngine()
        graph = load_dataset("twitter")
        engine.query(graph, QuerySpec(gamma=0.9, theta=5, time_limit=60.0))
        assert len(engine.cache) == 0
        assert engine.cache.stats.lookups == 0

    def test_topk_and_containment_are_cached_by_spec(self):
        engine = MQCEEngine()
        graph = load_dataset("twitter")
        topk = QuerySpec(gamma=0.9, theta=3, k=2)
        containment = QuerySpec(gamma=0.9, theta=5, contains=(0,))
        first_topk = engine.query(graph, topk)
        engine.query(graph, topk)
        first_containment = engine.query(graph, containment)
        engine.query(graph, containment)
        assert engine.cache.stats.hits == 2
        assert len(engine.cache) == 2
        assert len(first_topk.maximal_quasi_cliques) == 2
        assert all(0 in clique for clique in first_containment.maximal_quasi_cliques)

    def test_spec_key_includes_fingerprint(self):
        spec = QuerySpec(gamma=0.9, theta=5, algorithm="dcfastqc",
                         branching="hybrid", framework="dc")
        a = ResultCache.spec_key("fp-a", spec)
        b = ResultCache.spec_key("fp-b", spec)
        assert a != b
        assert a == ResultCache.spec_key("fp-a", spec)


class TestCLIQueryWarningFree:
    def test_legacy_cli_commands_do_not_warn(self, capsys):
        from repro.cli import main

        # The `repro query` spellings of the removed enumerate / topk /
        # community commands.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["query", "-d", "twitter"]) == 0
            assert main(["query", "-d", "twitter", "--top", "1"]) == 0
            assert main(["query", "-d", "twitter", "--containing", "0",
                         "--gamma", "0.9", "--theta", "5"]) == 0
        capsys.readouterr()


class TestParallelField:
    def test_validation_rejects_unknown_mode(self):
        # "shard" (a removed mode) is rejected like any unknown value, and the
        # message lists the values that are accepted.
        for mode in ("threads", "shard"):
            with pytest.raises(SpecError,
                               match=r"expected one of \('auto', 'none', 'branch'\)"):
                QuerySpec(gamma=0.9, theta=4, parallel=mode)

    def test_excluded_from_cache_key(self):
        base = QuerySpec(gamma=0.9, theta=4)
        branch = dataclasses.replace(base, parallel="branch")
        serial = dataclasses.replace(base, parallel="none")
        assert base.cache_key() == branch.cache_key() == serial.cache_key()

    def test_json_roundtrip_omits_default(self):
        default = QuerySpec(gamma=0.9, theta=4)
        assert "parallel" not in json.loads(default.to_json())
        forced = dataclasses.replace(default, parallel="branch")
        restored = QuerySpec.from_json(forced.to_json())
        assert restored.parallel == "branch"
        # Pre-parallel JSON documents still load (field defaults to auto).
        assert QuerySpec.from_json(default.to_json()).parallel == "auto"
