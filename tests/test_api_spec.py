"""Tests for the unified QuerySpec API: spec, builder, errors, shims."""

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
    find_largest_quasi_cliques,
    find_maximal_quasi_cliques,
    find_quasi_cliques_containing,
)
from repro.api import coerce_spec, execute, result_value, shape_result
from repro.datasets import get_spec, load_dataset
from repro.engine import ResultCache


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
        {"kernel": "bogus"},
        {"max_rounds": -1},
        {"k": 0},
        {"time_limit": 0},
        {"max_results": 0},
    ])
    def test_spec_validation(self, fields):
        with pytest.raises(SpecError):
            QuerySpec(gamma=0.9, theta=5, **fields)

    def test_kernel_selects_execution_path(self):
        assert QuerySpec(gamma=0.9).kernel == "ledger"
        reference = QuerySpec(gamma=0.9, kernel="reference")
        assert reference.cache_key() != QuerySpec(gamma=0.9).cache_key()
        assert QuerySpec.from_json(json.dumps(reference.to_dict())) == reference

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

    def test_coerce_spec(self):
        spec = QuerySpec(gamma=0.9, theta=5)
        assert coerce_spec(spec) is spec
        assert coerce_spec(0.9, 5) == spec
        with pytest.raises(SpecError):
            coerce_spec(spec, 5)
        with pytest.raises(SpecError):
            coerce_spec(None, None)


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


class TestShapeResult:
    def test_max_results_and_candidates(self, diamond):
        spec = QuerySpec(gamma=0.6, theta=2)
        result = execute(diamond, spec)
        shaped = shape_result(result, dataclasses.replace(
            spec, max_results=1, include_candidates=False))
        assert len(shaped.maximal_quasi_cliques) == 1
        assert shaped.candidate_quasi_cliques == []
        # The original envelope is untouched (defensive copy).
        assert len(result.maximal_quasi_cliques) >= 1
        assert result.candidate_quasi_cliques

    def test_result_value_count(self, diamond):
        spec = QuerySpec(gamma=0.6, theta=3, count_only=True)
        assert result_value(execute(diamond, spec), spec) == 1


class TestDeprecatedShims:
    """Satellite: old kwargs entry points warn and return identical results."""

    def test_find_maximal_quasi_cliques_warns_and_matches(self, diamond):
        with pytest.warns(DeprecationWarning):
            legacy = find_maximal_quasi_cliques(diamond, 0.6, 3)
        via_spec = execute(diamond, QuerySpec(gamma=0.6, theta=3, algorithm="dcfastqc"))
        assert legacy.maximal_quasi_cliques == via_spec.maximal_quasi_cliques
        assert legacy.candidate_quasi_cliques == via_spec.candidate_quasi_cliques
        assert legacy.algorithm == via_spec.algorithm == "dcfastqc"

    def test_find_largest_quasi_cliques_warns_and_matches(self):
        graph = load_dataset("twitter")
        with pytest.warns(DeprecationWarning):
            legacy = find_largest_quasi_cliques(graph, 0.9, k=2, minimum_size=3)
        via_spec = Q(graph).gamma(0.9).theta(3).top(2).run()
        assert legacy == via_spec

    def test_find_quasi_cliques_containing_warns_and_matches(self, diamond):
        with pytest.warns(DeprecationWarning):
            legacy = find_quasi_cliques_containing(diamond, [1], 0.6, theta=3)
        via_spec = Q(diamond).gamma(0.6).theta(3).containing(1).run()
        assert legacy == via_spec

    def test_engine_matches_deprecated_pipeline(self):
        name = "kmer"
        spec = get_spec(name)
        graph = load_dataset(name)
        with pytest.warns(DeprecationWarning):
            legacy = find_maximal_quasi_cliques(graph, spec.default_gamma,
                                                spec.default_theta)
        result = MQCEEngine().query(graph, QuerySpec(gamma=spec.default_gamma,
                                                     theta=spec.default_theta))
        assert set(result.maximal_quasi_cliques) == set(legacy.maximal_quasi_cliques)


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

    def test_kwargs_and_spec_share_cache_entries(self):
        engine = MQCEEngine()
        graph = load_dataset("twitter")
        engine.query(graph, 0.9, 5)
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

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["enumerate", "-d", "twitter"]) == 0
            assert main(["topk", "-d", "twitter", "-k", "1"]) == 0
            assert main(["community", "-d", "twitter", "0", "--gamma", "0.9",
                         "--theta", "5"]) == 0
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
