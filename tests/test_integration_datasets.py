"""Integration tests: full pipeline agreement on the bundled dataset analogues.

These run the complete MQCE pipeline (enumeration + set-trie filtering) with
different algorithms on a few of the smaller dataset analogues and require the
*exact same* set of maximal quasi-cliques from every configuration.  They are
the closest thing to the paper's end-to-end experiments that still fits in the
unit-test budget (a few seconds each).
"""

from __future__ import annotations

import pytest

from repro import DCFastQC, QuerySpec, filter_non_maximal, run_enumeration
from repro.datasets import get_spec
from repro.quasiclique import is_quasi_clique, satisfies_maximality_necessary_condition

SMALL_ANALOGUES = ["douban", "twitter", "kmer", "ca-grqc"]


def _mqce(graph, spec, **knobs):
    """The one-shot pipeline at a dataset's default parameters."""
    return run_enumeration(graph, QuerySpec(gamma=spec.default_gamma,
                                            theta=spec.default_theta, **knobs))


@pytest.fixture(scope="module")
def dataset_results():
    """Run DCFastQC once per analogue and cache the result for the other tests."""
    results = {}
    for name in SMALL_ANALOGUES:
        spec = get_spec(name)
        graph = spec.build()
        results[name] = (spec, graph, _mqce(graph, spec))
    return results


class TestAlgorithmsAgreeOnDatasets:
    @pytest.mark.parametrize("name", SMALL_ANALOGUES)
    def test_quickplus_matches_dcfastqc(self, dataset_results, name):
        spec, graph, reference = dataset_results[name]
        quick = _mqce(graph, spec, algorithm="quickplus")
        assert set(quick.maximal_quasi_cliques) == set(reference.maximal_quasi_cliques)

    @pytest.mark.parametrize("name", SMALL_ANALOGUES)
    def test_fastqc_matches_dcfastqc(self, dataset_results, name):
        spec, graph, reference = dataset_results[name]
        fast = _mqce(graph, spec, algorithm="fastqc")
        assert set(fast.maximal_quasi_cliques) == set(reference.maximal_quasi_cliques)

    @pytest.mark.parametrize("name", ["douban", "twitter"])
    def test_branching_variants_match(self, dataset_results, name):
        spec, graph, reference = dataset_results[name]
        for branching in ("sym-se", "se"):
            result = _mqce(graph, spec, branching=branching)
            assert set(result.maximal_quasi_cliques) == set(reference.maximal_quasi_cliques)

    @pytest.mark.parametrize("name", ["douban", "kmer"])
    def test_parallel_matches_sequential(self, dataset_results, name):
        spec, graph, reference = dataset_results[name]
        parallel = DCFastQC(graph, spec.default_gamma, spec.default_theta,
                            workers=2, parallel="branch")
        maximal = filter_non_maximal(parallel.enumerate(), theta=spec.default_theta)
        assert parallel.mode_selected == "branch"
        assert set(maximal) == set(reference.maximal_quasi_cliques)


class TestOutputQuality:
    @pytest.mark.parametrize("name", SMALL_ANALOGUES)
    def test_every_output_is_a_large_quasi_clique(self, dataset_results, name):
        spec, graph, result = dataset_results[name]
        assert result.maximal_count >= 1
        for clique in result.maximal_quasi_cliques:
            assert len(clique) >= spec.default_theta
            assert is_quasi_clique(graph, clique, spec.default_gamma)

    @pytest.mark.parametrize("name", SMALL_ANALOGUES)
    def test_outputs_pass_the_maximality_necessary_condition(self, dataset_results, name):
        spec, graph, result = dataset_results[name]
        for clique in result.maximal_quasi_cliques:
            assert satisfies_maximality_necessary_condition(graph, clique, spec.default_gamma)

    @pytest.mark.parametrize("name", SMALL_ANALOGUES)
    def test_no_output_contains_another(self, dataset_results, name):
        _, _, result = dataset_results[name]
        cliques = result.maximal_quasi_cliques
        for a in cliques:
            for b in cliques:
                assert not (a < b)

    @pytest.mark.parametrize("name", SMALL_ANALOGUES)
    def test_candidate_set_is_superset_of_answer(self, dataset_results, name):
        _, _, result = dataset_results[name]
        assert set(result.maximal_quasi_cliques) <= set(result.candidate_quasi_cliques)
