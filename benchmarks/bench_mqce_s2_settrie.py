"""Section 2.2: the MQCE-S2 post-processing step is cheap.

The paper argues that filtering non-maximal QCs with a set-trie is a small
fraction of the total cost (within 0.1s on most datasets, 16s worst case on
its huge inputs).  The benchmark measures the set-trie filter on the Quick+
candidate sets (the larger of the two algorithms' outputs) and on synthetic
families, and checks the filter stays a small fraction of the enumeration time.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets import DEFAULT_FIGURE_DATASETS, get_spec
from repro.experiments import format_table, settrie_filtering_rows
from repro.pipeline.mqce import build_enumerator
from repro.settrie import SetTrie, filter_non_maximal

from _bench_utils import attach_rows, run_once


def test_settrie_filter_fraction(benchmark):
    """Filtering cost relative to enumeration cost on the default datasets."""
    rows = run_once(benchmark, settrie_filtering_rows, names=DEFAULT_FIGURE_DATASETS)
    attach_rows(benchmark, rows, keys=["dataset", "candidate_count", "maximal_count",
                                       "enumeration_seconds", "filtering_seconds",
                                       "filtering_fraction"])
    for row in rows:
        assert row["filtering_seconds"] <= max(0.5, row["enumeration_seconds"])
    print()
    print(format_table(rows, columns=["dataset", "candidate_count", "maximal_count",
                                      "enumeration_seconds", "filtering_seconds",
                                      "filtering_fraction"]))


@pytest.mark.parametrize("name", ["enron", "ca-grqc"])
def test_settrie_filter_on_quickplus_output(benchmark, name):
    """Filter the (large) Quick+ candidate set of a dataset analogue."""
    spec = get_spec(name)
    graph = spec.build()
    candidates = build_enumerator(
        graph, spec.default_gamma, spec.default_theta, algorithm="quickplus").enumerate()

    result = run_once(benchmark, filter_non_maximal, candidates, theta=spec.default_theta)
    benchmark.extra_info["candidates"] = len(candidates)
    benchmark.extra_info["maximal"] = len(result)
    assert len(result) <= len(candidates)
    print(f"\n{name}: {len(candidates)} candidates -> {len(result)} maximal QCs")


def test_settrie_queries_scale(benchmark):
    """GetAllSubsets throughput on a synthetic family of 5000 sets."""
    rng = random.Random(3)
    family = [frozenset(rng.sample(range(200), rng.randint(5, 25))) for _ in range(5000)]
    queries = [frozenset(rng.sample(range(200), 40)) for _ in range(50)]
    trie = SetTrie(family)

    def run():
        return sum(len(trie.get_all_subsets(query)) for query in queries)

    total = run_once(benchmark, run)
    benchmark.extra_info["total_matches"] = total
    assert total >= 0
