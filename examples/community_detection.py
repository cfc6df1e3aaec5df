"""Community detection in a social-network-like graph, comparing the algorithms.

The second application the paper motivates is finding social communities: a
community is a group of users in which everyone follows / is friends with most
of the others.  This example builds a scale-free (Barabasi–Albert) social
network with planted communities, mines maximal quasi-cliques with DCFastQC,
FastQC and Quick+, verifies they agree, and reports the running time and the
number of explored branches of each algorithm — a miniature version of the
paper's Figure 7.

Run with:  python examples/community_detection.py
"""

import random
import time

from repro import Q
from repro.graph.generators import barabasi_albert, planted_quasi_clique
from repro.graph.statistics import graph_statistics


def simulate_social_network(seed: int = 11):
    """A 400-user scale-free network with four planted communities."""
    rng = random.Random(seed)
    graph = barabasi_albert(400, 3, seed=rng.randrange(2 ** 31))
    communities = [list(range(start, start + size))
                   for start, size in [(0, 11), (40, 10), (90, 9), (150, 8)]]
    for members in communities:
        planted_quasi_clique(graph, members, gamma=0.9, seed=rng.randrange(2 ** 31))
    return graph, communities


def main() -> None:
    graph, communities = simulate_social_network()
    stats = graph_statistics(graph)
    print(f"social network: {stats.vertex_count} users, {stats.edge_count} ties, "
          f"max degree {stats.max_degree}, degeneracy {stats.degeneracy}")

    gamma, theta = 0.85, 7
    print(f"\nmining maximal {gamma}-quasi-cliques with >= {theta} members\n")
    print(f"{'algorithm':10s} {'time (s)':>9s} {'branches':>9s} "
          f"{'candidates':>11s} {'communities':>12s}")

    reference = None
    for algorithm in ("dcfastqc", "fastqc", "quickplus"):
        start = time.perf_counter()
        result = Q(graph).gamma(gamma).theta(theta).algorithm(algorithm).run()
        elapsed = time.perf_counter() - start
        print(f"{algorithm:10s} {elapsed:9.3f} "
              f"{result.search_statistics.branches_explored:9d} "
              f"{result.candidate_count:11d} {result.maximal_count:12d}")
        found = set(result.maximal_quasi_cliques)
        if reference is None:
            reference = found
        else:
            assert found == reference, "algorithms disagree!"

    print("\nrecovered communities:")
    for clique in sorted(reference, key=len, reverse=True):
        planted_match = any(len(set(c) & clique) >= 0.7 * len(c) for c in communities)
        marker = "planted" if planted_match else "emergent"
        print(f"  size {len(clique):2d} ({marker}): {sorted(clique)[:12]}"
              f"{' ...' if len(clique) > 12 else ''}")


if __name__ == "__main__":
    main()
