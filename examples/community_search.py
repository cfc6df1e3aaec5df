"""Query-driven community search and top-k largest quasi-clique mining.

This example exercises the problem variants the paper discusses in its
related work, through the QuerySpec workloads (``repro.Q``) and the library's
extensions (``repro.extensions``):

* *query-driven search* — find the maximal quasi-cliques containing a given
  user (the "communities of Alice"), and
* *top-k largest quasi-clique mining* — exact, and via the faster
  kernel-expansion heuristic,
* *parallel enumeration* — the same DCFastQC decomposition fanned out over
  work-stealing worker processes.

Run with:  python examples/community_search.py
"""

import time

from repro import DCFastQC, Q, community_of, filter_non_maximal, kernel_expansion_top_k
from repro.datasets import get_spec


def main() -> None:
    spec = get_spec("wordnet")
    graph = spec.build()
    gamma, theta = spec.default_gamma, spec.default_theta
    print(f"dataset analogue: {spec.name} ({graph.vertex_count} vertices, "
          f"{graph.edge_count} edges), gamma={gamma}, theta={theta}")

    # ------------------------------------------------------------------
    # 1. Query-driven search: communities containing vertex 0 (a member of
    #    the first planted group) and vertex 200 (a background vertex).
    # ------------------------------------------------------------------
    query = Q(graph).gamma(gamma)
    for query_vertex in (0, 200):
        communities = query.theta(max(3, theta - 3)).containing(query_vertex).run()
        print(f"\ncommunities containing vertex {query_vertex}: {len(communities)}")
        for clique in communities[:3]:
            print(f"   size {len(clique):2d}: {sorted(clique)[:10]}"
                  f"{' ...' if len(clique) > 10 else ''}")
    biggest = community_of(graph, 0, gamma, theta=max(3, theta - 3))
    print(f"largest community of vertex 0 has {len(biggest)} members")

    # ------------------------------------------------------------------
    # 2. Top-k largest quasi-cliques: exact vs kernel expansion.
    # ------------------------------------------------------------------
    start = time.perf_counter()
    exact = query.theta(theta - 3).top(3).run()
    exact_seconds = time.perf_counter() - start
    start = time.perf_counter()
    heuristic = kernel_expansion_top_k(graph, gamma, k=3, kernel_theta=max(3, theta - 3))
    heuristic_seconds = time.perf_counter() - start
    print(f"\ntop-3 largest {gamma}-quasi-cliques:")
    print(f"   exact            sizes {[len(h) for h in exact]}  ({exact_seconds:.3f}s)")
    print(f"   kernel expansion sizes {[len(h) for h in heuristic]}  ({heuristic_seconds:.3f}s)")

    # ------------------------------------------------------------------
    # 3. Parallel enumeration over the DC subproblems.  parallel="branch"
    #    fans out from the first subproblem; the default "auto" would fan
    #    out only once the run had explored enough branches in-process.
    # ------------------------------------------------------------------
    start = time.perf_counter()
    parallel = DCFastQC(graph, gamma, theta, workers=2, parallel="branch")
    maximal = filter_non_maximal(parallel.enumerate(), theta=theta)
    parallel_seconds = time.perf_counter() - start
    print(f"\nparallel DCFastQC (2 workers, {parallel.mode_selected} mode): "
          f"{len(maximal)} maximal quasi-cliques in {parallel_seconds:.3f}s")


if __name__ == "__main__":
    main()
