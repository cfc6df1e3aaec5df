"""Quickstart: enumerate maximal quasi-cliques of a small graph.

Run with:  python examples/quickstart.py
"""

from repro import Graph, Q


def main() -> None:
    # A small collaboration network: two dense groups sharing one member.
    edges = [
        # group A: {alice, bob, carol, dave} (almost a clique)
        ("alice", "bob"), ("alice", "carol"), ("alice", "dave"),
        ("bob", "carol"), ("bob", "dave"),
        # group B: {dave, erin, frank, grace, heidi}
        ("dave", "erin"), ("dave", "frank"), ("dave", "grace"),
        ("erin", "frank"), ("erin", "grace"), ("erin", "heidi"),
        ("frank", "grace"), ("frank", "heidi"), ("grace", "heidi"),
        # a few stray collaborations
        ("carol", "erin"), ("heidi", "ivan"), ("ivan", "judy"),
    ]
    graph = Graph(edges=edges)
    print(f"graph: {graph.vertex_count} vertices, {graph.edge_count} edges")

    # Find every maximal 0.8-quasi-clique with at least 4 members: each member
    # must know at least 80% of the other members of the group.
    query = Q(graph).gamma(0.8).theta(4)
    result = query.run()

    print(f"\nfound {result.maximal_count} maximal 0.8-quasi-cliques with >= 4 members "
          f"in {result.total_seconds:.4f}s "
          f"({result.search_statistics.branches_explored} branches explored):")
    for clique in result.maximal_quasi_cliques:
        print("  ", ", ".join(sorted(clique)))

    # The same query can run the Quick+ baseline for comparison.
    baseline = query.algorithm("quickplus").run()
    print(f"\nQuick+ returned {baseline.candidate_count} candidate QCs before filtering; "
          f"DCFastQC returned {result.candidate_count}.")
    assert set(baseline.maximal_quasi_cliques) == set(result.maximal_quasi_cliques)
    print("both algorithms agree on the maximal quasi-cliques.")


if __name__ == "__main__":
    main()
