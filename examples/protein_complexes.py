"""Finding protein-complex-like functional groups in an interaction network.

The paper motivates MQC enumeration with biological applications: in a
protein–protein interaction (PPI) network, a functional group is a set of
proteins in which each member interacts with most of the others — exactly a
gamma-quasi-clique.  Real PPI data is not bundled with this repository, so the
example *simulates* a PPI-like network: a sparse noisy background plus a few
planted complexes of different sizes and densities, then recovers the
complexes with DCFastQC.

Run with:  python examples/protein_complexes.py
"""

import random

from repro import Graph, Q
from repro.graph.generators import erdos_renyi_gnm, planted_quasi_clique


COMPLEXES = {
    "proteasome-like": list(range(0, 12)),
    "ribosome-like": list(range(15, 24)),
    "polymerase-like": list(range(27, 34)),
}


def simulate_ppi_network(seed: int = 7) -> Graph:
    """A 220-protein interaction network with three planted complexes."""
    rng = random.Random(seed)
    graph = erdos_renyi_gnm(220, 520, seed=rng.randrange(2 ** 31))
    for members in COMPLEXES.values():
        planted_quasi_clique(graph, members, gamma=0.9, seed=rng.randrange(2 ** 31))
    # Spurious interactions touching complex members (experimental noise).
    for _ in range(60):
        a = rng.randrange(220)
        b = rng.randrange(220)
        if a != b:
            graph.add_edge(a, b)
    return graph


def main() -> None:
    graph = simulate_ppi_network()
    print(f"simulated PPI network: {graph.vertex_count} proteins, "
          f"{graph.edge_count} interactions")

    # Mine maximal 0.85-quasi-cliques with at least 7 proteins.
    result = Q(graph).gamma(0.85).theta(7).run()
    print(f"\nfound {result.maximal_count} candidate functional groups "
          f"(gamma=0.85, theta=7) in {result.total_seconds:.3f}s")

    for name, members in COMPLEXES.items():
        planted = set(members)
        best = max(result.maximal_quasi_cliques,
                   key=lambda found: len(planted & found) / len(planted | found),
                   default=frozenset())
        jaccard = len(planted & best) / len(planted | best) if best else 0.0
        print(f"  {name:18s} planted size {len(planted):2d}  "
              f"best recovered group size {len(best):2d}  jaccard {jaccard:.2f}")

    sizes = result.size_statistics()
    print(f"\ngroup sizes: min {sizes.min_size}, max {sizes.max_size}, "
          f"avg {sizes.avg_size:.1f}")


if __name__ == "__main__":
    main()
