"""Write the skew-parallel input graph as an edge list (run as a child process).

The graph is the parallel suite's planted-skew shape: one 32-vertex
gamma=0.9 community inside a G(10^5, 2*10^5) background.  The community is
planted from a fixed seed and written first, so its vertices get the same
internal indices on every run and its one giant DC subproblem costs the same
whatever ``--seed`` is; ``--seed`` draws the background, which the core
reduction peels away.  Background pairs inside the community are skipped, so
the community (and hence the answer) is identical for every seed.

Usage: python3 skew_generate.py --seed N --out FILE
Prints ``{"seconds": ..., "edges": ...}`` on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

VERTICES = 100_000
BACKGROUND_EDGES = 200_000
COMMUNITY_SIZE = 32
COMMUNITY_GAMMA = 0.9
#: A community whose search takes ~40k branches, ~80% of them in one DC
#: subproblem, so the planner picks work-stealing branch mode once it has
#: observed one run.
COMMUNITY_SEED = 20


def write_graph(seed: int, out: Path) -> int:
    from repro.graph.generators import gnm_edges, planted_quasi_clique
    from repro.graph.graph import Graph

    members = list(range(COMMUNITY_SIZE))
    community = Graph(vertices=members)
    planted_quasi_clique(community, members, COMMUNITY_GAMMA, seed=COMMUNITY_SEED)
    written = 0
    with open(out, "w", encoding="ascii") as handle:
        for u in members:
            for v in sorted(community.neighbors(u)):
                if u < v:
                    handle.write(f"{u} {v}\n")
                    written += 1
        for u, v in gnm_edges(VERTICES, BACKGROUND_EDGES, seed=seed):
            if u < COMMUNITY_SIZE and v < COMMUNITY_SIZE:
                continue
            handle.write(f"{u} {v}\n")
            written += 1
    return written


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    edges = write_graph(args.seed, args.out)
    print(json.dumps({"seconds": time.perf_counter() - start, "edges": edges}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
