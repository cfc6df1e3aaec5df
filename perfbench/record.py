"""Record the answer digests the benchmark checks against (``digests.json``).

Every digest is computed twice — with the default (ledger) kernel and with
the mask-based reference kernel, sequentially — and recorded only when both
agree.  The skew-parallel answer does not depend on the seed (see
``skew_generate.py``); it is recorded from seed 0 and confirmed on seed 1.

Usage (from the repository root; takes about a minute):

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import DIGESTS, SRC, WORK_DIR, answer_digest, log  # noqa: E402


def agreed_digest(graph, gamma: float, theta: int,
                  kernels=("ledger", "reference")) -> str:
    from repro import MQCEEngine, QuerySpec

    digests = {answer_digest(MQCEEngine(workers=1).query(
        graph, spec=QuerySpec(gamma, theta, kernel=kernel, parallel="none"),
        use_cache=False).maximal_quasi_cliques) for kernel in kernels}
    if len(digests) != 1:
        raise SystemExit(f"error: kernels disagree at gamma={gamma} theta={theta}")
    return digests.pop()


def main() -> int:
    sys.path.insert(0, str(SRC))
    from grid import point_key, registry_grid
    from repro.datasets.registry import load_dataset
    from repro.graph.io import ingest_edge_list
    from skew_generate import write_graph
    from skew_parallel import GAMMA, THETA

    registry = {}
    graphs = {}
    for name, gamma, theta in registry_grid():
        graph = graphs.setdefault(name, load_dataset(name))
        registry[point_key(name, gamma, theta)] = agreed_digest(graph, gamma, theta)
    log(f"registry-cold: {len(registry)} points recorded")

    WORK_DIR.mkdir(exist_ok=True)
    skew = []
    for seed in (0, 1):
        path = WORK_DIR / f"record-{seed}.edges"
        try:
            write_graph(seed, path)
            graph = ingest_edge_list(path)
        finally:
            path.unlink(missing_ok=True)
        skew.append(agreed_digest(graph, GAMMA, THETA,
                                  ("ledger", "reference") if seed == 0 else ("ledger",)))
    WORK_DIR.rmdir()
    if skew[0] != skew[1]:
        raise SystemExit("error: the skew-parallel answer depends on the seed")
    log("skew-parallel: recorded")

    DIGESTS.write_text(json.dumps({"registry-cold": registry, "skew-parallel": skew[0]},
                                  indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
