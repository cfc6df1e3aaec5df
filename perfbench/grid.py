"""Query points shared by the workloads: a bounded sample of the paper's
Fig. 7-9 axes over the registry analogues.

Every point runs in well under 0.2 s cold on a 2-core host, so the workloads
measure per-query fixed costs and moderate searches rather than one runaway
branch tree (pokec at gamma=0.75 takes ~0.25 s and is left out).
"""

from __future__ import annotations

from repro.datasets.registry import REGISTRY

#: The four datasets the paper sweeps in Figs. 8 and 9.
SWEEP_DATASETS = ("enron", "wordnet", "hyves", "pokec")
SWEEP_GAMMAS = (0.75, 0.8, 0.85, 0.95)
SWEEP_THETA_OFFSETS = (-3, -2, -1, 1, 2)
#: Branch-heavy points (hundreds to thousands of branches each).
HEAVY_POINTS = (("uk2002", 0.85, 8), ("uk2002", 0.9, 7), ("enron", 0.85, 6))
#: Points dropped for exceeding the per-point time bound.
OVER_BOUND = {("pokec", 0.75, 10)}


def registry_grid() -> list[tuple[str, float, int]]:
    """``(dataset, gamma, theta)`` points of the registry-cold workload."""
    points = [(name, spec.default_gamma, spec.default_theta)
              for name, spec in REGISTRY.items()]
    for name in SWEEP_DATASETS:
        theta = REGISTRY[name].default_theta
        points += [(name, gamma, theta) for gamma in SWEEP_GAMMAS]
        points += [(name, 0.9, theta + offset) for offset in SWEEP_THETA_OFFSETS]
    points += HEAVY_POINTS
    return [point for point in points if point not in OVER_BOUND]


def point_key(name: str, gamma: float, theta: int) -> str:
    return f"{name}/{gamma}/{theta}"


#: Served-mix: the graph both clients read (never mutated) and, per client,
#: the graphs only that client queries and mutates.
SHARED_GRAPH = "enron"
OWNED_GRAPHS = (("wordnet", "pokec"), ("hyves",))


def hot_specs(name: str) -> list[tuple[float, int]]:
    """The small repeated spec set of one served graph."""
    spec = REGISTRY[name]
    return [(spec.default_gamma, spec.default_theta),
            (spec.default_gamma, spec.default_theta - 1)]


#: Fresh served specs sweep gamma over [0.82, 0.98] in steps of 0.001, so a
#: run almost never repeats one and each is a genuine cache miss; gamma stays
#: >= 0.82, where every point is a cheap query (Fig. 8's 0.75 is not).
FRESH_GAMMAS = tuple(round(0.82 + 0.001 * step, 3) for step in range(161))
FRESH_THETA_OFFSETS = (-1, 0, 1)


def fresh_specs(name: str) -> list[tuple[float, int]]:
    theta = REGISTRY[name].default_theta
    hot = set(hot_specs(name))
    return [(gamma, theta + offset) for gamma in FRESH_GAMMAS
            for offset in FRESH_THETA_OFFSETS
            if (gamma, theta + offset) not in hot]
