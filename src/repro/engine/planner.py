"""Query planning: choose how to execute one MQCE query.

Given a :class:`~repro.engine.prepared.PreparedGraph` and a
:class:`~repro.api.spec.QuerySpec`, :class:`QueryPlanner` reads the graph's
size and the memoized core reduction and degeneracy bound — never the
enumeration itself — and produces an explainable :class:`QueryPlan` that fixes

* the MQCE-S1 **algorithm** (``dcfastqc`` / ``fastqc`` / ``quickplus`` /
  ``naive``) and its **framework** (the spec's, or the algorithm's default),
* the **branching** rule (``hybrid`` / ``sym-se`` / ``se``), and
* whether the run may fan out to work-stealing workers, and to how many.
  Whether it does is decided while it runs, by the work it has done:
  :class:`~repro.core.dcfastqc.DCFastQC` fans out once it has explored
  :data:`~repro.core.dcfastqc.FAN_OUT_BRANCHES` branches (``parallel="auto"``),
  or before its first subproblem (``"branch"``).  So a plan depends only on
  the prepared graph and the spec, and planning after a run gives the plan
  that ran.

Every choice is exact — all four MQCE-S1 algorithms enumerate the same maximal
quasi-cliques after MQCE-S2 filtering — so planning only affects cost, never
answers.  The decisions follow the paper's experiments: DCFastQC with hybrid
branching wins at scale (Figures 7 and 12), while its core reduction and
ordering overhead is wasted on graphs too small to decompose.  A plan states
its decisions and their reasons (:attr:`QueryPlan.reasons`,
:meth:`QueryPlan.describe`); it carries no cost estimate.  The thresholds
are module constants, read when a plan is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

from ..core import dcfastqc
from ..extensions.parallel import default_workers
from ..obs.metrics import REGISTRY
from ..quasiclique.definitions import gamma_fraction
from .prepared import PreparedGraph

_PLANS = REGISTRY.counter(
    "repro_planner_plans_total",
    "Plans served by QueryPlanner.plan, by chosen algorithm and source")
_PARALLEL_PLANS = REGISTRY.counter(
    "repro_planner_parallel_plans_total",
    "Plans whose divide-and-conquer run may fan out to work-stealing workers")
_TRIVIAL_PLANS = REGISTRY.counter(
    "repro_planner_trivial_plans_total",
    "Plans where preprocessing proved the answer empty")

#: Graphs with at most this many vertices run plain FastQC under "auto".
SMALL_GRAPH_VERTICES = 64


@dataclass(frozen=True)
class QueryPlan:
    """An explainable execution plan for one ``(graph, gamma, theta)`` query.

    ``parallel`` means the run may fan out to ``workers`` work-stealing
    workers: the caller forced it, or it is a divide-and-conquer plan with
    more than one worker and ``parallel`` other than ``"none"``.
    """

    gamma: float
    theta: int
    algorithm: str
    branching: str
    framework: str
    parallel: bool
    workers: int
    fingerprint: str
    graph_vertices: int
    graph_edges: int
    core_vertices_kept: int
    core_vertices_removed: int
    size_upper_bound: int
    reasons: tuple[str, ...] = field(default_factory=tuple)

    @property
    def trivial(self) -> bool:
        """True when preprocessing already proves the answer is empty."""
        return self.core_vertices_kept < self.theta or self.size_upper_bound < self.theta

    def as_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        """Human-readable multi-line explanation (the ``explain`` output)."""
        mode = f"parallel x{self.workers}" if self.parallel else "serial"
        lines = [
            f"QueryPlan for gamma={self.gamma}, theta={self.theta} "
            f"on graph {self.fingerprint} "
            f"(|V|={self.graph_vertices}, |E|={self.graph_edges})",
            f"  algorithm:  {self.algorithm} (framework={self.framework}, "
            f"branching={self.branching}, {mode})",
            f"  reduction:  core keeps {self.core_vertices_kept} of "
            f"{self.graph_vertices} vertices "
            f"({self.core_vertices_removed} pruned before enumeration)",
            f"  size bound: no gamma-quasi-clique larger than "
            f"{self.size_upper_bound} vertices (degeneracy bound)",
        ]
        if self.trivial:
            lines.append("  verdict:    TRIVIAL — the answer is provably empty; "
                         "enumeration will be skipped")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


class QueryPlanner:
    """Chooses an execution plan from prepared-graph statistics alone."""

    def plan(self, prepared: PreparedGraph, spec,
             workers: int | None = None) -> QueryPlan:
        """Return the :class:`QueryPlan` for one :class:`~repro.api.QuerySpec`.

        Only the spec fields that decide how the enumeration runs are read
        (gamma, theta, algorithm, branching, framework, parallel); workload
        modifiers and budgets do not change it.  ``algorithm="auto"`` lets the
        planner decide, and a named algorithm, branching or framework is
        honoured as given, as is an explicit ``workers`` count.  A
        divide-and-conquer plan with more than one worker may fan out unless
        ``parallel="none"``; the run decides when.  Planning never runs the
        enumeration: it reads only memoized artifacts.
        """
        gamma, theta = spec.gamma, spec.theta
        algorithm, branching, parallel = spec.algorithm, spec.branching, spec.parallel
        # Plans are deterministic in the prepared graph and these fields, so
        # they are memoized alongside the other prepared artifacts.  The graph
        # version is part of the key (reading it syncs the preparation, which
        # drops older plans).
        cache_key = (gamma_fraction(gamma), int(theta), algorithm, branching,
                     spec.framework, parallel, workers, prepared.version)
        memoized = prepared.plan_cache.get(cache_key)
        if memoized is not None:
            _PLANS.inc(algorithm=memoized.algorithm, source="memoized")
            return memoized
        reasons: list[str] = []

        core_kept = prepared.core_size(gamma, theta)
        core_removed = prepared.graph.vertex_count - core_kept
        bound = prepared.size_upper_bound(gamma)

        chosen = algorithm
        if algorithm == "auto":
            if prepared.graph.vertex_count <= SMALL_GRAPH_VERTICES:
                chosen = "fastqc"
                reasons.append(
                    f"graph has only {prepared.graph.vertex_count} vertices "
                    f"(<= {SMALL_GRAPH_VERTICES}): plain FastQC avoids "
                    "the divide-and-conquer ordering overhead")
            else:
                chosen = "dcfastqc"
                reasons.append(
                    f"core reduction keeps {core_kept} of "
                    f"{prepared.graph.vertex_count} vertices: divide-and-conquer "
                    "confines each subproblem to a 2-hop ball of the core")
        else:
            reasons.append(f"algorithm {chosen!r} forced by the caller")

        if spec.framework is None:
            framework = "dc" if chosen == "dcfastqc" else "none"
        else:
            framework = spec.framework
            reasons.append(f"framework {framework!r} forced by the caller")
        # Only divide-and-conquer subproblems can fan out.
        divides = chosen == "dcfastqc" and framework != "none"

        if branching is None:
            branching = "se" if chosen in ("quickplus", "naive") else "hybrid"
            if chosen in ("dcfastqc", "fastqc"):
                reasons.append("hybrid branching: best overall in the paper's "
                               "Figure 11 ablation")
        else:
            reasons.append(f"branching {branching!r} forced by the caller")

        # An explicit worker count is honoured as-is; the default is the CPUs
        # this process may run on, capped.
        requested = workers if workers is not None else default_workers()
        fan_out = divides and requested > 1 and parallel != "none"
        effective_workers = requested if fan_out else 1
        if fan_out and parallel == "branch":
            reasons.append(
                f"parallel mode 'branch' forced by the caller: "
                f"{effective_workers} work-stealing workers from the first "
                "subproblem on")
        elif fan_out:
            reasons.append(
                f"fans out to {effective_workers} work-stealing workers once "
                f"the run has explored {dcfastqc.FAN_OUT_BRANCHES} branches "
                "in this process")
        elif parallel == "none" and requested > 1 and divides:
            reasons.append("parallelism disabled by the caller (parallel='none')")
        elif requested > 1 and (parallel == "branch" or workers is not None):
            plain = (f"{chosen!r}" if chosen != "dcfastqc"
                     else "framework 'none'")
            reasons.append(
                f"parallelism declined despite {requested} workers: only "
                f"divide-and-conquer plans fan out, and {plain} is not one")

        if core_kept < theta or bound < theta:
            reasons.append(
                f"trivial: the {'core reduction' if core_kept < theta else 'size bound'} "
                f"proves no quasi-clique of size >= {theta} exists")

        plan = QueryPlan(
            gamma=gamma, theta=theta, algorithm=chosen, branching=branching,
            framework=framework, parallel=fan_out, workers=effective_workers,
            fingerprint=prepared.fingerprint,
            graph_vertices=prepared.graph.vertex_count,
            graph_edges=prepared.graph.edge_count,
            core_vertices_kept=core_kept, core_vertices_removed=core_removed,
            size_upper_bound=bound,
            reasons=tuple(reasons),
        )
        prepared.plan_cache[cache_key] = plan
        _PLANS.inc(algorithm=plan.algorithm, source="computed")
        if plan.parallel:
            _PARALLEL_PLANS.inc()
        if plan.trivial:
            _TRIVIAL_PLANS.inc()
        return plan
