"""Cost-based query planning: choose how to execute one MQCE query.

Given a :class:`~repro.engine.prepared.PreparedGraph` and ``(gamma, theta)``,
:class:`QueryPlanner` inspects the memoized graph artifacts — never the
enumeration itself — and produces an explainable :class:`QueryPlan` that fixes

* the MQCE-S1 **algorithm** (``dcfastqc`` / ``fastqc`` / ``quickplus`` /
  ``naive``) and its **framework** (divide-and-conquer or not),
* the **branching** rule (``hybrid`` / ``sym-se`` / ``se``), and
* whether to fan the divide-and-conquer subproblems out to
  :class:`~repro.extensions.parallel.ParallelDCFastQC`'s work-stealing
  workers, and to how many.

Every choice is exact — all four MQCE-S1 algorithms enumerate the same maximal
quasi-cliques after MQCE-S2 filtering — so planning only affects cost, never
answers.  The decisions follow the paper's experiments: DCFastQC with hybrid
branching wins at scale (Figures 7 and 12), while its core reduction and
ordering overhead is wasted on cores too small to decompose.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

from ..api.spec import SPEC_PARALLEL_MODES
from ..core.kernel import KERNELS
from ..extensions.parallel import available_cpus
from ..obs.metrics import REGISTRY
from ..pipeline.mqce import ALGORITHMS
from ..quasiclique.definitions import gamma_fraction, validate_parameters
from .prepared import PreparedGraph

_PLANS = REGISTRY.counter(
    "repro_planner_plans_total",
    "Plans served by QueryPlanner.plan, by chosen algorithm and source")
_PARALLEL_PLANS = REGISTRY.counter(
    "repro_planner_parallel_plans_total",
    "Plans that fan divide-and-conquer subproblems out to work-stealing workers")
_TRIVIAL_PLANS = REGISTRY.counter(
    "repro_planner_trivial_plans_total",
    "Plans where preprocessing proved the answer empty")

#: Planner decision thresholds, overridable per engine instance.
DEFAULT_SMALL_GRAPH_VERTICES = 64
DEFAULT_PARALLEL_MIN_VERTICES = 2048
DEFAULT_PARALLEL_MIN_BRANCHES = 4096
DEFAULT_MAX_WORKERS = 8

#: Cap on the exponent used by the relative cost estimate.
_COST_EXPONENT_CAP = 24


@dataclass(frozen=True)
class PlannerConfig:
    """Tunable thresholds of the cost model."""

    small_graph_vertices: int = DEFAULT_SMALL_GRAPH_VERTICES
    parallel_min_vertices: int = DEFAULT_PARALLEL_MIN_VERTICES
    #: Observed branch counts above this open the parallel gate even when the
    #: core is small — a 32-vertex core can still hold seconds of enumeration.
    parallel_min_branches: int = DEFAULT_PARALLEL_MIN_BRANCHES
    max_workers: int = DEFAULT_MAX_WORKERS


@dataclass(frozen=True)
class QueryPlan:
    """An explainable execution plan for one ``(graph, gamma, theta)`` query."""

    gamma: float
    theta: int
    algorithm: str
    branching: str
    framework: str
    kernel: str
    parallel: bool
    workers: int
    fingerprint: str
    graph_vertices: int
    graph_edges: int
    core_vertices_kept: int
    core_vertices_removed: int
    component_count: int
    eligible_components: int
    size_upper_bound: int
    estimated_cost: float
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
            f"branching={self.branching}, kernel={self.kernel}, {mode})",
            f"  reduction:  core keeps {self.core_vertices_kept} of "
            f"{self.graph_vertices} vertices "
            f"({self.core_vertices_removed} pruned before enumeration)",
            f"  components: {self.eligible_components} of {self.component_count} "
            f"can hold a quasi-clique of size >= {self.theta}",
            f"  size bound: no gamma-quasi-clique larger than "
            f"{self.size_upper_bound} vertices (degeneracy bound)",
            f"  est. cost:  {self.estimated_cost:.3g} relative units",
        ]
        if self.trivial:
            lines.append("  verdict:    TRIVIAL — the answer is provably empty; "
                         "enumeration will be skipped")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


class QueryPlanner:
    """Chooses an execution plan from prepared-graph statistics alone."""

    def __init__(self, config: PlannerConfig | None = None) -> None:
        self.config = config or PlannerConfig()

    def plan_spec(self, prepared: PreparedGraph, spec,
                  workers: int | None = None) -> QueryPlan:
        """Plan one :class:`repro.api.QuerySpec` (the engine's planning entry).

        Only the spec fields that influence plan selection are consulted
        (gamma, theta, algorithm, branching, kernel, parallel); workload
        modifiers and budgets do not change how the enumeration itself is best
        executed.
        """
        return self.plan(prepared, spec.gamma, spec.theta,
                         algorithm=spec.algorithm, branching=spec.branching,
                         kernel=spec.kernel, workers=workers,
                         parallel=spec.parallel)

    def plan(self, prepared: PreparedGraph, gamma: float, theta: int,
             algorithm: str = "auto", branching: str | None = None,
             kernel: str = "ledger", workers: int | None = None,
             parallel: str = "auto") -> QueryPlan:
        """Return the :class:`QueryPlan` for one query.

        ``algorithm="auto"`` lets the planner decide; naming one of
        :data:`~repro.pipeline.mqce.ALGORITHMS` forces it.  ``branching``,
        ``kernel`` and ``workers`` likewise override the planner when given.
        ``parallel`` requests an execution mode
        (:data:`~repro.api.spec.SPEC_PARALLEL_MODES`): with ``"auto"`` the
        planner fans the divide-and-conquer subproblems out to work-stealing
        workers when the core is large, or when a completed run of this
        ``(gamma, theta)`` observed enough branches.  Planning never runs the
        enumeration: it reads only memoized artifacts.
        """
        validate_parameters(gamma, theta)
        if algorithm != "auto" and algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected 'auto' or one of {ALGORITHMS}")
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
        if parallel not in SPEC_PARALLEL_MODES:
            raise ValueError(f"unknown parallel mode {parallel!r}; "
                             f"expected one of {SPEC_PARALLEL_MODES}")
        # Plans are deterministic in the prepared graph and this configuration,
        # so they are memoized alongside the other prepared artifacts; repeated
        # (and cache-hit) queries skip the per-component eligibility scan.
        # The histogram version is part of the key: a completed run that
        # records fresh branch counts re-opens the parallel decision instead
        # of serving a plan made without them.
        cache_key = (self.config, gamma_fraction(gamma), int(theta),
                     algorithm, branching, kernel, workers, parallel,
                     prepared.histogram_version)
        memoized = prepared.plan_cache.get(cache_key)
        if memoized is not None:
            _PLANS.inc(algorithm=memoized.algorithm, source="memoized")
            return memoized
        reasons: list[str] = []

        core_kept = prepared.core_size(gamma, theta)
        core_removed = prepared.graph.vertex_count - core_kept
        core_mask = prepared.core_mask(gamma, theta)
        eligible = 0
        for component in prepared.components:
            component_core = sum(
                1 for v in component if (core_mask >> prepared.graph.index_of(v)) & 1)
            if component_core >= theta:
                eligible += 1
        bound = prepared.size_upper_bound(gamma)

        chosen = algorithm
        if algorithm == "auto":
            if prepared.graph.vertex_count <= self.config.small_graph_vertices:
                chosen = "fastqc"
                reasons.append(
                    f"graph has only {prepared.graph.vertex_count} vertices "
                    f"(<= {self.config.small_graph_vertices}): plain FastQC avoids "
                    "the divide-and-conquer ordering overhead")
            else:
                chosen = "dcfastqc"
                reasons.append(
                    f"core reduction keeps {core_kept} of "
                    f"{prepared.graph.vertex_count} vertices: divide-and-conquer "
                    "confines each subproblem to a 2-hop ball of the core")
        else:
            reasons.append(f"algorithm {chosen!r} forced by the caller")

        framework = "dc" if chosen == "dcfastqc" else "none"

        if branching is None:
            branching = "se" if chosen in ("quickplus", "naive") else "hybrid"
            if chosen in ("dcfastqc", "fastqc"):
                reasons.append("hybrid branching: best overall in the paper's "
                               "Figure 11 ablation")
        else:
            reasons.append(f"branching {branching!r} forced by the caller")

        if kernel == "ledger" and chosen in ("dcfastqc", "fastqc", "quickplus"):
            reasons.append("ledger kernel: incremental O(deg) degree ledgers "
                           "(kernelized shrinking, refinement and Type I/II "
                           "pruning — no popcount rescans)")
        elif kernel == "reference":
            reasons.append("reference kernel forced: mask/popcount implementation "
                           "(differential-testing oracle)")

        # An explicit worker count is honoured as-is; the default is the CPUs
        # this process may run on, capped by the planner configuration.
        requested = (workers if workers is not None
                     else min(self.config.max_workers, available_cpus()))
        # The parallel gate opens on any of: a core big enough that fan-out is
        # worth it on size alone, observed work (branch counts from a completed
        # run — a tiny core can still hold seconds of enumeration), or an
        # explicit parallel="branch".
        branch_evidence = prepared.subproblem_branch_histogram(gamma, theta)
        observed_branches = branch_evidence.total if branch_evidence else 0
        fan_out = (chosen == "dcfastqc"
                   and requested > 1
                   and parallel != "none"
                   and (core_kept >= self.config.parallel_min_vertices
                        or observed_branches >= self.config.parallel_min_branches
                        or parallel == "branch"))
        effective_workers = requested if fan_out else 1
        if fan_out:
            if core_kept >= self.config.parallel_min_vertices:
                reasons.append(
                    f"core of {core_kept} vertices exceeds the parallel threshold "
                    f"({self.config.parallel_min_vertices}): fanning DC subproblems "
                    f"out to {effective_workers} work-stealing workers")
            elif observed_branches >= self.config.parallel_min_branches:
                reasons.append(
                    f"an observed run explored {observed_branches} branches "
                    f"(>= {self.config.parallel_min_branches}): enough work to "
                    f"fan out to {effective_workers} work-stealing workers "
                    f"despite the {core_kept}-vertex core")
            if parallel == "branch":
                reasons.append(
                    f"parallel mode 'branch' forced by the caller: "
                    f"{effective_workers} work-stealing workers")
        elif parallel == "none" and requested > 1 and chosen == "dcfastqc":
            reasons.append("parallelism disabled by the caller (parallel='none')")
        elif workers is not None and workers > 1:
            reasons.append(
                f"parallelism declined despite workers={workers}: core of "
                f"{core_kept} vertices is below the threshold "
                f"({self.config.parallel_min_vertices}) or the algorithm is "
                "not divide-and-conquer")

        estimated_cost = self._estimate_cost(prepared, core_kept, chosen)
        if core_kept < theta or bound < theta:
            reasons.append(
                f"trivial: the {'core reduction' if core_kept < theta else 'size bound'} "
                f"proves no quasi-clique of size >= {theta} exists")
            estimated_cost = 0.0

        plan = QueryPlan(
            gamma=gamma, theta=theta, algorithm=chosen, branching=branching,
            framework=framework, kernel=kernel,
            parallel=fan_out, workers=effective_workers,
            fingerprint=prepared.fingerprint,
            graph_vertices=prepared.graph.vertex_count,
            graph_edges=prepared.graph.edge_count,
            core_vertices_kept=core_kept, core_vertices_removed=core_removed,
            component_count=len(prepared.components),
            eligible_components=eligible,
            size_upper_bound=bound,
            estimated_cost=estimated_cost,
            reasons=tuple(reasons),
        )
        prepared.plan_cache[cache_key] = plan
        _PLANS.inc(algorithm=plan.algorithm, source="computed")
        if plan.parallel:
            _PARALLEL_PLANS.inc()
        if plan.trivial:
            _TRIVIAL_PLANS.inc()
        return plan

    # ------------------------------------------------------------------
    def _estimate_cost(self, prepared: PreparedGraph, core_kept: int,
                       algorithm: str) -> float:
        """A relative cost figure in the spirit of the paper's O(n * 2^(a*w*d)) bound.

        Only meaningful for comparing plans on the same graph; the exponent is
        capped so the figure stays printable.
        """
        if core_kept == 0:
            return 0.0
        omega = prepared.degeneracy
        exponent = min(omega, _COST_EXPONENT_CAP)
        base = core_kept * float(2 ** exponent)
        if algorithm in ("quickplus", "naive"):
            # No divide-and-conquer confinement: the whole core is one subproblem.
            base *= max(1, core_kept // max(1, omega + 1))
        return base
