"""`QuerySpec` — the one declarative description of every MQCE workload.

A :class:`QuerySpec` is a frozen, hashable value object that fully describes a
query *except for the graph it runs on*: the workload (enumerate / top-k /
containment / count), the MQCE parameters, the execution knobs, the budgets and
the output options.  Everything downstream keys on it — the
:class:`~repro.engine.planner.QueryPlanner` plans from a spec, the
:class:`~repro.engine.cache.ResultCache` keys on ``(fingerprint, spec)``, the
CLI parses one from flags or JSON, and streaming delivery enforces its budgets.

Workloads are compositional rather than mutually exclusive:

* ``contains`` restricts the answer to maximal quasi-cliques containing the
  given vertices (the query-driven variant of [11, 12, 25]),
* ``k`` keeps only the ``k`` largest answers (the top-k variant of [34, 35]),
* ``count_only`` asks only for the number of answers, and
* none of the above is the plain MQCE enumeration.

``spec.workload`` names the primary workload for routing and display.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from ..core.branching import BRANCHING_METHODS
from ..core.dcfastqc import DC_FRAMEWORKS, DEFAULT_MAX_ROUNDS, PARALLEL_MODES
from ..errors import SpecError
from ..pipeline.mqce import ALGORITHMS
from ..quasiclique.definitions import gamma_fraction, validate_parameters

#: The workload names ``QuerySpec.workload`` can report.
WORKLOADS = ("enumerate", "topk", "containment", "count")

#: ``algorithm`` values a spec accepts ("auto" defers to the planner).
SPEC_ALGORITHMS = ("auto",) + ALGORITHMS

#: ``parallel`` values a spec accepts: "auto" lets a divide-and-conquer run
#: fan out to work-stealing workers once it has done enough work, "none" keeps
#: it in-process, and "branch" fans it out before its first subproblem.
SPEC_PARALLEL_MODES = PARALLEL_MODES


@dataclass(frozen=True)
class QuerySpec:
    """A complete, graph-independent description of one MQCE query.

    Parameters
    ----------
    gamma, theta:
        The MQCE parameters: degree fraction in ``[0.5, 1]`` and minimum
        quasi-clique size.  For top-k queries ``theta`` doubles as the
        smallest size the shrinking-threshold search may drop to.
    algorithm, branching, framework, max_rounds, maximality_filter:
        Execution knobs.  ``algorithm="auto"`` (default) lets the engine's
        planner choose; ``branching=None`` / ``framework=None`` likewise defer
        to the algorithm's default.
    parallel:
        Parallel execution mode for divide-and-conquer plans run with more
        than one worker: ``"auto"`` (default — the run searches in this
        process and fans out to work-stealing workers once it has explored
        :data:`~repro.core.dcfastqc.FAN_OUT_BRANCHES` branches), ``"none"``
        (never fan out) or ``"branch"`` (fan out before the first
        subproblem).  A time-limited spec, a stream and a served query stay
        in this process.  Like worker counts this is an execution-resource
        knob: every mode computes identical answers, so it does not
        participate in the cache key.
    k:
        When given, return only the ``k`` largest answers (ranked by size,
        ties broken by sorted labels).
    contains:
        Vertex labels every answer must contain (normalised to a sorted
        tuple).  Empty tuple: no containment constraint.
    require_maximal:
        Containment queries only: when False, every quasi-clique found for
        the containment seed is returned, not just the maximal ones.
    count_only:
        Ask only for the number of answers (output shaping; the builder's
        ``.run()`` and the CLI return a bare count).
    time_limit:
        Soft wall-clock budget in seconds.  Enumeration stops cooperatively
        once it is exceeded; delivered results are best-effort (and the
        streaming DC path yields only confirmed-maximal sets).  Budgeted
        results are never cached.
    max_results:
        Deliver at most this many answers.  Streaming stops enumeration as
        soon as the quota is reached; ``query()`` trims the delivered copy.
    include_candidates:
        When False the delivered :class:`~repro.pipeline.results.EnumerationResult`
        drops the (possibly large) MQCE-S1 candidate list.
    """

    gamma: float
    theta: int = 1
    algorithm: str = "auto"
    branching: str | None = None
    framework: str | None = None
    parallel: str = "auto"
    max_rounds: int = DEFAULT_MAX_ROUNDS
    maximality_filter: bool = True
    k: int | None = None
    contains: tuple = ()
    require_maximal: bool = True
    count_only: bool = False
    time_limit: float | None = None
    max_results: int | None = None
    include_candidates: bool = True

    def __post_init__(self) -> None:
        validate_parameters(self.gamma, self.theta)
        if self.algorithm not in SPEC_ALGORITHMS:
            raise SpecError(f"unknown algorithm {self.algorithm!r}; "
                            f"expected one of {SPEC_ALGORITHMS}")
        if self.branching is not None and self.branching not in BRANCHING_METHODS:
            raise SpecError(f"unknown branching {self.branching!r}; "
                            f"expected one of {BRANCHING_METHODS}")
        if self.framework is not None and self.framework not in DC_FRAMEWORKS:
            raise SpecError(f"unknown framework {self.framework!r}; "
                            f"expected one of {DC_FRAMEWORKS}")
        if self.parallel not in SPEC_PARALLEL_MODES:
            raise SpecError(f"unknown parallel mode {self.parallel!r}; "
                            f"expected one of {SPEC_PARALLEL_MODES}")
        if self.max_rounds < 0:
            raise SpecError("max_rounds must be non-negative")
        if self.k is not None and self.k < 1:
            raise SpecError("k must be a positive integer")
        if self.time_limit is not None and self.time_limit <= 0:
            raise SpecError("time_limit must be a positive number of seconds")
        if self.max_results is not None and self.max_results < 1:
            raise SpecError("max_results must be a positive integer")
        # Normalise any iterable of labels to a canonical sorted tuple so
        # equal constraints compare and hash equally.
        object.__setattr__(self, "contains", _normalise_contains(self.contains))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def workload(self) -> str:
        """The primary workload this spec describes (one of :data:`WORKLOADS`)."""
        if self.count_only:
            return "count"
        if self.contains:
            return "containment"
        if self.k is not None:
            return "topk"
        return "enumerate"

    def resolved(self, plan) -> "QuerySpec":
        """Return a copy with algorithm / branching / framework fixed by ``plan``.

        The result has no ``"auto"`` or ``None`` execution knobs left, so it
        identifies the exact computation — which is why cache keys are built
        from resolved specs: a forced ``algorithm="dcfastqc"`` and an ``auto``
        plan that chose DCFastQC address the same cache entry.  A plan keeps
        a forced knob and fills in the algorithm's default for an unset one.
        """
        return dataclasses.replace(
            self, algorithm=plan.algorithm, branching=plan.branching,
            framework=plan.framework)

    def cache_key(self) -> tuple:
        """The semantic identity of this query: every field that changes the answer.

        Budgets and output options are deliberately excluded — they shape the
        delivered copy, not the cached full result (budget-truncated results
        are never cached at all).  ``parallel`` is excluded too: execution
        resources never change the answer, so a sequential and a
        branch-parallel run of the same query share one cache entry.  Gamma is
        normalised to an exact fraction so ``0.9`` and ``Fraction(9, 10)``
        address the same entry.
        """
        return ("spec", gamma_fraction(self.gamma), int(self.theta),
                self.algorithm, self.branching, self.framework,
                int(self.max_rounds), bool(self.maximality_filter),
                self.k, self.contains, bool(self.require_maximal))

    @property
    def cacheable(self) -> bool:
        """True when results computed for this spec may be cached (no time budget)."""
        return self.time_limit is None

    # ------------------------------------------------------------------
    # Serialisation (CLI --spec files, logging)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dictionary with default-valued fields omitted."""
        data = dataclasses.asdict(self)
        data["contains"] = list(data["contains"])
        defaults = {f.name: f.default for f in dataclasses.fields(QuerySpec)
                    if f.default is not dataclasses.MISSING}
        defaults["contains"] = []
        return {key: value for key, value in data.items()
                if key == "gamma" or key == "theta" or defaults.get(key) != value}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuerySpec":
        """Build a spec from a mapping, rejecting unknown keys with :class:`SpecError`."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown QuerySpec fields: {sorted(unknown)}; "
                            f"expected a subset of {sorted(known)}")
        if "gamma" not in data:
            raise SpecError("a QuerySpec requires at least 'gamma'")
        return cls(**dict(data))

    def to_json(self) -> str:
        """The canonical JSON serialisation of this spec.

        Sorted keys, no whitespace, default-valued fields omitted — so two
        equal specs always serialise to the same bytes (the ``repro serve``
        wire format and the CLI ``--spec`` files both rely on this), and
        ``QuerySpec.from_json(spec.to_json()) == spec`` round-trips exactly.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def fields_from_json(text: str) -> dict[str, Any]:
        """Parse a JSON object string into a QuerySpec field mapping.

        Shared by :meth:`from_json`, the CLI ``--spec`` reader (which overlays
        flag overrides before construction) and the serve protocol; raises
        :class:`SpecError` for malformed documents.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON for QuerySpec: {exc}") from exc
        if not isinstance(payload, Mapping):
            raise SpecError("a QuerySpec JSON document must be an object")
        return dict(payload)

    @classmethod
    def from_json(cls, text: str) -> "QuerySpec":
        """Parse a spec from a JSON object string (inverse of :meth:`to_json`)."""
        return cls.from_dict(cls.fields_from_json(text))

    def describe(self) -> str:
        """A compact one-line description for logs and CLI headers."""
        parts = [f"{self.workload} gamma={self.gamma} theta={self.theta}"]
        if self.algorithm != "auto":
            parts.append(f"algorithm={self.algorithm}")
        if self.parallel != "auto":
            parts.append(f"parallel={self.parallel}")
        if self.contains:
            parts.append(f"containing={','.join(map(str, self.contains))}")
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.time_limit is not None:
            parts.append(f"time_limit={self.time_limit}s")
        if self.max_results is not None:
            parts.append(f"max_results={self.max_results}")
        return " ".join(parts)


def _normalise_contains(labels: Iterable) -> tuple:
    """Deduplicate and order containment labels deterministically."""
    return tuple(sorted(set(labels), key=lambda label: (str(type(label)), str(label))))
