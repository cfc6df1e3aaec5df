"""repro.api — the unified, declarative query surface.

One hashable value object, :class:`QuerySpec`, describes every workload the
library serves (enumerate / top-k / containment / count), its execution knobs,
budgets and output options.  Everything else keys on it:

* :class:`repro.engine.MQCEEngine` plans, caches and streams from a spec,
* the fluent builder :class:`Q` assembles one readably::

      from repro.api import Q
      top = Q(graph).gamma(0.9).theta(5).top(10).run()
      for community in Q(graph).gamma(0.9).theta(5).stream():
          print(sorted(community))

* the CLI's ``repro query`` parses one from flags or a JSON file.

A spec runs only through an engine: without one, ``Q``'s terminals use a
fresh single-worker :class:`~repro.engine.MQCEEngine`, so ``run()`` executes
exactly the plan ``explain()`` prints.
"""

from .builder import Q, QueryBuilder
from .execute import containment_search, result_value, shape_result, topk_search
from .spec import SPEC_ALGORITHMS, WORKLOADS, QuerySpec

__all__ = [
    "Q",
    "QueryBuilder",
    "QuerySpec",
    "SPEC_ALGORITHMS",
    "WORKLOADS",
    "containment_search",
    "result_value",
    "shape_result",
    "topk_search",
]
