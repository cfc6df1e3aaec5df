"""Extensions beyond the core MQCE pipeline.

These implement the problem variants the paper discusses in its related work
and conclusion: top-k largest quasi-clique mining (kernel expansion), query-
driven community search, and the work-stealing workers a divide-and-conquer
run fans out to.  The exact
top-k and containment searches are QuerySpec workloads
(:mod:`repro.api.execute`).
"""

from .topk import (
    expand_kernel,
    kernel_expansion_top_k,
    largest_quasi_clique_size,
    top_k_summary,
)
from .query import QueryError, community_of
from .parallel import run_compact_subproblem
from .stealing import (ForcedStealSchedule, WorkerCrash,
                       branch_parallel_enumerate)

__all__ = [
    "expand_kernel",
    "kernel_expansion_top_k",
    "largest_quasi_clique_size",
    "top_k_summary",
    "QueryError",
    "community_of",
    "run_compact_subproblem",
    "ForcedStealSchedule",
    "WorkerCrash",
    "branch_parallel_enumerate",
]
