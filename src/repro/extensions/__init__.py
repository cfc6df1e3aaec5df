"""Extensions beyond the core MQCE pipeline.

These implement the problem variants the paper discusses in its related work
and conclusion: top-k largest quasi-clique mining (kernel expansion), query-
driven community search, and a parallel divide-and-conquer driver.  The exact
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
from .parallel import ParallelDCFastQC, run_compact_subproblem
from .stealing import (ForcedStealSchedule, WorkerCrash,
                       branch_parallel_enumerate)

__all__ = [
    "expand_kernel",
    "kernel_expansion_top_k",
    "largest_quasi_clique_size",
    "top_k_summary",
    "QueryError",
    "community_of",
    "ParallelDCFastQC",
    "run_compact_subproblem",
    "ForcedStealSchedule",
    "WorkerCrash",
    "branch_parallel_enumerate",
]
