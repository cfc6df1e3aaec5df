"""Extensions beyond the core MQCE pipeline.

These implement the problem variants the paper discusses in its related work
and conclusion: top-k largest quasi-clique mining (kernel expansion), query-
driven quasi-clique search, and a parallel divide-and-conquer driver.
"""

from .topk import (
    expand_kernel,
    find_largest_quasi_cliques,
    kernel_expansion_top_k,
    largest_quasi_clique_size,
    top_k_summary,
)
from .query import QueryError, community_of, find_quasi_cliques_containing
from .parallel import ParallelDCFastQC, parallel_enumerate, run_compact_subproblem
from .stealing import (ForcedStealSchedule, WorkerCrash,
                       branch_parallel_enumerate)

__all__ = [
    "expand_kernel",
    "find_largest_quasi_cliques",
    "kernel_expansion_top_k",
    "largest_quasi_clique_size",
    "top_k_summary",
    "QueryError",
    "community_of",
    "find_quasi_cliques_containing",
    "ParallelDCFastQC",
    "parallel_enumerate",
    "run_compact_subproblem",
    "ForcedStealSchedule",
    "WorkerCrash",
    "branch_parallel_enumerate",
]
