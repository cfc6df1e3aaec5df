"""Core contribution: the FastQC / DCFastQC branch-and-bound machinery."""

from .branch import Branch
from .branching import BRANCHING_METHODS, PivotInfo, hybrid_se_applicable
from .kernel import (
    BranchState,
    depth_first_enumerate,
    generate_child_states,
    refine_state,
)
from .fastqc import FastQC
from .dcfastqc import (
    DC_FRAMEWORKS,
    CompactSubproblem,
    DCFastQC,
    DCStatistics,
    SubproblemRecord,
    two_hop_pruning_threshold,
)
from .complexity import (
    branching_factor,
    characteristic_polynomial,
    dcfastqc_budget_bound,
    dcfastqc_worst_case_log2,
    fastqc_budget_bound,
    fastqc_worst_case_log2,
    quickplus_worst_case_log2,
)
from .stats import SearchStatistics

__all__ = [
    "Branch",
    "BRANCHING_METHODS",
    "PivotInfo",
    "hybrid_se_applicable",
    "BranchState",
    "depth_first_enumerate",
    "generate_child_states",
    "refine_state",
    "FastQC",
    "DC_FRAMEWORKS",
    "CompactSubproblem",
    "DCFastQC",
    "DCStatistics",
    "SubproblemRecord",
    "two_hop_pruning_threshold",
    "branching_factor",
    "characteristic_polynomial",
    "dcfastqc_budget_bound",
    "dcfastqc_worst_case_log2",
    "fastqc_budget_bound",
    "fastqc_worst_case_log2",
    "quickplus_worst_case_log2",
    "SearchStatistics",
]
