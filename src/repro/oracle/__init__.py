"""The mask/popcount reference implementation of the MQCE-S1 search.

Production FastQC, DCFastQC and Quick+ run the incremental degree-ledger
kernel (:mod:`repro.core.kernel`).  This package keeps the original form of
the same search — every branch quantity recomputed with per-vertex popcounts
over :class:`~repro.core.branch.Branch` masks — as the differential oracle
and the benchmark denominator: both visit the same branch tree and emit the
same candidates in the same order.  No production module imports it.
"""

from .branch import (degree_in_partial, degree_in_union, disconnections_in_partial,
                     disconnections_in_union, max_disconnections_in_partial,
                     max_disconnections_in_union, min_partial_degree_in_union)
from .conditions import SDRegions, satisfies_condition_c1c2, sd_regions, sigma, tau_sigma
from .refinement import (RefinementOutcome, apply_rule1, apply_rule2,
                         delta_of_partial_plus, progressively_refine)
from .branching import (generate_branches, hybrid_se_branch_pair, pivot_ordering,
                        se_branches, select_pivot, sym_se_branches)
from .pruning_rules import (apply_type1_rules, branch_size_upper_bound,
                            critical_vertex_forced_mask, triggers_type2_rules)
from .enumerators import (ReferenceDCFastQC, ReferenceFastQC, ReferenceQuickPlus,
                          reference_enumeration)

__all__ = [
    "degree_in_partial", "degree_in_union", "disconnections_in_partial",
    "disconnections_in_union", "max_disconnections_in_partial",
    "max_disconnections_in_union", "min_partial_degree_in_union",
    "SDRegions", "satisfies_condition_c1c2", "sd_regions", "sigma", "tau_sigma",
    "RefinementOutcome", "apply_rule1", "apply_rule2", "delta_of_partial_plus",
    "progressively_refine",
    "generate_branches", "hybrid_se_branch_pair", "pivot_ordering", "se_branches",
    "select_pivot", "sym_se_branches",
    "apply_type1_rules", "branch_size_upper_bound", "critical_vertex_forced_mask",
    "triggers_type2_rules",
    "ReferenceDCFastQC", "ReferenceFastQC", "ReferenceQuickPlus",
    "reference_enumeration",
]
