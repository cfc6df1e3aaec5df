"""End-to-end MQCE pipeline (MQCE-S1 + MQCE-S2).

Streaming delivery lives in :class:`repro.engine.ResultStream`.
"""

from .mqce import (
    ALGORITHMS,
    build_enumerator,
    canonical_order,
    enumerate_candidate_quasi_cliques,
    resolve_algorithm,
    run_enumeration,
)
from .results import EnumerationResult

__all__ = [
    "ALGORITHMS",
    "build_enumerator",
    "canonical_order",
    "enumerate_candidate_quasi_cliques",
    "resolve_algorithm",
    "run_enumeration",
    "EnumerationResult",
]
