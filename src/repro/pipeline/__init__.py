"""End-to-end MQCE pipeline (MQCE-S1 + MQCE-S2).

Streaming delivery lives in :class:`repro.engine.ResultStream`.
"""

from .mqce import (
    ALGORITHMS,
    build_enumerator,
    canonical_order,
    resolve_algorithm,
    run_enumeration,
)
from .results import EnumerationResult

__all__ = [
    "ALGORITHMS",
    "build_enumerator",
    "canonical_order",
    "resolve_algorithm",
    "run_enumeration",
    "EnumerationResult",
]
