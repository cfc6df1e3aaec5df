"""Baseline algorithms: Quick+ (Algorithm 1) and the naive exhaustive enumerator."""

from .pruning_rules import PruningConfig, max_tolerable_non_neighbors
from .quickplus import QuickPlus, quickplus_enumerate
from .naive import NaiveEnumerator

__all__ = [
    "PruningConfig",
    "max_tolerable_non_neighbors",
    "QuickPlus",
    "quickplus_enumerate",
    "NaiveEnumerator",
]
