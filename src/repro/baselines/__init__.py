"""Baseline algorithms: Quick+ (Algorithm 1) and the naive exhaustive enumerator."""

from .pruning_rules import max_tolerable_non_neighbors
from .quickplus import QuickPlus
from .naive import NaiveEnumerator

__all__ = [
    "max_tolerable_non_neighbors",
    "QuickPlus",
    "NaiveEnumerator",
]
