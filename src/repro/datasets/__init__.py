"""Dataset registry with synthetic analogues of the paper's evaluation datasets."""

from .registry import (
    DEFAULT_FIGURE_DATASETS,
    REGISTRY,
    DatasetSpec,
    PaperStats,
    dataset_names,
    default_parameters,
    get_spec,
    load_dataset,
    load_prepared,
)

__all__ = [
    "DEFAULT_FIGURE_DATASETS",
    "REGISTRY",
    "DatasetSpec",
    "PaperStats",
    "dataset_names",
    "default_parameters",
    "get_spec",
    "load_dataset",
    "load_prepared",
]
