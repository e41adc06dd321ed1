"""Data pipeline: datasets, loaders, shard sources, synthetic generators."""

from .dataset import Dataset, TensorDataset
from .loader import Batch, DataLoader
from .source import (
    DEFAULT_SHARD_SIZE,
    DataSource,
    ShardCache,
    SyntheticSource,
    TensorSource,
    as_source,
)
from .synthetic import (
    SyntheticDigits,
    SyntheticFashion,
    dataset_epsilon,
    load_dataset,
    load_test_split,
)

__all__ = [
    "Dataset",
    "TensorDataset",
    "Batch",
    "DataLoader",
    "DataSource",
    "TensorSource",
    "SyntheticSource",
    "ShardCache",
    "as_source",
    "DEFAULT_SHARD_SIZE",
    "SyntheticDigits",
    "SyntheticFashion",
    "load_dataset",
    "load_test_split",
    "dataset_epsilon",
]
