"""Data pipeline: datasets, loaders, transforms, synthetic generators."""

from .corruptions import CORRUPTIONS, corrupt, corruption_sweep
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
from .transforms import (
    ClipToUnit,
    Compose,
    GaussianNoise,
    Normalize,
    RandomShift,
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
    "Compose",
    "Normalize",
    "ClipToUnit",
    "GaussianNoise",
    "RandomShift",
    "CORRUPTIONS",
    "corrupt",
    "corruption_sweep",
]
