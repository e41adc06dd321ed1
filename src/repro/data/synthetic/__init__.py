"""Synthetic image datasets substituting for MNIST / Fashion-MNIST."""

from .digits import (
    DIGIT_STROKES,
    SyntheticDigits,
    generate_digits,
    render_digits,
)
from .fashion import (
    FASHION_CLASS_NAMES,
    SyntheticFashion,
    generate_fashion,
    render_fashion_batch,
)
from .registry import (
    BATCH_RENDERERS,
    DATASET_BUILDERS,
    dataset_epsilon,
    dataset_num_classes,
    batch_renderer,
    load_dataset,
    load_test_split,
)

__all__ = [
    "SyntheticDigits",
    "generate_digits",
    "render_digits",
    "DIGIT_STROKES",
    "SyntheticFashion",
    "generate_fashion",
    "render_fashion_batch",
    "FASHION_CLASS_NAMES",
    "BATCH_RENDERERS",
    "DATASET_BUILDERS",
    "load_dataset",
    "load_test_split",
    "dataset_epsilon",
    "dataset_num_classes",
    "batch_renderer",
]
