"""Evaluation metrics of Section 4."""

from .tree_metrics import (
    aggregate_workloads,
    link_stress,
    node_stress,
    node_stress_arrays,
    overload_index,
    overload_index_arrays,
    relative_delay_penalty,
)
from .overlay_metrics import (
    average_neighbor_distance_ms,
    degree_histogram,
    power_law_fit,
)

__all__ = [
    "aggregate_workloads",
    "link_stress",
    "node_stress",
    "node_stress_arrays",
    "overload_index",
    "overload_index_arrays",
    "relative_delay_penalty",
    "average_neighbor_distance_ms",
    "degree_histogram",
    "power_law_fit",
]
