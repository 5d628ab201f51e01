"""Dimensional telemetry primitives: log-scale quantile sketches and
dense group-indexed metric columns.

The protocol kernels (``repro.core.multigroup``) relax thousands of
groups per epoch; per-tenant reporting over that path cannot afford
one Python instrument per peer-group.  This module provides the two
representations the dimensional layer is built on:

* :class:`QuantileSketch` — a deterministic fixed-bin log-scale
  histogram over a :class:`SketchLayout`.  Its entire state is an
  ``int64`` count vector (no float accumulator), so merging two
  sketches is integer addition: commutative, associative, and
  bit-identical no matter how observations are split across
  ``core/parallel`` shards and pool workers.
* Segmented column kernels — :func:`segment_log_histogram` and
  :func:`sketch_quantiles` operate on ``(n_groups, cells)`` ``int64``
  matrices (one sketch row per group) with vectorized numpy, so
  per-group delay percentiles cost O(groups · cells), never
  O(peer-groups) Python iterations.

A sketch quantile is the *upper edge* of the bin holding the requested
rank, which over-estimates the true order statistic by at most a factor
of ``layout.gamma`` for values inside ``[lo, hi)`` — the rank-error
bound pinned by the Hypothesis suite in ``tests/test_dims.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import TelemetryError

__all__ = [
    "DEFAULT_SKETCH_LAYOUT",
    "QuantileSketch",
    "SketchLayout",
    "segment_log_histogram",
    "sketch_quantiles",
]


@dataclass(frozen=True)
class SketchLayout:
    """Fixed geometric bin layout shared by every mergeable sketch.

    ``bins`` geometric buckets cover ``[lo, hi)``; one underflow cell
    (index 0) catches values at or below ``lo`` and one overflow cell
    (index ``bins + 1``) catches values at or above ``hi``, for
    ``cells == bins + 2`` total.  Two sketches merge only if their
    layouts are equal, which keeps the merged encoding unambiguous.
    """

    lo: float = 0.01
    hi: float = 1.0e7
    bins: int = 256

    def __post_init__(self) -> None:
        if not (0.0 < self.lo < self.hi):
            raise TelemetryError(
                f"sketch layout needs 0 < lo < hi, got [{self.lo}, {self.hi})")
        if self.bins < 1:
            raise TelemetryError(
                f"sketch layout needs at least one bin, got {self.bins}")

    @property
    def cells(self) -> int:
        """Total cell count: ``bins`` + underflow + overflow."""
        return self.bins + 2

    @property
    def gamma(self) -> float:
        """Geometric growth factor between consecutive bin edges."""
        return (self.hi / self.lo) ** (1.0 / self.bins)

    def bin_indices(self, values: np.ndarray) -> np.ndarray:
        """Vectorized cell index for each value (int64, same shape).

        NaNs land in the overflow cell (they compare false against
        ``<= lo``), keeping the total count conserved.
        """
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.floor(
                np.log(values / self.lo) / np.log(self.gamma)).astype(np.int64)
        idx = np.clip(raw + 1, 1, self.bins)
        idx = np.where(values <= self.lo, np.int64(0), idx)
        idx = np.where(values >= self.hi, np.int64(self.bins + 1), idx)
        return np.where(np.isnan(values), np.int64(self.bins + 1), idx)

    def upper_edges(self) -> np.ndarray:
        """Inclusive upper edge of every cell (overflow edge is +inf)."""
        edges = self.lo * self.gamma ** np.arange(self.bins + 1,
                                                  dtype=np.float64)
        edges[0] = self.lo
        return np.concatenate([edges, [np.inf]])


#: The canonical layout for millisecond delays: 256 bins over
#: [0.01 ms, 10^7 ms) give a ~8.4% relative rank-error bound.
DEFAULT_SKETCH_LAYOUT = SketchLayout()


class QuantileSketch:
    """A mergeable log-scale quantile sketch with integer-only state.

    The state is one ``int64`` vector of ``layout.cells`` counts; there
    is deliberately no floating-point sum, so every merge order and
    every shard grouping produces bit-identical state.
    """

    __slots__ = ("name", "layout", "_counts")

    def __init__(self, name: str,
                 layout: SketchLayout = DEFAULT_SKETCH_LAYOUT) -> None:
        self.name = name
        self.layout = layout
        self._counts = np.zeros(layout.cells, dtype=np.int64)

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one sample."""
        self._counts[int(self.layout.bin_indices(
            np.asarray([value]))[0])] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of samples with one vectorized pass."""
        values = np.asarray(list(values) if not isinstance(
            values, np.ndarray) else values, dtype=np.float64)
        if values.size == 0:
            return
        self._counts += np.bincount(
            self.layout.bin_indices(values.ravel()),
            minlength=self.layout.cells).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of samples observed."""
        return int(self._counts.sum())

    def cell_counts(self) -> np.ndarray:
        """Copy of the per-cell counts (underflow first, overflow last)."""
        return self._counts.copy()

    def state_bytes(self) -> bytes:
        """Canonical byte encoding of the state (bit-identity tests)."""
        return self._counts.tobytes()

    def quantile(self, q: float) -> float:
        """Upper edge of the cell holding rank ``ceil(q * count)``.

        Returns 0.0 when empty and ``inf`` when the rank lands in the
        overflow cell.
        """
        if not (0.0 <= q <= 1.0):
            raise TelemetryError(f"quantile {q} outside [0, 1]")
        total = self._counts.sum()
        if total == 0:
            return 0.0
        rank = max(1, int(np.ceil(q * total)))
        cell = int(np.searchsorted(np.cumsum(self._counts), rank))
        return float(self.layout.upper_edges()[cell])

    def quantiles(self, qs: Sequence[float]) -> list[float]:
        """Batch :meth:`quantile`."""
        return [self.quantile(q) for q in qs]

    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch | np.ndarray | Sequence[int]",
              ) -> None:
        """Fold another sketch (or its cell counts) into this one."""
        if isinstance(other, QuantileSketch):
            if other.layout != self.layout:
                raise TelemetryError(
                    f"sketch {self.name!r} cannot merge layout "
                    f"{other.layout} into {self.layout}")
            counts = other._counts
        else:
            counts = np.asarray(other, dtype=np.int64)
        if counts.shape != self._counts.shape:
            raise TelemetryError(
                f"sketch {self.name!r} cannot merge {counts.shape[0]} "
                f"cells into {self._counts.shape[0]}")
        self._counts += counts

    def reset(self) -> None:
        """Forget all samples."""
        self._counts[:] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QuantileSketch({self.name!r}, count={self.count})"


# ----------------------------------------------------------------------
# Segmented (group-indexed) sketch columns for the SoA path
# ----------------------------------------------------------------------
def segment_log_histogram(
    group_ids: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    layout: SketchLayout = DEFAULT_SKETCH_LAYOUT,
) -> np.ndarray:
    """Per-group sketch rows from flat ``(group_id, value)`` samples.

    One ``np.bincount`` over the flattened key ``group * cells + cell``
    produces the full ``(n_groups, cells)`` int64 matrix — the
    segmented reduction that keeps per-tenant delay accounting off the
    per-peer-group Python path.  Rows merge across shards by addition.
    """
    group_ids = np.asarray(group_ids, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    cells = layout.cells
    if group_ids.size == 0:
        return np.zeros((n_groups, cells), dtype=np.int64)
    flat = group_ids * cells + layout.bin_indices(values)
    return np.bincount(
        flat, minlength=n_groups * cells).astype(np.int64).reshape(
            n_groups, cells)


def sketch_quantiles(
    rows: np.ndarray,
    q: float,
    layout: SketchLayout = DEFAULT_SKETCH_LAYOUT,
) -> np.ndarray:
    """Vectorized per-row :meth:`QuantileSketch.quantile`.

    ``rows`` is a ``(n_groups, cells)`` count matrix; the result is one
    float per row (0.0 for empty rows, ``inf`` when the rank falls in
    the overflow cell).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != layout.cells:
        raise TelemetryError(
            f"sketch rows must be (n, {layout.cells}), got {rows.shape}")
    totals = rows.sum(axis=1)
    ranks = np.maximum(1, np.ceil(q * totals).astype(np.int64))
    cum = np.cumsum(rows, axis=1)
    cells = np.minimum((cum < ranks[:, None]).sum(axis=1),
                       layout.cells - 1)
    out = layout.upper_edges()[cells]
    return np.where(totals == 0, 0.0, out)
