"""Dense array stores for peers and overlay adjacency.

Three containers, increasing in rigidity:

* :class:`PeerArrays` — per-peer attribute columns (capacity,
  coordinates, alive flag).  Rows are append-only: a freed row is never
  handed out again, so an index observed anywhere in the system can
  never silently start referring to a different peer.
* :class:`DynamicAdjacency` — mutable neighbor lists held in one pooled
  ``int64`` array with per-row ``(start, length, capacity)`` columns.
  Insertion order is preserved on add and remove, which is what lets
  the compatibility view replay object-layer iteration orders exactly.
* :class:`CSRGraph` — a frozen compressed-sparse-row snapshot for the
  vectorized protocol kernels (:mod:`repro.core.protocol`); built in
  one shot from edge arrays or compacted out of a live adjacency.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import OverlayError

#: Pool slots freed by row relocation are tombstoned with this value.
_TOMBSTONE = np.int64(-1)


class PeerArrays:
    """Struct-of-arrays peer attribute table with alias-free rows."""

    __slots__ = ("capacity", "coords", "alive", "_count", "_dims")

    def __init__(self, dims: int = 2, initial: int = 16) -> None:
        if dims < 1:
            raise OverlayError("coordinate dimensionality must be >= 1")
        initial = max(int(initial), 1)
        self._dims = dims
        self._count = 0
        self.capacity = np.zeros(initial, dtype=np.float64)
        self.coords = np.zeros((initial, dims), dtype=np.float64)
        self.alive = np.zeros(initial, dtype=bool)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def dims(self) -> int:
        """Coordinate dimensionality."""
        return self._dims

    @property
    def live_count(self) -> int:
        """Number of rows whose peer is currently alive."""
        return int(np.count_nonzero(self.alive[: self._count]))

    def _grow_to(self, needed: int) -> None:
        current = self.capacity.shape[0]
        if needed <= current:
            return
        new = max(needed, current * 2)
        for name in ("capacity", "alive"):
            old = getattr(self, name)
            fresh = np.zeros(new, dtype=old.dtype)
            fresh[: self._count] = old[: self._count]
            setattr(self, name, fresh)
        coords = np.zeros((new, self._dims), dtype=np.float64)
        coords[: self._count] = self.coords[: self._count]
        self.coords = coords

    def add(self, capacity: float, coordinate: np.ndarray) -> int:
        """Append one peer; returns its permanent row index."""
        if capacity <= 0.0:
            raise OverlayError("capacity must be positive")
        index = self._count
        self._grow_to(index + 1)
        self.capacity[index] = capacity
        self.coords[index] = np.asarray(coordinate, dtype=np.float64)
        self.alive[index] = True
        self._count = index + 1
        return index

    def mark_dead(self, index: int) -> None:
        """Retire a row; it is never reallocated to another peer."""
        if not 0 <= index < self._count:
            raise OverlayError(f"row {index} out of range")
        self.alive[index] = False

    def nbytes(self) -> int:
        """Total bytes held by the attribute columns."""
        return (self.capacity.nbytes + self.coords.nbytes
                + self.alive.nbytes)


class DynamicAdjacency:
    """Pooled, order-preserving neighbor lists.

    One flat ``int64`` pool holds every row's neighbor slice; per-row
    ``start``/``length``/``room`` columns describe the slices.  A row
    that outgrows its slice is relocated to the pool tail with doubled
    room (classic amortized growth); the vacated slot is tombstoned and
    reclaimed by :meth:`compact` (which :meth:`to_csr` performs
    implicitly into the snapshot).  Removal shifts the slice left, so
    both add and remove preserve relative neighbor order.
    """

    __slots__ = ("_pool", "_pool_used", "start", "length", "room",
                 "_rows", "_directed_entries")

    def __init__(self, initial_rows: int = 16,
                 initial_pool: int = 64) -> None:
        self._pool = np.full(max(int(initial_pool), 8), _TOMBSTONE,
                             dtype=np.int64)
        self._pool_used = 0
        rows = max(int(initial_rows), 1)
        self.start = np.zeros(rows, dtype=np.int64)
        self.length = np.zeros(rows, dtype=np.int32)
        self.room = np.zeros(rows, dtype=np.int32)
        self._rows = 0
        self._directed_entries = 0

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of adjacency rows (one per peer slot)."""
        return self._rows

    @property
    def edge_count(self) -> int:
        """Number of undirected edges (each stored twice)."""
        return self._directed_entries // 2

    def add_row(self) -> int:
        """Allocate one empty adjacency row; returns its index."""
        index = self._rows
        if index >= self.start.shape[0]:
            new = max(index + 1, self.start.shape[0] * 2)
            for name, dtype in (("start", np.int64), ("length", np.int32),
                                ("room", np.int32)):
                old = getattr(self, name)
                fresh = np.zeros(new, dtype=dtype)
                fresh[: index] = old[: index]
                setattr(self, name, fresh)
        self.start[index] = self._pool_used
        self.length[index] = 0
        self.room[index] = 0
        self._rows = index + 1
        return index

    def _pool_reserve(self, extra: int) -> None:
        needed = self._pool_used + extra
        if needed <= self._pool.shape[0]:
            return
        new = max(needed, self._pool.shape[0] * 2)
        fresh = np.full(new, _TOMBSTONE, dtype=np.int64)
        fresh[: self._pool_used] = self._pool[: self._pool_used]
        self._pool = fresh

    def neighbors(self, row: int) -> np.ndarray:
        """Read-only view of a row's neighbor slice (insertion order)."""
        self._require(row)
        start = self.start[row]
        view = self._pool[start: start + self.length[row]]
        view.flags.writeable = False
        return view

    def contains(self, row: int, value: int) -> bool:
        """True if ``value`` is in the row's neighbor list."""
        self._require(row)
        start = self.start[row]
        return bool(
            (self._pool[start: start + self.length[row]] == value).any())

    def add(self, row: int, value: int) -> bool:
        """Append ``value`` to the row; False if already present."""
        self._require(row)
        if self.contains(row, value):
            return False
        used, room = int(self.length[row]), int(self.room[row])
        if used == room:
            new_room = max(4, room * 2)
            self._pool_reserve(new_room)
            new_start = self._pool_used
            old_start = int(self.start[row])
            self._pool[new_start: new_start + used] = \
                self._pool[old_start: old_start + used]
            self._pool[old_start: old_start + used] = _TOMBSTONE
            self.start[row] = new_start
            self.room[row] = new_room
            self._pool_used = new_start + new_room
        self._pool[self.start[row] + used] = value
        self.length[row] = used + 1
        self._directed_entries += 1
        return True

    def remove(self, row: int, value: int) -> bool:
        """Remove ``value`` keeping the remaining order; False if absent."""
        self._require(row)
        start, used = int(self.start[row]), int(self.length[row])
        slot = self._pool[start: start + used]
        hits = np.nonzero(slot == value)[0]
        if hits.size == 0:
            return False
        position = int(hits[0])
        slot[position: used - 1] = slot[position + 1: used]
        slot[used - 1] = _TOMBSTONE
        self.length[row] = used - 1
        self._directed_entries -= 1
        return True

    def clear_row(self, row: int) -> np.ndarray:
        """Empty a row; returns a copy of its former neighbor list."""
        self._require(row)
        former = self.neighbors(row).copy()
        start = int(self.start[row])
        self._pool[start: start + int(self.length[row])] = _TOMBSTONE
        self._directed_entries -= int(self.length[row])
        self.length[row] = 0
        return former

    def degree(self, row: int) -> int:
        """Neighbor count of a row."""
        self._require(row)
        return int(self.length[row])

    def degrees(self) -> np.ndarray:
        """Neighbor count of every row."""
        return self.length[: self._rows].astype(np.int64)

    def compact(self) -> None:
        """Rewrite the pool with zero slack, reclaiming tombstones."""
        lengths = self.length[: self._rows].astype(np.int64)
        new_start = np.zeros(self._rows, dtype=np.int64)
        if self._rows:
            np.cumsum(lengths[:-1], out=new_start[1:])
        total = int(lengths.sum())
        fresh = np.full(max(total, 8), _TOMBSTONE, dtype=np.int64)
        for row in range(self._rows):
            used = int(lengths[row])
            old = int(self.start[row])
            fresh[new_start[row]: new_start[row] + used] = \
                self._pool[old: old + used]
        self._pool = fresh
        self.start[: self._rows] = new_start
        self.room[: self._rows] = self.length[: self._rows]
        self._pool_used = total

    def to_csr(self, index_dtype=np.int64) -> "CSRGraph":
        """Frozen CSR snapshot (neighbor order preserved)."""
        lengths = self.length[: self._rows].astype(np.int64)
        indptr = np.zeros(self._rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=index_dtype)
        for row in range(self._rows):
            used = int(lengths[row])
            start = int(self.start[row])
            indices[indptr[row]: indptr[row + 1]] = \
                self._pool[start: start + used]
        return CSRGraph(indptr, indices)

    def nbytes(self) -> int:
        """Total bytes held by the pool and the row columns."""
        return (self._pool.nbytes + self.start.nbytes
                + self.length.nbytes + self.room.nbytes)

    def _require(self, row: int) -> None:
        if not 0 <= row < self._rows:
            raise OverlayError(f"adjacency row {row} out of range")


class CSRGraph:
    """Immutable compressed-sparse-row adjacency snapshot."""

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise OverlayError("indptr and indices must be 1-D")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise OverlayError("indptr does not describe indices")
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, node_count: int, sources: Sequence[int],
                   targets: Sequence[int],
                   index_dtype=np.int64) -> "CSRGraph":
        """Build an undirected CSR from edge endpoint arrays.

        Each undirected edge appears once in the inputs and twice in the
        snapshot; a node's neighbors come out in global edge-input order
        (stable counting sort), so identical edge arrays always yield an
        identical snapshot.
        """
        u = np.asarray(sources, dtype=np.int64)
        v = np.asarray(targets, dtype=np.int64)
        if u.shape != v.shape:
            raise OverlayError("edge endpoint arrays disagree in shape")
        if u.size and (u.min() < 0 or v.min() < 0
                       or max(u.max(), v.max()) >= node_count):
            raise OverlayError("edge endpoint out of range")
        if (u == v).any():
            raise OverlayError("self-links are not allowed")
        heads = np.concatenate([u, v])
        tails = np.concatenate([v, u])
        counts = np.bincount(heads, minlength=node_count)
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(heads, kind="stable")
        indices = tails[order].astype(index_dtype)
        return cls(indptr, indices)

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of adjacency rows."""
        return self.indptr.shape[0] - 1

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self.indices.shape[0] // 2

    def neighbors(self, row: int) -> np.ndarray:
        """Read-only neighbor slice of one row."""
        return self.indices[self.indptr[row]: self.indptr[row + 1]]

    def degrees(self) -> np.ndarray:
        """Neighbor count of every row."""
        return np.diff(self.indptr)

    def edge_sources(self) -> np.ndarray:
        """Row owning each entry of ``indices`` (repeat-expanded)."""
        return np.repeat(np.arange(self.node_count, dtype=np.int64),
                         np.diff(self.indptr))

    # ------------------------------------------------------------------
    def bfs_hops(self, roots: Sequence[int],
                 mask: np.ndarray | None = None) -> np.ndarray:
        """Vectorized multi-source BFS hop counts (-1 = unreachable).

        ``mask`` (bool per row) restricts traversal to True rows; roots
        outside the mask are ignored.
        """
        n = self.node_count
        hops = np.full(n, -1, dtype=np.int64)
        roots = np.asarray(roots, dtype=np.int64)
        if mask is not None:
            roots = roots[mask[roots]]
        if roots.size == 0:
            return hops
        hops[roots] = 0
        frontier = roots
        level = 0
        while frontier.size:
            level += 1
            counts = np.diff(self.indptr)[frontier]
            targets = self.indices[_concat_ranges(
                self.indptr[frontier], counts)]
            fresh = targets[hops[targets] < 0]
            if mask is not None:
                fresh = fresh[mask[fresh]]
            if fresh.size == 0:
                break
            fresh = np.unique(fresh)
            hops[fresh] = level
            frontier = fresh
        return hops

    def component_sizes(self,
                        mask: np.ndarray | None = None) -> list[int]:
        """Connected component sizes, largest first."""
        n = self.node_count
        seen = np.zeros(n, dtype=bool)
        if mask is not None:
            seen[~mask] = True
        sizes: list[int] = []
        while True:
            remaining = np.nonzero(~seen)[0]
            if remaining.size == 0:
                break
            hops = self.bfs_hops([int(remaining[0])], mask=mask)
            component = hops >= 0
            sizes.append(int(np.count_nonzero(component)))
            seen |= component
        sizes.sort(reverse=True)
        return sizes

    def nbytes(self) -> int:
        """Total bytes held by the snapshot."""
        return self.indptr.nbytes + self.indices.nbytes


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Vectorized ``concatenate([arange(s, s+c) for s, c in ...])``."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    nonzero = counts > 0
    starts, counts = starts[nonzero], counts[nonzero]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # One cumsum over unit steps, with a corrective jump at each range
    # boundary, expands every (start, count) range without a Python loop.
    ends = np.cumsum(counts)
    flat = np.ones(total, dtype=np.int64)
    flat[0] = starts[0]
    flat[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(flat)
