"""Combined struct-of-arrays store: peers + adjacency + tree columns.

:class:`SoAStore` is the single owner of the dense state: peer
attribute columns (:class:`~repro.core.arrays.PeerArrays`), mutable
overlay adjacency (:class:`~repro.core.arrays.DynamicAdjacency`) and
one :class:`TreeArrays` column group per communication group.  External
peer ids map to internal row indices through an insertion-ordered table;
rows are never reused (see the package docstring for the lifecycle
contract).
"""

from __future__ import annotations

import numpy as np

from ..errors import OverlayError, PeerNotFoundError, TreeError
from .arrays import CSRGraph, DynamicAdjacency, PeerArrays


class TreeArrays:
    """Per-group session/tree membership columns over store rows.

    ``parent[i]`` is the row index of ``i``'s upstream (-1 for the root
    and detached rows); ``on_tree``/``is_member``/``has_ad`` mirror the
    per-peer protocol flags of the object layer.  All methods are
    vectorized over the full column length.
    """

    __slots__ = ("parent", "on_tree", "is_member", "has_ad", "root")

    def __init__(self, rows: int, root: int = -1) -> None:
        self.parent = np.full(rows, -1, dtype=np.int64)
        self.on_tree = np.zeros(rows, dtype=bool)
        self.is_member = np.zeros(rows, dtype=bool)
        self.has_ad = np.zeros(rows, dtype=bool)
        self.root = root
        if root >= 0:
            self.on_tree[root] = True
            self.is_member[root] = True
            self.has_ad[root] = True

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Column length (store rows covered)."""
        return self.parent.shape[0]

    def grow_to(self, rows: int) -> None:
        """Extend the columns to cover ``rows`` store rows."""
        current = self.rows
        if rows <= current:
            return
        parent = np.full(rows, -1, dtype=np.int64)
        parent[:current] = self.parent
        self.parent = parent
        for name in ("on_tree", "is_member", "has_ad"):
            old = getattr(self, name)
            fresh = np.zeros(rows, dtype=bool)
            fresh[:current] = old
            setattr(self, name, fresh)

    # ------------------------------------------------------------------
    def attach(self, row: int, parent: int) -> None:
        """Put ``row`` on the tree under ``parent``."""
        if row == parent:
            raise TreeError("a node cannot be its own parent")
        self.parent[row] = parent
        self.on_tree[row] = True

    def detach_rows(self, rows: np.ndarray) -> None:
        """Take rows off the tree and clear their protocol flags."""
        self.parent[rows] = -1
        self.on_tree[rows] = False
        self.has_ad[rows] = False

    def child_counts(self) -> np.ndarray:
        """Tree fan-out per row (children whose parent pointer hits it)."""
        parents = self.parent[self.on_tree & (self.parent >= 0)]
        return np.bincount(parents, minlength=self.rows)

    def depths(self) -> np.ndarray:
        """Hop distance to the root per on-tree row; -1 off-tree or
        when the parent chain never reaches the root (dangling/cyclic).
        """
        depth = np.full(self.rows, -1, dtype=np.int64)
        if self.root < 0:
            return depth
        depth[self.root] = 0
        pending = self.on_tree & (depth < 0)
        # Each sweep resolves one more tree level; a chain that never
        # meets a resolved node (orphan loop) stays at -1.
        for _ in range(self.rows):
            if not pending.any():
                break
            rows = np.nonzero(pending)[0]
            parents = self.parent[rows]
            valid = parents >= 0
            rows, parents = rows[valid], parents[valid]
            ready = depth[parents] >= 0
            if not ready.any():
                break
            depth[rows[ready]] = depth[parents[ready]] + 1
            pending[rows[ready]] = False
            pending &= self.on_tree
        return depth

    def dangling_rows(self, alive: np.ndarray) -> np.ndarray:
        """On-tree rows whose upstream is dead, absent or off-tree."""
        rows = np.nonzero(self.on_tree)[0]
        rows = rows[rows != self.root]
        parents = self.parent[rows]
        no_parent = parents < 0
        bad = np.zeros(rows.shape[0], dtype=bool)
        bad |= no_parent
        with_parent = ~no_parent
        p = parents[with_parent]
        bad[with_parent] = (~alive[p]) | (~self.on_tree[p])
        return rows[bad]

    def repair_dangling(self, alive: np.ndarray) -> np.ndarray:
        """Detach every dangling branch until no dangling rows remain.

        Returns the rows that were detached.  After this call no
        on-tree row's parent chain passes through a dead or off-tree
        row — the array-level equivalent of the session layer's
        ``broken_upstream_peers`` sweep plus branch reset.
        """
        detached: list[np.ndarray] = []
        for _ in range(self.rows):
            dangling = self.dangling_rows(alive)
            if dangling.size == 0:
                break
            self.detach_rows(dangling)
            detached.append(dangling)
        if not detached:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(detached)

    def validate(self) -> None:
        """Assert the on-tree rows form one tree rooted at ``root``."""
        if self.root < 0:
            if self.on_tree.any():
                raise TreeError("on-tree rows but no root")
            return
        if not self.on_tree[self.root]:
            raise TreeError("root is off its own tree")
        if self.parent[self.root] != -1:
            raise TreeError("root must have no parent")
        depth = self.depths()
        broken = self.on_tree & (depth < 0)
        if broken.any():
            raise TreeError(
                f"{int(np.count_nonzero(broken))} on-tree rows do not "
                f"reach the root")

    def node_stress(self) -> float:
        """Average children count of non-leaf on-tree rows."""
        counts = self.child_counts()
        fanouts = counts[counts > 0]
        if fanouts.size == 0:
            return 0.0
        return float(fanouts.mean())

    def height(self) -> int:
        """Maximum on-tree depth."""
        depth = self.depths()
        on = depth[self.on_tree] if self.on_tree.any() else depth[:0]
        return int(on.max()) if on.size else 0

    def nbytes(self) -> int:
        """Total bytes held by the tree columns."""
        return (self.parent.nbytes + self.on_tree.nbytes
                + self.is_member.nbytes + self.has_ad.nbytes)


class SoAStore:
    """Peer rows, overlay adjacency and group trees in one place."""

    def __init__(self, dims: int = 2) -> None:
        self.peers = PeerArrays(dims=dims)
        self.adjacency = DynamicAdjacency()
        #: Insertion-ordered live table: external peer id -> row index.
        self._live: dict[int, int] = {}
        #: Row index -> external peer id (grows with the peer columns).
        self._id_of: list[int] = []
        self.trees: dict[int, TreeArrays] = {}

    # ------------------------------------------------------------------
    # Peer lifecycle
    # ------------------------------------------------------------------
    def add_peer(self, peer_id: int, capacity: float,
                 coordinate: np.ndarray) -> int:
        """Insert a peer under a *fresh* row; returns the row index.

        Re-adding an id that previously left also takes a fresh row —
        the old row stays retired, so stale indices keep pointing at
        the departed incarnation (no aliasing, ever).
        """
        if peer_id in self._live:
            raise OverlayError(f"peer {peer_id} already present")
        row = self.peers.add(capacity, coordinate)
        adjacency_row = self.adjacency.add_row()
        assert adjacency_row == row
        self._live[peer_id] = row
        self._id_of.append(peer_id)
        for tree in self.trees.values():
            tree.grow_to(row + 1)
        return row

    def remove_peer(self, peer_id: int) -> int:
        """Retire a peer's row and sever its links; returns the row."""
        row = self.row_of(peer_id)
        for neighbor in self.adjacency.clear_row(row):
            self.adjacency.remove(int(neighbor), row)
        self.peers.mark_dead(row)
        del self._live[peer_id]
        return row

    def row_of(self, peer_id: int) -> int:
        """Row index of a live peer."""
        row = self._live.get(peer_id)
        if row is None:
            raise PeerNotFoundError(
                f"peer {peer_id} is not in the overlay")
        return row

    def id_of(self, row: int) -> int:
        """External peer id that owns (or owned) a row."""
        return self._id_of[row]

    def ids_of(self, rows: np.ndarray) -> list[int]:
        """External ids of many rows."""
        return [self._id_of[int(row)] for row in rows]

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._live

    @property
    def live_count(self) -> int:
        """Number of live peers."""
        return len(self._live)

    @property
    def row_count(self) -> int:
        """Total rows ever allocated (live + retired)."""
        return len(self.peers)

    def live_ids(self) -> list[int]:
        """Live peer ids in insertion order."""
        return list(self._live)

    def live_rows(self) -> np.ndarray:
        """Row indices of live peers in insertion order."""
        return np.fromiter(self._live.values(), dtype=np.int64,
                           count=len(self._live))

    def live_mask(self) -> np.ndarray:
        """Boolean row mask of live peers."""
        return self.peers.alive[: self.row_count].copy()

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def add_link(self, a: int, b: int) -> bool:
        """Add the undirected link ``a-b``; False if it existed."""
        if a == b:
            raise OverlayError("self-links are not allowed")
        row_a, row_b = self.row_of(a), self.row_of(b)
        if not self.adjacency.add(row_a, row_b):
            return False
        self.adjacency.add(row_b, row_a)
        return True

    def remove_link(self, a: int, b: int) -> bool:
        """Remove the undirected link ``a-b``; False if absent."""
        row_a, row_b = self.row_of(a), self.row_of(b)
        if not self.adjacency.remove(row_a, row_b):
            return False
        self.adjacency.remove(row_b, row_a)
        return True

    def neighbor_rows(self, peer_id: int) -> np.ndarray:
        """Neighbor row indices of a live peer (insertion order)."""
        return self.adjacency.neighbors(self.row_of(peer_id))

    # ------------------------------------------------------------------
    # Trees
    # ------------------------------------------------------------------
    def tree(self, group_id: int, root_peer: int | None = None
             ) -> TreeArrays:
        """The tree columns of a group (created on first touch)."""
        tree = self.trees.get(group_id)
        if tree is None:
            root = -1 if root_peer is None else self.row_of(root_peer)
            tree = TreeArrays(self.row_count, root=root)
            self.trees[group_id] = tree
        elif root_peer is not None and tree.root < 0:
            tree.root = self.row_of(root_peer)
            tree.on_tree[tree.root] = True
            tree.is_member[tree.root] = True
        return tree

    # ------------------------------------------------------------------
    def snapshot_csr(self) -> CSRGraph:
        """Frozen CSR of the current adjacency (all rows)."""
        return self.adjacency.to_csr()

    def nbytes(self) -> int:
        """Bytes held by all columns (peers + adjacency + trees)."""
        return (self.peers.nbytes() + self.adjacency.nbytes()
                + sum(tree.nbytes() for tree in self.trees.values()))
