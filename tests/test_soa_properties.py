"""Hypothesis properties of the struct-of-arrays core.

Three invariants pin the scale layer against random churn scripts:

* **Index stability** — store rows are append-only and never reused, so
  a stale row index can never silently alias a different peer (the
  lifecycle contract every vectorized kernel relies on);
* **CSR fidelity** — array snapshots (:meth:`OverlayNetwork.csr` and
  the pooled :class:`SoAStore` adjacency) always round-trip the object
  graph's structure, neighbor order included, under arbitrary mutation
  sequences;
* **Tree repair** — :meth:`TreeArrays.repair_dangling` terminates with
  no on-tree row hanging off a dead or detached upstream;
* **Column fidelity** — ``peer_columns`` on either container gathers
  exactly what ``peer()`` reports, through removals and re-adds of the
  same id (the object container reuses rows, the store retires them).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.arrays import DynamicAdjacency
from repro.core.overlay_view import SoAOverlayNetwork
from repro.core.store import SoAStore, TreeArrays
from repro.errors import OverlayError, PeerNotFoundError
from repro.overlay.graph import OverlayNetwork
from repro.peers.peer import PeerInfo

# One churn step: an opcode plus two free integers the interpreter
# maps onto current peers.  Invalid picks (self-links, absent peers)
# degrade to no-ops so every script is executable.
_STEP = st.tuples(
    st.sampled_from(["join", "leave", "link", "unlink", "rejoin"]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**16),
)


def _info(peer_id: int) -> PeerInfo:
    coord = np.asarray(
        [float(peer_id % 7), float(peer_id % 11)], dtype=np.float64)
    return PeerInfo(peer_id, float(1 + peer_id % 5), coord)


class _ChurnInterpreter:
    """Replays one script against an object graph and an array view."""

    def __init__(self) -> None:
        self.overlay = OverlayNetwork()
        self.view = SoAOverlayNetwork()
        self.next_id = 0
        self.departed: list[int] = []

    def _pick(self, token: int) -> int | None:
        ids = self.overlay.peer_ids()
        if not ids:
            return None
        return ids[token % len(ids)]

    def apply(self, op: str, a: int, b: int) -> None:
        if op == "join":
            info = _info(self.next_id)
            self.next_id += 1
            self.overlay.add_peer(info)
            self.view.add_peer(info)
            anchor = self._pick(a)
            if anchor is not None and anchor != info.peer_id:
                self.overlay.add_link(info.peer_id, anchor)
                self.view.add_link(info.peer_id, anchor)
        elif op == "rejoin" and self.departed:
            peer_id = self.departed.pop(a % len(self.departed))
            info = _info(peer_id)
            self.overlay.add_peer(info)
            self.view.add_peer(info)
        elif op == "leave":
            victim = self._pick(a)
            if victim is not None:
                self.overlay.remove_peer(victim)
                self.view.remove_peer(victim)
                self.departed.append(victim)
        elif op in ("link", "unlink"):
            x, y = self._pick(a), self._pick(b)
            if x is None or y is None or x == y:
                return
            if op == "link":
                assert (self.overlay.add_link(x, y)
                        == self.view.add_link(x, y))
            else:
                assert (self.overlay.remove_link(x, y)
                        == self.view.remove_link(x, y))


@settings(max_examples=60, deadline=None)
@given(script=st.lists(_STEP, min_size=1, max_size=50))
def test_view_tracks_object_graph_under_churn(script):
    """Structure equality after every churn script (order included for
    peers added through the view itself; set equality for neighbors,
    whose insertion interleaving legitimately differs on re-links)."""
    sim = _ChurnInterpreter()
    for op, a, b in script:
        sim.apply(op, a, b)
    overlay, view = sim.overlay, sim.view
    assert view.peer_ids() == overlay.peer_ids()
    assert view.edge_count == overlay.edge_count
    for peer in overlay.peer_ids():
        assert set(view.neighbors(peer)) == set(overlay.neighbors(peer))
        assert view.degree(peer) == overlay.degree(peer)
    assert (view.connected_component_sizes()
            == overlay.connected_component_sizes())


@settings(max_examples=60, deadline=None)
@given(script=st.lists(_STEP, min_size=1, max_size=50))
def test_rows_are_never_reused_under_churn(script):
    """No slot aliasing: every (id, incarnation) owns a distinct row,
    departures retire rows forever, and re-joins get fresh rows while
    the retired row still carries the dead incarnation's attributes."""
    sim = _ChurnInterpreter()
    store: SoAStore = sim.view.store
    seen_rows: set[int] = set()
    row_history: list[tuple[int, int]] = []
    live_row: dict[int, int] = {}
    for op, a, b in script:
        before = set(live_row)
        sim.apply(op, a, b)
        after = set(store._live)
        for peer_id in after - before:
            row = store.row_of(peer_id)
            assert row not in seen_rows, "row reused across incarnations"
            seen_rows.add(row)
            row_history.append((peer_id, row))
            live_row[peer_id] = row
        for peer_id in before - after:
            del live_row[peer_id]
    assert store.row_count == len(seen_rows)
    assert len(store._id_of) == store.row_count
    alive = store.live_mask()
    for peer_id, row in row_history:
        # Permanent reverse mapping survives departure...
        assert store.id_of(row) == peer_id
        # ...and liveness of the row matches liveness of the peer only
        # for the *latest* incarnation; earlier rows must read dead.
        if peer_id in store._live and store._live[peer_id] == row:
            assert alive[row]
        else:
            assert not alive[row]
    # Live table agrees with the overlay the interpreter maintained.
    assert store.live_ids() == sim.overlay.peer_ids()


@settings(max_examples=60, deadline=None)
@given(script=st.lists(_STEP, min_size=1, max_size=50))
def test_csr_snapshots_round_trip(script):
    """Both CSR exports reproduce the graph they snapshot, row slices
    in the exact neighbor order the source reported."""
    sim = _ChurnInterpreter()
    for op, a, b in script:
        sim.apply(op, a, b)
    overlay = sim.overlay
    csr, ids = overlay.csr()
    assert csr.node_count == len(ids)
    for row, peer_id in enumerate(ids):
        slice_ids = [ids[int(r)] for r in csr.neighbors(row)]
        assert slice_ids == overlay.neighbors(peer_id)
    # The pooled store snapshot covers retired rows too; live rows must
    # match and retired rows must be empty.
    store = sim.view.store
    pooled = store.snapshot_csr()
    assert pooled.node_count == store.row_count
    live_rows = set(int(r) for r in store.live_rows())
    for row in range(pooled.node_count):
        neighbors = [int(r) for r in pooled.neighbors(row)]
        if row in live_rows:
            peer_id = store.id_of(row)
            assert (store.ids_of(np.asarray(neighbors, dtype=np.int64))
                    == sim.view.neighbors(peer_id))
        else:
            assert neighbors == []


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=24),
    parent_seed=st.integers(min_value=0, max_value=2**32 - 1),
    dead=st.sets(st.integers(min_value=1, max_value=23)),
)
def test_repair_dangling_leaves_no_dangling_rows(rows, parent_seed, dead):
    """After repair, every on-tree row's upstream is alive and on-tree,
    the whole structure still validates, and only detached rows lost
    their flags."""
    rng = np.random.default_rng(parent_seed)
    tree = TreeArrays(rows, root=0)
    for row in range(1, rows):
        if rng.random() < 0.8:
            tree.attach(row, int(rng.integers(0, row)))
    alive = np.ones(rows, dtype=bool)
    for row in dead:
        if row < rows:
            alive[row] = False
    before_on_tree = tree.on_tree.copy()
    detached = tree.repair_dangling(alive)
    assert tree.dangling_rows(alive).size == 0
    tree.validate()
    # Detached rows were on the tree before and are fully cleared now.
    assert before_on_tree[detached].all()
    assert not tree.on_tree[detached].any()
    assert (tree.parent[detached] == -1).all()
    # Surviving non-root rows hang off live, on-tree parents.
    survivors = np.nonzero(tree.on_tree)[0]
    survivors = survivors[survivors != tree.root]
    parents = tree.parent[survivors]
    assert (parents >= 0).all()
    assert alive[parents].all()
    assert tree.on_tree[parents].all()


@settings(max_examples=40, deadline=None)
@given(script=st.lists(_STEP, min_size=1, max_size=40),
       compact_at=st.integers(min_value=0, max_value=39))
def test_adjacency_compact_preserves_structure(script, compact_at):
    """`DynamicAdjacency.compact` may run at any point in a churn script
    without disturbing neighbor slices (order included)."""
    sim = _ChurnInterpreter()
    adjacency: DynamicAdjacency = sim.view.store.adjacency
    for step, (op, a, b) in enumerate(script):
        sim.apply(op, a, b)
        if step == compact_at:
            snapshot = {
                row: [int(x) for x in adjacency.neighbors(row)]
                for row in range(sim.view.store.row_count)}
            adjacency.compact()
            for row, expected in snapshot.items():
                assert ([int(x) for x in adjacency.neighbors(row)]
                        == expected)
    for peer in sim.overlay.peer_ids():
        assert set(sim.view.neighbors(peer)) == set(
            sim.overlay.neighbors(peer))


def test_double_join_is_rejected_by_both_backends():
    sim = _ChurnInterpreter()
    sim.apply("join", 0, 0)
    info = _info(0)
    for backend in (sim.overlay, sim.view):
        try:
            backend.add_peer(info)
        except OverlayError:
            continue
        raise AssertionError("duplicate join must raise")


class PeerColumnsMachine(RuleBasedStateMachine):
    """add / remove / re-add the same ids on both containers; every
    incarnation of an id carries different attributes, so a gather that
    reads a stale or recycled row shows up as a wrong value."""

    ids = st.integers(min_value=0, max_value=11)

    def __init__(self) -> None:
        super().__init__()
        self.backends = [OverlayNetwork(), SoAOverlayNetwork(dims=3)]
        self.live: dict[int, PeerInfo] = {}
        self.removed: set[int] = set()
        self.incarnations = 0

    @rule(peer_id=ids)
    def add_peer(self, peer_id):
        if peer_id in self.live:
            return
        self.incarnations += 1
        info = PeerInfo(
            peer_id, float(self.incarnations),
            np.asarray([peer_id, self.incarnations, -0.5 * peer_id]))
        for backend in self.backends:
            backend.add_peer(info)
        self.live[peer_id] = info
        self.removed.discard(peer_id)

    @rule(peer_id=ids)
    def remove_peer(self, peer_id):
        if peer_id not in self.live:
            return
        for backend in self.backends:
            backend.remove_peer(peer_id)
        del self.live[peer_id]
        self.removed.add(peer_id)

    @invariant()
    def columns_equal_peer_metadata(self):
        # Reversed insertion order with one id repeated: the gather is
        # positional, not a set.
        wanted = list(reversed(self.live))
        wanted += wanted[:1]
        for backend in self.backends:
            capacity, coords = backend.peer_columns(wanted)
            assert capacity.shape == (len(wanted),)
            assert coords.shape[0] == len(wanted)
            for row, peer_id in enumerate(wanted):
                info = backend.peer(peer_id)
                assert info == self.live[peer_id]
                assert capacity[row] == info.capacity
                assert np.array_equal(coords[row], info.coordinate)
            for peer_id in self.removed:
                with pytest.raises(PeerNotFoundError):
                    backend.peer_columns(wanted + [peer_id])

    @invariant()
    def gathered_columns_are_copies(self):
        if not self.live:
            return
        peer_id = next(iter(self.live))
        for backend in self.backends:
            capacity, coords = backend.peer_columns([peer_id])
            capacity[:] = -1.0
            coords[:] = np.nan
            assert backend.peer_columns([peer_id])[0][0] \
                == self.live[peer_id].capacity


TestPeerColumns = PeerColumnsMachine.TestCase
TestPeerColumns.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
