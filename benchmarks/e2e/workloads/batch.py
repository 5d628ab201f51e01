"""Workloads 5 and 6: the batched multi-group kernels over a snapshot of
a real GroupCast overlay, NSSA (pure numpy) and SSA (per-group Python
edge sampling)."""

from __future__ import annotations

import numpy as np

from repro.core import (
    SoAOverlayNetwork,
    climb_subscriptions_batch,
    edge_latencies_from_coords,
    flood_advertisements_batch,
    run_group_pass,
    run_group_pass_loop,
    tree_delays_batch,
)
from repro.sim.random import spawn_rng
from repro.workloads.groups import sample_group_rows

from harness import (
    BenchmarkFailure,
    Outcome,
    Spans,
    Workload,
    build_world,
    digest_of,
    median,
    run_timeboxed,
    timed,
)

TTL = 8
#: Leading groups re-run through the per-group reference loop.
CHECKED_GROUPS = 10


class BatchPass(Workload):
    """One ``run_group_pass`` per unit; subclasses fix the scheme."""

    scheme = ""
    groups_full = 0
    groups_quick = 0
    work_unit = "peer-groups (peers x groups)"
    op_unit = "one run_group_pass over all groups"
    setup_reps = 2

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.peers = 300 if quick else 2000
        self.n_groups = self.groups_quick if quick else self.groups_full
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.result = None
        self.stage_bytes = 0
        self.nssa_flood_s: list[float] = []

    def setup(self) -> None:
        deployment = build_world(self.peers, self.seed)
        self.snapshot_s, _ = timed(self._snapshot, deployment.overlay)
        rng = spawn_rng(self.seed, "bench-batch", self.scheme)
        self.roots, self.member_rows, self.member_indptr = \
            sample_group_rows(rng, self.n_groups, self.csr.node_count,
                              max_size=64)

    def _snapshot(self, overlay) -> None:
        view = SoAOverlayNetwork.from_overlay(overlay)
        self.csr = view.csr()
        rows = self.csr.node_count
        self.coords = np.ascontiguousarray(view.store.peers.coords[:rows])
        self.capacities = np.ascontiguousarray(
            view.store.peers.capacity[:rows])
        self.latency = edge_latencies_from_coords(self.csr, self.coords)
        self.bytes_per_peer = (view.nbytes() + self.csr.nbytes()
                               + self.latency.nbytes) / rows

    def _scheme_args(self) -> dict:
        if self.scheme == "ssa":
            return {"scheme": "ssa", "capacities": self.capacities,
                    "ssa_seed": self.seed}
        return {"scheme": "nssa"}

    def _pass(self):
        return run_group_pass(
            self.csr, self.latency, self.coords, self.roots,
            self.member_rows, self.member_indptr, ttl=TTL,
            **self._scheme_args())

    def warm_up(self) -> None:
        self._pass()

    def _check_against_loop(self, result) -> None:
        """The leading groups must match the per-group reference loop
        digest for digest; a raising loop fails all of them."""
        checked = min(CHECKED_GROUPS, self.n_groups)
        self.attempted += checked
        try:
            loop = run_group_pass_loop(
                self.csr, self.latency, self.coords, self.roots[:checked],
                self.member_rows[:self.member_indptr[checked]],
                self.member_indptr[:checked + 1], ttl=TTL,
                **self._scheme_args())
        except Exception as exc:  # any kernel error is the failure counted
            print(f"reference loop raised: {exc!r}")
            self.failed += checked
            return
        self.failed += int(
            (result.digests[:checked] != loop.digests).any(axis=1).sum())

    def _staged_pass(self, spans: Spans, result) -> float:
        """The pass as its three public kernels in sequence, each under
        a span; asserts the columns ``result`` reports.  Returns the
        staged wall seconds."""
        rngs = None
        if self.scheme == "ssa":
            rngs = [spawn_rng(self.seed, "multigroup", g)
                    for g in range(self.n_groups)]
        with spans.span("core.pass"):
            with spans.span("core.flood"):
                flood = flood_advertisements_batch(
                    self.csr, self.latency, self.roots, TTL, self.scheme,
                    capacities=self.capacities if rngs else None,
                    rngs=rngs)
            with spans.span("core.climb"):
                on_tree, is_member = climb_subscriptions_batch(
                    flood, self.member_rows, self.member_indptr)
            with spans.span("core.delays"):
                parent = np.where(on_tree, flood.upstream, -1)
                delays = tree_delays_batch(
                    parent, on_tree, coords=self.coords, roots=self.roots)
        staged_s = spans.durations("core.pass")[-1]
        members_on_tree = on_tree & is_member
        same = (
            np.array_equal(flood.receipt_counts(), result.receipts)
            and np.array_equal(on_tree.sum(axis=1), result.tree_nodes)
            and np.array_equal(members_on_tree.sum(axis=1),
                               result.members_on_tree)
            and np.array_equal(
                np.where(members_on_tree & np.isfinite(delays), delays,
                         0.0).sum(axis=1), result.delay_sum_ms))
        if not same:
            raise BenchmarkFailure(
                "staged kernels diverged from run_group_pass")
        self.stage_bytes = sum(a.nbytes for a in (
            flood.arrival, flood.upstream, flood.hops, on_tree,
            is_member, parent, delays))
        if self.scheme == "ssa":
            self.nssa_flood_s.append(timed(
                flood_advertisements_batch, self.csr, self.latency,
                self.roots, TTL, "nssa")[0])
        return staged_s

    def _unit(self, i: int, spans: Spans | None) -> None:
        wall, result = timed(self._pass)
        self.walls.append(wall)
        self.attempted += 1
        if self.result is None:
            self.result = result
            self._check_against_loop(result)
        elif result.merged_digest() != self.result.merged_digest():
            self.failed += 1  # a pass must reproduce the first one
        if spans is not None:
            self.plain_s += wall
            self.traced_s += self._staged_pass(spans, result)

    def run(self, seconds: float, spans: Spans | None) -> None:
        run_timeboxed(lambda i: self._unit(i, spans), seconds,
                      min_units=2)

    def outcome(self, spans: Spans | None) -> Outcome:
        summary = self.result.metrics()
        layers = {}
        if spans is not None:
            flood_s = median(spans.durations("core.flood"))
            climb_s = median(spans.durations("core.climb"))
            delays_s = median(spans.durations("core.delays"))
            layers = {
                "core.snapshot_s": self.snapshot_s,
                "core.bytes_per_peer": self.bytes_per_peer,
                "core.flood_s": flood_s,
                "core.climb_s": climb_s,
                "core.delays_s": delays_s,
                # What run_group_pass does beyond the three kernels:
                # per-group metric columns and sha256 digests.
                "core.reduce_s":
                    median(self.walls) - flood_s - climb_s - delays_s,
                "core.receipts_total": summary["receipts_total"],
                "core.bytes_per_group": self.stage_bytes / self.n_groups,
            }
            if self.scheme == "ssa":
                layers.update({
                    "core.ssa_flood_s": flood_s,
                    "core.ssa_over_nssa_flood_ratio":
                        flood_s / median(self.nssa_flood_s),
                    "core.ssa_members_on_tree_ratio":
                        summary["members_on_tree_total"]
                        / summary["members_total"],
                })
        return Outcome(
            attempted=self.attempted, failed=self.failed,
            work_per_s=self.peers * self.n_groups / median(self.walls),
            op_ms=[w * 1e3 for w in self.walls],
            digest=digest_of(summary), counts=summary, layers=layers,
            notes={"peers": self.peers, "groups": self.n_groups,
                   "passes": len(self.walls)})


class BatchNssa(BatchPass):
    scheme = "nssa"
    groups_full = 1000
    groups_quick = 100


class BatchSsa(BatchPass):
    scheme = "ssa"
    groups_full = 60
    groups_quick = 12
