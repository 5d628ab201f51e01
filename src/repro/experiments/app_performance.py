"""Figures 14-17: end-system multicast application performance.

For every overlay size and the four combinations of Section 4.3/4.4 —
{GroupCast utility-aware, random power-law} x {SSA, NSSA} — each overlay
hosts 10 communication groups (as in the paper's setup).  Per group a
payload is flooded from a random member and compared against the merged
shortest-path IP multicast tree:

* Figure 14: relative delay penalty;
* Figure 15: link stress;
* Figure 16: node stress (avg children of non-leaf tree nodes);
* Figure 17: overload index (fraction overloaded x avg excess workload),
  with per-peer workloads aggregated across the 10 trees.

The sweep decomposes into independent ``(size, topology)`` points
(:func:`_sweep_point`, which runs all four combos on that topology);
``jobs > 1`` fans the points out over a process pool and merges in point
order, so the tables are byte-identical for any worker count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.parallel import run_points
from ..metrics.tree_metrics import (
    aggregate_workloads,
    node_stress,
    overload_index,
)
from .common import (
    ExperimentResult,
    build_for_experiment,
    establish_and_measure_group,
    experiment_rng,
    group_member_count,
    pick_rendezvous_points,
    sweep_sizes,
)

GROUPS_PER_OVERLAY = 10

COMBOS = (
    ("groupcast", "ssa"),
    ("groupcast", "nssa"),
    ("plod", "ssa"),
    ("plod", "nssa"),
)


def _sweep_point(size: int, topology: int, seed: int,
                 groups_per_overlay: int) -> dict[tuple[str, str],
                                                  dict[str, float]]:
    """One (size, topology) sweep point: all four combos on one topology.

    Returns per-combo sample dicts of plain floats, so the result
    pickles cheaply across the worker pool (the group trees stay in the
    worker).
    """
    members_count = group_member_count(size)
    deployments = {
        kind: build_for_experiment(size, kind, seed + topology)
        for kind in ("groupcast", "plod")
    }
    out: dict[tuple[str, str], dict[str, float]] = {}
    for kind, scheme in COMBOS:
        deployment = deployments[kind]
        rng = experiment_rng(
            seed + topology, f"app-{kind}-{scheme}-{size}")
        rendezvous = pick_rendezvous_points(
            deployment, groups_per_overlay, rng)
        runs = []
        for point in rendezvous:
            ids = deployment.peer_ids()
            picks = rng.choice(len(ids), size=members_count,
                               replace=False)
            members = [ids[int(i)] for i in picks]
            runs.append(establish_and_measure_group(
                deployment, point, members, scheme, rng))
        trees = [r.tree for r in runs]
        capacities = {info.peer_id: info.capacity
                      for info in deployment.overlay.peers()}
        out[(kind, scheme)] = {
            "rdp": float(np.mean([r.delay_penalty for r in runs])),
            "stress": float(np.mean([r.link_stress for r in runs])),
            "node_stress": node_stress(trees),
            "overload": overload_index(
                aggregate_workloads(trees), capacities),
        }
    return out


def run(sizes: Sequence[int] | None = None, seed: int = 7,
        groups_per_overlay: int = GROUPS_PER_OVERLAY,
        topologies: int = 1, jobs: int = 1) -> dict[str, ExperimentResult]:
    """Run the sweep and return the four figures' tables.

    ``topologies`` averages every row over that many independently
    seeded IP topologies, mirroring the paper's repetition of each
    experiment over 10 GT-ITM instances.  ``jobs`` spreads the
    (size, topology) points over that many worker processes; the output
    is identical for every value.
    """
    sizes = sweep_sizes(sizes)
    fig14 = ExperimentResult(
        title="Figure 14: relative delay penalty",
        columns=("peers", "overlay", "scheme", "delay_penalty"),
    )
    fig15 = ExperimentResult(
        title="Figure 15: link stress",
        columns=("peers", "overlay", "scheme", "link_stress"),
    )
    fig16 = ExperimentResult(
        title="Figure 16: node stress",
        columns=("peers", "overlay", "scheme", "node_stress"),
    )
    fig17 = ExperimentResult(
        title="Figure 17: overload index",
        columns=("peers", "overlay", "scheme", "overload_index"),
    )

    points = [(size, topology)
              for size in sizes
              for topology in range(topologies)]
    results = run_points(
        _sweep_point,
        [(size, topology, seed, groups_per_overlay)
         for size, topology in points],
        jobs=jobs,
    )

    # Accumulators: (size, kind, scheme) -> per-topology sample lists.
    samples: dict[tuple[int, str, str], dict[str, list[float]]] = {}
    for (size, _), point_result in zip(points, results):
        for combo, values in point_result.items():
            kind, scheme = combo
            bucket = samples.setdefault(
                (size, kind, scheme),
                {"rdp": [], "stress": [], "node_stress": [],
                 "overload": []})
            for key, value in values.items():
                bucket[key].append(value)

    for size in sizes:
        for kind, scheme in COMBOS:
            bucket = samples[(size, kind, scheme)]
            fig14.add_row(size, kind, scheme,
                          float(np.mean(bucket["rdp"])))
            fig15.add_row(size, kind, scheme,
                          float(np.mean(bucket["stress"])))
            fig16.add_row(size, kind, scheme,
                          float(np.mean(bucket["node_stress"])))
            fig17.add_row(size, kind, scheme,
                          float(np.mean(bucket["overload"])))
    return {"fig14": fig14, "fig15": fig15, "fig16": fig16, "fig17": fig17}


def main() -> None:  # pragma: no cover - CLI glue
    for result in run().values():
        print(result.format_table())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
