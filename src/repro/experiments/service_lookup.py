"""Figures 11-13: service lookup efficiency.

For every overlay size in the sweep and both overlay kinds (GroupCast
utility-aware vs random power-law PLOD), 10 random rendezvous points each
initiate a service announcement with both schemes (SSA and NSSA).  A
member sample then subscribes — peers that received the announcement join
over the reverse path, the rest run the TTL-2 ripple search.

* Figure 11: total advertising + subscription messages per scheme;
* Figure 12: advertisement receiving rate and subscription success rate;
* Figure 13: service lookup latency (GroupCast vs random power-law, SSA).

The sweep decomposes into independent ``(size, kind, topology)`` points
(:func:`_sweep_point`), which ``jobs > 1`` fans out over a process pool;
results are merged in point order, so the tables are byte-identical for
any worker count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.parallel import run_points
from .common import (
    ExperimentResult,
    build_for_experiment,
    establish_and_measure_group,
    experiment_rng,
    group_member_count,
    pick_rendezvous_points,
    sweep_sizes,
)

RENDEZVOUS_POINTS = 10

SCHEMES = ("ssa", "nssa")


def _sweep_point(size: int, kind: str, topology: int, seed: int,
                 rendezvous_points: int) -> dict[str, list[tuple]]:
    """One (size, kind, topology) sweep point.

    Returns per-scheme lists of
    ``(advertising, subscription, search, receiving_rate, success_rate,
    lookup_latency_ms)`` tuples — plain floats, so the result pickles
    cheaply across the worker pool.
    """
    members_count = group_member_count(size)
    deployment = build_for_experiment(size, kind, seed + topology)
    rng = experiment_rng(seed + topology, f"lookup-{kind}-{size}")
    rendezvous = pick_rendezvous_points(
        deployment, rendezvous_points, rng)
    out: dict[str, list[tuple]] = {scheme: [] for scheme in SCHEMES}
    for scheme in SCHEMES:
        for point in rendezvous:
            ids = deployment.peer_ids()
            picks = rng.choice(len(ids), size=members_count,
                               replace=False)
            members = [ids[int(i)] for i in picks]
            run_ = establish_and_measure_group(
                deployment, point, members, scheme, rng)
            out[scheme].append((
                run_.advertisement_messages,
                run_.subscription_messages,
                run_.search_messages,
                run_.receiving_rate,
                run_.success_rate,
                run_.lookup_latency_ms,
            ))
    return out


def run(sizes: Sequence[int] | None = None, seed: int = 7,
        rendezvous_points: int = RENDEZVOUS_POINTS,
        topologies: int = 1, jobs: int = 1) -> dict[str, ExperimentResult]:
    """Run the sweep and return the three figures' tables.

    ``topologies`` repeats every configuration over that many
    independently seeded IP topologies and averages the rows, as in the
    paper's setup ("each experiment is repeated over 10 IP network
    topologies"); the default of 1 keeps the laptop sweep fast.
    ``jobs`` spreads the (size, kind, topology) points over that many
    worker processes; the output is identical for every value.
    """
    sizes = sweep_sizes(sizes)
    fig11 = ExperimentResult(
        title="Figure 11: service lookup messages",
        columns=("peers", "overlay", "scheme", "advertising_msgs",
                 "subscription_msgs", "search_msgs"),
    )
    fig12 = ExperimentResult(
        title="Figure 12: advertisement receiving / subscription success",
        columns=("peers", "overlay", "scheme", "receiving_rate",
                 "success_rate"),
    )
    fig13 = ExperimentResult(
        title="Figure 13: service lookup latency (SSA)",
        columns=("peers", "overlay", "lookup_latency_ms"),
    )

    points = [(size, kind, topology)
              for size in sizes
              for kind in ("groupcast", "plod")
              for topology in range(topologies)]
    results = run_points(
        _sweep_point,
        [(size, kind, topology, seed, rendezvous_points)
         for size, kind, topology in points],
        jobs=jobs,
    )

    merged: dict[tuple[int, str], dict[str, list[tuple]]] = {}
    for (size, kind, _), point_result in zip(points, results):
        bucket = merged.setdefault(
            (size, kind), {scheme: [] for scheme in SCHEMES})
        for scheme in SCHEMES:
            bucket[scheme].extend(point_result[scheme])

    for size in sizes:
        for kind in ("groupcast", "plod"):
            runs_by_scheme = merged[(size, kind)]
            for scheme in SCHEMES:
                runs = runs_by_scheme[scheme]
                fig11.add_row(
                    size, kind, scheme,
                    int(np.mean([r[0] for r in runs])),
                    int(np.mean([r[1] for r in runs])),
                    int(np.mean([r[2] for r in runs])),
                )
                fig12.add_row(
                    size, kind, scheme,
                    float(np.mean([r[3] for r in runs])),
                    float(np.mean([r[4] for r in runs])),
                )
                if scheme == "ssa":
                    latencies = [r[5] for r in runs if r[5] > 0]
                    fig13.add_row(
                        size, kind,
                        float(np.mean(latencies)) if latencies else 0.0,
                    )
    return {"fig11": fig11, "fig12": fig12, "fig13": fig13}


def main() -> None:  # pragma: no cover - CLI glue
    for result in run().values():
        print(result.format_table())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
