"""``repro sweep``: fan a serve grid across ``multiprocessing`` workers.

One :class:`~repro.serve.engine.ServeEngine` replay answers one
question; the evaluation questions are grids — *every* workload ×
*every* selection policy × *every* topology × several seeds.  This
module enumerates such a grid into independent cells, runs them across
a pool of worker processes (modeled on Icarus's ``PARALLEL_EXECUTION``
/ ``N_PROCESSES`` experiment orchestration), and merges the per-cell
:class:`~repro.serve.stats.ServeReport` documents into one
``repro-sweep/1`` artifact with aggregate fairness/latency tables.

Determinism under sharding is the load-bearing contract (see
``docs/SCALING.md``):

* **Cells are self-contained substreams.**  Every RNG a cell touches —
  the topology generator (random networks), the workload stream, the
  engine's failure coin and policy RNG — is seeded from the cell's own
  ``seed`` axis value, never from a shared generator, so a cell's
  report does not depend on which process ran it or what ran before
  it.
* **Merge order is fixed by shard index.**  Cells are enumerated in
  one deterministic order (topology → workload → policy → seed) and
  merged by that index regardless of completion order —
  ``Pool.map`` preserves input order, and the inline path trivially
  does.  Aggregate means sum floats in cell-index order.
* **The artifact carries no wall-clock.**  All timings in a report are
  simulated; the embedded run manifest is the only nondeterministic
  field (``created_unix``), and it can be pinned via
  ``manifest_extra`` — the sweep determinism test asserts a 1-worker
  and a 4-worker run of one grid produce byte-identical JSON.  The
  worker count is deliberately *not* recorded in the manifest for the
  same reason.

Observability (parent process only — workers run with the default
no-op recorder): counters ``sweep.cells`` / ``sweep.requests`` /
``sweep.failovers``, gauge ``sweep.workers``, timer ``sweep.run``, and
a ``sweep.session`` span with one ``sweep.cell`` instant per merged
cell on the ``sweep`` track.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProblemError
from repro.experiments.runner import SOLVERS
from repro.obs import get_recorder, get_tracer
from repro.obs.manifest import build_manifest
from repro.serve import SELECTION_POLICIES, WORKLOADS, ServeConfig
from repro.serve.engine import serve_placement
from repro.workloads import grid_problem, random_problem

SWEEP_SCHEMA = "repro-sweep/1"

DEFAULT_SWEEP_REQUESTS = 10_000

#: Topology kinds a sweep axis may name (``kind:size`` specs).
TOPOLOGY_KINDS = ("grid", "random")

#: The adaptive-axis value that keeps a cell a plain one-shot replay.
ADAPTIVE_OFF = "off"


def parse_topology(spec: str) -> Tuple[str, int]:
    """Parse a ``kind:size`` topology spec (``grid:6``, ``random:30``).

    ``grid:SIDE`` is the paper's SIDE × SIDE grid; ``random:NODES`` is a
    connected random geometric network built with the *cell's* seed, so
    the seed axis sweeps topologies too.
    """
    kind, _, size_text = spec.partition(":")
    if kind not in TOPOLOGY_KINDS:
        raise ProblemError(
            f"unknown topology kind {kind!r} in {spec!r}; "
            f"choose from {list(TOPOLOGY_KINDS)} (e.g. grid:6, random:30)"
        )
    try:
        size = int(size_text)
    except ValueError:
        raise ProblemError(
            f"topology {spec!r} needs an integer size (e.g. {kind}:6)"
        ) from None
    if size < 1:
        raise ProblemError(f"topology size must be >= 1, got {spec!r}")
    return kind, size


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: a fully-specified single replay."""

    index: int
    topology: str
    workload: str
    policy: str
    seed: int
    adaptive: str = ADAPTIVE_OFF

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "topology": self.topology,
            "workload": self.workload,
            "policy": self.policy,
            "seed": self.seed,
            "adaptive": self.adaptive,
        }


@dataclass(frozen=True)
class SweepGrid:
    """A workload × policy × topology × seed experiment grid.

    Axes are validated eagerly so a typo fails before any worker
    spawns.  :meth:`cells` enumerates the grid in the canonical shard
    order — topology, then workload, then policy, then seed — which is
    also the merge order of the final artifact.
    """

    topologies: Tuple[str, ...] = ("grid:6",)
    workloads: Tuple[str, ...] = ("zipf",)
    policies: Tuple[str, ...] = ("cheapest",)
    seeds: Tuple[int, ...] = (2017,)
    #: Adaptive axis: "off" (plain one-shot replay) and/or adaptive
    #: control policies (``repro.adaptive``); an adaptive cell runs the
    #: closed loop over ``epochs`` windows of ``requests // epochs``
    #: requests and reports its final (steady-state) epoch.
    adaptive: Tuple[str, ...] = (ADAPTIVE_OFF,)
    epochs: int = 4
    algorithm: str = "Appx"
    requests: int = DEFAULT_SWEEP_REQUESTS
    rate: Optional[float] = None
    failure_rate: float = 0.0
    chunks: int = 5
    capacity: int = 5

    def __post_init__(self) -> None:
        for axis_name in (
            "topologies", "workloads", "policies", "seeds", "adaptive"
        ):
            if not getattr(self, axis_name):
                raise ProblemError(f"sweep axis {axis_name!r} is empty")
        for spec in self.topologies:
            parse_topology(spec)
        for name in self.workloads:
            if name not in WORKLOADS:
                raise ProblemError(
                    f"unknown workload {name!r}; "
                    f"choose from {sorted(WORKLOADS)}"
                )
            if self.rate is not None:
                WORKLOADS[name](rate=self.rate)  # raises on a bad rate
        for name in self.policies:
            if name not in SELECTION_POLICIES:
                raise ProblemError(
                    f"unknown selection policy {name!r}; "
                    f"choose from {sorted(SELECTION_POLICIES)}"
                )
        if self.algorithm not in SOLVERS:
            raise ProblemError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {sorted(SOLVERS)}"
            )
        if self.requests < 0:
            raise ProblemError(
                f"requests must be >= 0, got {self.requests}"
            )
        # Every cell builds this config; a bad failure rate fails here,
        # before any worker spawns.
        ServeConfig(failure_rate=self.failure_rate)
        from repro.adaptive import ADAPTIVE_POLICIES

        for name in self.adaptive:
            if name != ADAPTIVE_OFF and name not in ADAPTIVE_POLICIES:
                raise ProblemError(
                    f"unknown adaptive policy {name!r}; choose from "
                    f"{[ADAPTIVE_OFF] + sorted(ADAPTIVE_POLICIES)}"
                )
        if any(name != ADAPTIVE_OFF for name in self.adaptive):
            if self.algorithm != "Appx":
                raise ProblemError(
                    "adaptive sweep cells re-solve with Algorithm 1; "
                    "the algorithm axis must stay 'Appx'"
                )
            if self.epochs < 1:
                raise ProblemError(
                    f"epochs must be >= 1, got {self.epochs}"
                )
            if self.requests < self.epochs:
                raise ProblemError(
                    "adaptive cells need at least one request per epoch "
                    f"({self.requests} requests / {self.epochs} epochs)"
                )

    def cells(self) -> List[SweepCell]:
        """The grid, flattened in canonical shard-index order."""
        cells: List[SweepCell] = []
        for topology in self.topologies:
            for workload in self.workloads:
                for policy in self.policies:
                    for seed in self.seeds:
                        for adaptive in self.adaptive:
                            cells.append(
                                SweepCell(
                                    index=len(cells),
                                    topology=topology,
                                    workload=workload,
                                    policy=policy,
                                    seed=seed,
                                    adaptive=adaptive,
                                )
                            )
        return cells

    def to_dict(self) -> Dict[str, Any]:
        return {
            "topologies": list(self.topologies),
            "workloads": list(self.workloads),
            "policies": list(self.policies),
            "seeds": list(self.seeds),
            "adaptive": list(self.adaptive),
            "epochs": self.epochs,
            "algorithm": self.algorithm,
            "requests": self.requests,
            "rate": self.rate,
            "failure_rate": self.failure_rate,
            "chunks": self.chunks,
            "capacity": self.capacity,
        }


#: (topology, seed, chunks, capacity, algorithm) → CachePlacement, per
#: process.  Cells within one worker share solved placements; the memo
#: never crosses processes, and placements are deterministic, so the
#: cache is invisible in the artifact.
_PLACEMENT_MEMO: Dict[Tuple[str, int, int, int, str], Any] = {}


def _cell_placement(
    topology: str, seed: int, chunks: int, capacity: int, algorithm: str
) -> Any:
    kind, size = parse_topology(topology)
    # Grid topologies are seed-independent; keep one memo entry for all
    # seeds instead of re-solving per seed.
    memo_seed = seed if kind == "random" else 0
    key = (topology, memo_seed, chunks, capacity, algorithm)
    placement = _PLACEMENT_MEMO.get(key)
    if placement is None:
        if kind == "grid":
            problem = grid_problem(size, num_chunks=chunks, capacity=capacity)
        else:
            problem, _ = random_problem(
                size, seed=seed, num_chunks=chunks, capacity=capacity
            )
        placement = SOLVERS[algorithm](problem)
        placement.validate()
        # Deliberate per-process memo: each fork keeps a private copy and
        # the placement for a key is a pure function of the key, so the
        # cache can never disagree across workers.
        _PLACEMENT_MEMO[key] = placement  # repro: noqa=parallel-global-write
    return placement


def _build_cell_problem(payload: Dict[str, Any]) -> Any:
    kind, size = parse_topology(payload["topology"])
    if kind == "grid":
        return grid_problem(
            size, num_chunks=payload["chunks"], capacity=payload["capacity"]
        )
    problem, _ = random_problem(
        size, seed=payload["seed"], num_chunks=payload["chunks"],
        capacity=payload["capacity"],
    )
    return problem


def _build_cell_workload(payload: Dict[str, Any]) -> Any:
    workload_cls = WORKLOADS[payload["workload"]]
    if payload["rate"] is not None:
        return workload_cls(seed=payload["seed"], rate=payload["rate"])
    return workload_cls(seed=payload["seed"])


def _cell_key(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "index": payload["index"],
        "topology": payload["topology"],
        "workload": payload["workload"],
        "policy": payload["policy"],
        "seed": payload["seed"],
        "adaptive": payload.get("adaptive", ADAPTIVE_OFF),
    }


def _run_adaptive_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One closed-loop cell: the adaptive axis named a control policy.

    The cell runs ``epochs`` windows of ``requests // epochs`` requests
    through :class:`repro.adaptive.AdaptiveController`; its ``report``
    is the final epoch's ServeReport (the steady state after
    adaptation, comparable with one-shot cells), and the full
    ``repro-adaptive/1`` document rides along under ``"adaptive"``.
    """
    from repro.adaptive import AdaptiveConfig, AdaptiveController

    problem = _build_cell_problem(payload)
    workload = _build_cell_workload(payload)
    config = AdaptiveConfig(
        epochs=payload["epochs"],
        epoch_requests=payload["requests"] // payload["epochs"],
        policy=payload["adaptive"],
        selection_policy=payload["policy"],
        serve=ServeConfig(
            failure_rate=payload["failure_rate"],
            seed=payload["seed"],
        ),
    )
    controller = AdaptiveController(problem, workload, config)
    adaptive_report = controller.run()
    assert controller.last_serve_report is not None
    return {
        "cell": _cell_key(payload),
        "report": controller.last_serve_report.to_dict(),
        "adaptive": adaptive_report.to_dict(),
    }


def _run_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one cell; module-level so ``Pool.map`` can pickle it."""
    if payload.get("adaptive", ADAPTIVE_OFF) != ADAPTIVE_OFF:
        return _run_adaptive_cell(payload)
    placement = _cell_placement(
        payload["topology"],
        payload["seed"],
        payload["chunks"],
        payload["capacity"],
        payload["algorithm"],
    )
    workload = _build_cell_workload(payload)
    config = ServeConfig(
        failure_rate=payload["failure_rate"], seed=payload["seed"]
    )
    report = serve_placement(
        placement,
        workload,
        payload["requests"],
        policy=payload["policy"],
        config=config,
    )
    return {
        "cell": _cell_key(payload),
        "report": report.to_dict(),
    }


def resolve_workers(requested: int, num_cells: int) -> int:
    """Clamp a ``--workers`` request: 0 means one per cell up to the
    CPU count; never more workers than cells, never fewer than one."""
    if num_cells < 1:
        return 1
    if requested < 0:
        raise ProblemError(f"workers must be >= 0, got {requested}")
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, num_cells))


def run_sweep(
    grid: SweepGrid,
    workers: int = 1,
    manifest_extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run every cell of ``grid`` and merge the ``repro-sweep/1`` doc.

    ``workers`` > 1 fans cells across a ``multiprocessing.Pool``;
    ``Pool.imap`` (with ``chunksize=1``) yields results in submission
    order, so the merged artifact is byte-identical for any worker
    count — and, unlike ``Pool.map``, streams each cell back as it
    finishes, which is what the per-cell ``sweep.cells_done`` progress
    series (and ``repro monitor``) hang off.  ``manifest_extra``
    fields are merged into the embedded manifest — pass a fixed
    ``created_unix`` to pin the one nondeterministic field.
    """
    cells = grid.cells()
    workers = resolve_workers(workers, len(cells))
    # Cell fields win the merge: both dicts carry an "adaptive" key
    # (the cell's policy value vs the grid's axis list).
    payloads = [
        {**grid.to_dict(), **cell.to_dict()} for cell in cells
    ]
    obs = get_recorder()
    trace = get_tracer()
    series_on = obs.series_enabled

    def collect(iterator: Any) -> List[Dict[str, Any]]:
        """Accumulate cell results in order, emitting the progress
        series per completed cell (virtual time = cell index)."""
        out: List[Dict[str, Any]] = []
        for result in iterator:
            out.append(result)
            if series_on:
                done = len(out)
                obs.series_point("sweep.cells_done", float(done), done,
                                 kind="counter")
                obs.series_point(
                    "sweep.cell_gini",
                    float(done),
                    result["report"]["served_gini"],
                )
                obs.series_mark(float(done))
        return out

    with trace.span(
        "sweep.session",
        track="sweep",
        args=(
            {"cells": len(cells), "workers": workers,
             "requests": grid.requests}
            if trace.enabled
            else None
        ),
    ), obs.timer("sweep.run"):
        if workers <= 1:
            results = collect(_run_cell(payload) for payload in payloads)
        else:
            with multiprocessing.Pool(processes=workers) as pool:
                results = collect(
                    pool.imap(_run_cell, payloads, chunksize=1)
                )
        obs.count("sweep.cells", len(cells))
        obs.gauge("sweep.workers", workers)
        for result in results:
            report = result["report"]
            obs.count("sweep.requests", report["completed"])
            obs.count("sweep.failovers", report["failovers"])
            if trace.enabled:
                trace.instant(
                    "sweep.cell",
                    track="sweep",
                    args={**result["cell"],
                          "served_gini": report["served_gini"]},
                )
    manifest = build_manifest(
        grid=grid.to_dict(),
        cells=len(cells),
        **(manifest_extra or {}),
    )
    return {
        "schema": SWEEP_SCHEMA,
        "grid": grid.to_dict(),
        "cells": results,
        "aggregates": aggregate_cells(results),
        "manifest": manifest,
    }


def aggregate_cells(
    results: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Per-(workload, policy, adaptive) rows across topologies × seeds.

    Means accumulate in cell-index order (the input order), so the
    floats are identical however the cells were scheduled.
    """
    groups: Dict[Tuple[str, str, str], List[Dict[str, Any]]] = {}
    for result in results:
        cell = result["cell"]
        key = (
            cell["workload"],
            cell["policy"],
            cell.get("adaptive", ADAPTIVE_OFF),
        )
        groups.setdefault(key, []).append(result["report"])
    rows: List[Dict[str, Any]] = []
    for (workload, policy, adaptive) in sorted(groups):
        reports = groups[(workload, policy, adaptive)]
        n = len(reports)
        rows.append(
            {
                "workload": workload,
                "policy": policy,
                "adaptive": adaptive,
                "cells": n,
                "completed": sum(r["completed"] for r in reports),
                "failovers": sum(r["failovers"] for r in reports),
                "timeouts": sum(r["timeouts"] for r in reports),
                "mean_served_gini": sum(
                    r["served_gini"] for r in reports
                ) / n,
                "mean_served_jains": sum(
                    r["served_jains"] for r in reports
                ) / n,
                "mean_latency_p50": sum(
                    r["latency_p50"] for r in reports
                ) / n,
                "mean_latency_p99": sum(
                    r["latency_p99"] for r in reports
                ) / n,
                "mean_throughput": sum(
                    r["throughput"] for r in reports
                ) / n,
            }
        )
    return rows


def write_sweep(document: Dict[str, Any], path: str) -> None:
    """Write a sweep artifact as stable pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_sweep(document: Dict[str, Any]) -> str:
    """Aggregate table for the terminal."""
    from repro.experiments.report import render_table

    rows: List[List[Any]] = [
        [
            row["workload"],
            row["policy"],
            row.get("adaptive", ADAPTIVE_OFF),
            row["cells"],
            row["completed"],
            round(row["mean_served_gini"], 4),
            round(row["mean_served_jains"], 4),
            round(row["mean_latency_p99"], 3),
            round(row["mean_throughput"], 2),
        ]
        for row in document["aggregates"]
    ]
    grid = document["grid"]
    title = (
        f"sweep: {len(document['cells'])} cells "
        f"({len(grid['topologies'])} topologies x "
        f"{len(grid['workloads'])} workloads x "
        f"{len(grid['policies'])} policies x "
        f"{len(grid['seeds'])} seeds), "
        f"{grid['requests']} requests/cell, {grid['algorithm']}"
    )
    table: str = render_table(
        ["workload", "policy", "adaptive", "cells", "completed", "gini",
         "jain", "p99 s", "req/s"],
        rows,
        title=title,
    )
    return table
