"""The :class:`ServeReport`: what actually happened when a placement served.

Aggregates one replay of a request workload into a JSON-safe,
bit-deterministic document: throughput, the request-latency distribution
(p50/p95/p99 via the shared interpolated
:func:`repro.delay.latency.sorted_percentile`), failover/retry/timeout
accounting, and — the headline — fairness of the *served* load: the
per-node count of requests each node actually served, summarized with
the same :func:`~repro.metrics.fairness.gini_coefficient` and
:func:`~repro.metrics.fairness.jains_index` the paper applies to storage
loads.  The paper argues fair *placements*; the served-load Gini
measures whether that fairness survives contact with a live request
stream.

Everything in the report derives from simulation state (never the wall
clock), so two replays with one seed produce byte-identical
:meth:`ServeReport.to_json` output — the determinism tests assert
exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Sequence

import json

import numpy as np

from repro.delay.latency import left_sum, sorted_percentile
from repro.metrics.fairness import gini_coefficient, jains_index

Node = Hashable

SERVE_SCHEMA = "repro-serve/1"


@dataclass(frozen=True)
class ServeReport:
    """Summary of one workload replay against one placement."""

    workload: str
    policy: str
    algorithm: str
    requests: int
    completed: int
    timeouts: int
    failovers: int
    retried_requests: int
    producer_served: int
    self_served: int
    makespan: float
    throughput: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_max: float
    queue_delay_mean: float
    served_gini: float
    served_jains: float
    #: ``str(node)`` → requests served, every non-producer node included
    #: (zeros and all), sorted by key for stable JSON.
    served_loads: Mapping[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (schema ``repro-serve/1``), deterministic order."""
        return {
            "schema": SERVE_SCHEMA,
            "workload": self.workload,
            "policy": self.policy,
            "algorithm": self.algorithm,
            "requests": self.requests,
            "completed": self.completed,
            "timeouts": self.timeouts,
            "failovers": self.failovers,
            "retried_requests": self.retried_requests,
            "producer_served": self.producer_served,
            "self_served": self.self_served,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "latency_mean": self.latency_mean,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "latency_max": self.latency_max,
            "queue_delay_mean": self.queue_delay_mean,
            "served_gini": self.served_gini,
            "served_jains": self.served_jains,
            "served_loads": dict(sorted(self.served_loads.items())),
        }

    def to_json(self, indent: int = 2) -> str:
        """:meth:`to_dict` as JSON; byte-identical across same-seed runs."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ServeReport":
        """Inverse of :meth:`to_dict` (round-trip tested)."""
        fields = {k: v for k, v in data.items() if k != "schema"}
        fields["served_loads"] = dict(fields.get("served_loads", {}))
        return ServeReport(**fields)

    def render(self) -> str:
        """Small aligned table for the CLI."""
        rows = [
            ("requests completed", f"{self.completed}/{self.requests}"),
            ("makespan (sim s)", f"{self.makespan:.2f}"),
            ("throughput (req/s)", f"{self.throughput:.2f}"),
            ("latency mean / p50 (s)",
             f"{self.latency_mean:.3f} / {self.latency_p50:.3f}"),
            ("latency p95 / p99 (s)",
             f"{self.latency_p95:.3f} / {self.latency_p99:.3f}"),
            ("latency max (s)", f"{self.latency_max:.3f}"),
            ("queueing delay mean (s)", f"{self.queue_delay_mean:.3f}"),
            ("failovers / retried reqs",
             f"{self.failovers} / {self.retried_requests}"),
            ("timeouts", str(self.timeouts)),
            ("producer-served / self-served",
             f"{self.producer_served} / {self.self_served}"),
            ("served-load Gini", f"{self.served_gini:.4f}"),
            ("served-load Jain index", f"{self.served_jains:.4f}"),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def build_report(
    workload: str,
    policy: str,
    algorithm: str,
    requests: int,
    latencies: Sequence[float],
    queue_delays: Sequence[float],
    served_loads: Mapping[Node, int],
    producer: Node,
    timeouts: int,
    failovers: int,
    retried_requests: int,
    self_served: int,
    makespan: float,
) -> ServeReport:
    """Assemble a :class:`ServeReport` from raw engine tallies.

    ``served_loads`` must carry every non-producer node (zeros included)
    plus the producer; the producer's count is split out and excluded
    from the fairness figures, mirroring
    :func:`repro.metrics.fairness.placement_loads`.
    """
    # The tallies as float64 columns: a view of an ``array("d")``, a
    # copy of a list.  One sort serves every quantile and the maximum;
    # both means are one left fold each, so every report bit is the
    # same on every Python minor version.
    latency = np.asarray(latencies, dtype=np.float64)
    queue_delay = np.asarray(queue_delays, dtype=np.float64)
    completed = len(latency)
    ordered = np.sort(latency)
    producer_served = int(served_loads.get(producer, 0))
    client_loads: List[int] = [
        count
        for node, count in served_loads.items()
        if node != producer
    ]
    return ServeReport(
        workload=workload,
        policy=policy,
        algorithm=algorithm,
        requests=requests,
        completed=completed,
        timeouts=timeouts,
        failovers=failovers,
        retried_requests=retried_requests,
        producer_served=producer_served,
        self_served=self_served,
        makespan=makespan,
        throughput=(completed / makespan) if makespan > 0 else 0.0,
        latency_mean=(left_sum(latency) / completed) if completed else 0.0,
        latency_p50=float(sorted_percentile(ordered, 50.0)),
        latency_p95=float(sorted_percentile(ordered, 95.0)),
        latency_p99=float(sorted_percentile(ordered, 99.0)),
        latency_max=float(ordered[-1]) if completed else 0.0,
        queue_delay_mean=(
            left_sum(queue_delay) / len(queue_delay)
            if len(queue_delay) else 0.0
        ),
        served_gini=gini_coefficient(client_loads),
        served_jains=jains_index(client_loads),
        served_loads={
            str(node): int(count)
            for node, count in sorted(
                served_loads.items(), key=lambda item: str(item[0])
            )
            if node != producer
        },
    )
