"""Request-level latency evaluation of a placement (DCF model end-to-end).

Sec. III-C argues that the Contention Cost is a linear proxy for 802.11
contention-induced delay.  This module closes the loop: every
(client, chunk) fetch in a placement is walked along its actual shortest
hop path and priced with the *full* Yang et al. hop-delay model
``d(k, c)`` — not the linearization — on the final storage state,
producing a latency distribution in seconds.

The headline use: verify that ranking algorithms by contention cost and
by modelled latency agrees (the paper's justification for optimizing the
former), and give the examples something in milliseconds to print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.commit import nearest_server_assignment
from repro.core.costs import CostModel
from repro.core.placement import CachePlacement
from repro.delay.dcf import DcfParameters, path_delay

Node = Hashable


def percentile(values: Iterable[float], p: float) -> float:
    """p-th percentile (0..100) of ``values``, linearly interpolated.

    The single shared implementation behind
    :meth:`LatencyReport.percentile` and (through
    :func:`sorted_percentile`) the request-level
    :class:`~repro.serve.stats.ServeReport` quantiles.  ``p=0`` is the
    minimum, ``p=100`` the maximum; an empty input yields 0.0 and a
    single sample is returned unchanged for every ``p``.
    """
    return sorted_percentile(sorted(values), p)


def sorted_percentile(ordered: Sequence[float], p: float) -> float:
    """:func:`percentile` of ``ordered``, already in ascending order.

    A caller that needs several quantiles of one sample sorts it once.
    ``ordered`` may be a list or a float64 array.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not len(ordered):
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def left_sum(values: Sequence[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: the float sum of ``values``, one
    left fold.

    Builtin ``sum`` computes exactly this on CPython 3.10 and 3.11
    (its ``0`` start turns into ``0.0`` at the first float, so a lone
    ``-0.0`` sums to ``0.0``), but 3.12 switched it to compensated
    summation.  Report figures folded here keep their bits on every
    Python minor version.  ``values`` is a list, an ``array("d")`` or a
    float64 array; ``np.add.accumulate`` adds left to right, one value
    at a time (``np.sum`` would add pairwise).
    """
    folded = np.concatenate(([0.0], np.asarray(values, dtype=np.float64)))
    np.add.accumulate(folded, out=folded)
    return float(folded[-1])


@dataclass(frozen=True)
class LatencyReport:
    """Distribution of per-fetch latencies (seconds)."""

    fetch_latencies: Tuple[float, ...]
    per_chunk_completion: Dict[int, float]

    @property
    def count(self) -> int:
        return len(self.fetch_latencies)

    @property
    def mean(self) -> float:
        if not self.fetch_latencies:
            return 0.0
        return left_sum(self.fetch_latencies) / len(self.fetch_latencies)

    @property
    def maximum(self) -> float:
        return max(self.fetch_latencies, default=0.0)

    def percentile(self, p: float) -> float:
        """p-th percentile (0..100) of per-fetch latency, interpolated."""
        return percentile(self.fetch_latencies, p)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def worst_chunk_completion(self) -> float:
        """Completion time of the slowest chunk (Fig. 9's motivation: a
        data item finishes only when its slowest chunk arrives)."""
        return max(self.per_chunk_completion.values(), default=0.0)


def latency_report(
    placement: CachePlacement,
    params: DcfParameters = DcfParameters(),
    reassign: bool = True,
) -> LatencyReport:
    """Price every fetch of ``placement`` with the full DCF hop model.

    Paths and storage loads come from the final network state; with
    ``reassign`` (default) every client fetches from its nearest final
    copy, mirroring :func:`repro.metrics.evaluate_contention`.
    """
    problem = placement.problem
    storage = placement.final_storage()
    costs = CostModel(problem.graph, storage, problem.path_policy)

    latencies: List[float] = []
    per_chunk_completion: Dict[int, float] = {}
    for chunk in placement.chunks:
        if reassign:
            # Caches in ``str`` order, as the serve engine reads them:
            # equal-cost copies can lie on paths of unequal DCF delay,
            # and frozenset order moves with the hash seed.
            assignment = nearest_server_assignment(
                costs, problem, sorted(chunk.caches, key=str)
            )
        else:
            assignment = chunk.assignment
        worst = 0.0
        for client, server in assignment.items():
            if server == client:
                delay = 0.0
            else:
                path = costs.path(server, client)
                delay = path_delay(problem.graph, path, storage, params)
            latencies.append(delay)
            worst = max(worst, delay)
        per_chunk_completion[chunk.chunk] = worst
    return LatencyReport(
        fetch_latencies=tuple(latencies),
        per_chunk_completion=per_chunk_completion,
    )

