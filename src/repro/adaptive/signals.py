"""Demand signals: turn request tallies into drift estimates.

Each epoch the adaptive controller counts the ``(client, chunk)`` pairs
of the request window it hands the serve engine — raw demand, a pure
function of the request stream.  This module smooths those counts into
an estimate of the *joint request distribution* and measures how far it
has drifted from the distribution a placement was optimized for:

* :class:`DemandEstimator` — an exponentially-weighted moving average
  over per-epoch request *shares*.  Normalizing each epoch to a
  probability distribution first makes the estimate insensitive to
  epoch-to-epoch load swings (a diurnal trough is not popularity
  drift), while the EWMA suppresses single-epoch sampling noise.
* :class:`DemandSnapshot` — a frozen view of the estimate: the joint
  ``P(client, chunk)`` distribution plus per-chunk marginals and
  per-chunk demand-weight vectors for the move evaluator.
* :func:`chunk_drift` — per-chunk L1 distance between two snapshots'
  joint rows: ``drift(n) = Σ_clients |p(c, n) − p_ref(c, n)|``.  The
  controller marks a chunk dirty when its drift exceeds a threshold;
  a stationary workload keeps every drift near zero (quiescence).

Everything iterates in sorted ``(str(client), chunk)`` order, so two
runs over the same counts produce bit-identical floats.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Tuple

from repro.errors import ProblemError

Node = Hashable

#: Demand key: (client node, chunk id).
PairKey = Tuple[Node, int]

DEFAULT_ALPHA = 0.5


def _sorted_keys(mapping: Mapping[PairKey, float]):
    return sorted(mapping, key=lambda key: (str(key[0]), key[1]))


class DemandSnapshot:
    """A frozen joint demand distribution ``P(client, chunk)``."""

    def __init__(self, shares: Mapping[PairKey, float]) -> None:
        self._shares: Dict[PairKey, float] = {
            key: float(shares[key]) for key in _sorted_keys(shares)
        }

    def share(self, client: Node, chunk: int) -> float:
        """``P(client, chunk)``; 0 for pairs never observed."""
        return self._shares.get((client, chunk), 0.0)

    def pairs(self) -> Dict[PairKey, float]:
        """The joint distribution, sorted-key insertion order."""
        return dict(self._shares)

    def chunk_share(self, chunk: int) -> float:
        """Marginal ``P(chunk)`` — summed in sorted client order."""
        return sum(
            value for key, value in self._shares.items() if key[1] == chunk
        )

    def chunk_clients(self, chunk: int):
        """``(client, share)`` rows of one chunk, sorted by ``str(client)``."""
        return [
            (key[0], value)
            for key, value in self._shares.items()
            if key[1] == chunk and value > 0.0
        ]

    def weights(self, scale: float) -> Dict[PairKey, float]:
        """Expected request counts at ``scale`` total requests per epoch.

        The move evaluator prices candidate moves against these: a move
        is worth taking when its per-epoch weighted-cost saving covers
        its one-time transfer cost (``docs/ADAPTIVE.md``).
        """
        if scale < 0:
            raise ProblemError(f"scale must be >= 0, got {scale}")
        return {key: value * scale for key, value in self._shares.items()}

    def __len__(self) -> int:
        return len(self._shares)


class DemandEstimator:
    """EWMA over per-epoch request shares.

    ``update`` folds one epoch's raw counts in:
    ``est ← (1 − α)·est + α·epoch_share`` over the union of observed
    pairs.  ``α = 1`` trusts only the latest epoch; small ``α`` adapts
    slowly but smooths sampling noise.  A zero-request epoch leaves the
    estimate untouched (no signal, no update).
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ProblemError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._estimate: Dict[PairKey, float] = {}
        self._epochs_observed = 0

    @property
    def epochs_observed(self) -> int:
        return self._epochs_observed

    def update(self, counts: Mapping[PairKey, int]) -> None:
        """Fold one epoch of raw served-request counts into the EWMA."""
        total = sum(counts.values())
        if total < 0:
            raise ProblemError("demand counts must be non-negative")
        if total == 0:
            return
        epoch_share = {
            key: counts[key] / total for key in _sorted_keys(counts)
        }
        if not self._estimate:
            self._estimate = dict(epoch_share)
            self._epochs_observed = 1
            return
        alpha = self.alpha
        merged: Dict[PairKey, float] = {}
        union = set(self._estimate) | set(epoch_share)
        for key in sorted(union, key=lambda k: (str(k[0]), k[1])):
            old = self._estimate.get(key, 0.0)
            new = epoch_share.get(key, 0.0)
            merged[key] = (1.0 - alpha) * old + alpha * new
        self._estimate = merged
        self._epochs_observed += 1

    def snapshot(self) -> DemandSnapshot:
        """The current estimate as a frozen :class:`DemandSnapshot`."""
        return DemandSnapshot(self._estimate)


def chunk_drift(
    current: DemandSnapshot,
    reference: DemandSnapshot,
    num_chunks: int,
) -> Dict[int, float]:
    """Per-chunk L1 drift between two joint demand snapshots.

    ``drift[n] = Σ_clients |P_cur(c, n) − P_ref(c, n)|`` — 0 when the
    chunk's demand row is unchanged, up to ``2·P(chunk)``-ish when the
    chunk's popularity appeared or vanished entirely.  Computed over the
    union of observed clients per chunk, in sorted order.
    """
    if num_chunks < 0:
        raise ProblemError(f"num_chunks must be >= 0, got {num_chunks}")
    drift = {chunk: 0.0 for chunk in range(num_chunks)}
    union = set(current.pairs()) | set(reference.pairs())
    for key in sorted(union, key=lambda k: (str(k[0]), k[1])):
        client, chunk = key
        if chunk not in drift:
            raise ProblemError(
                f"observed demand for unknown chunk {chunk} "
                f"(num_chunks={num_chunks})"
            )
        drift[chunk] += abs(
            current.share(client, chunk) - reference.share(client, chunk)
        )
    return drift
