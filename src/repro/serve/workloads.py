"""Deterministic request-stream generators for the accessing phase.

The paper prices the accessing phase once per (client, chunk) pair; real
edge caches instead see a *request process* — skewed chunk popularity,
uneven per-node demand, and occasional flash crowds (cf. FairCache's
served-load evaluation and the Zipf request processes of Ioannidis &
Yeh's adaptive caching networks).  This module turns those processes
into streams the :mod:`repro.serve.engine` can replay against any
placement.

Every generator is

* **seeded** — a fresh ``random.Random(seed)`` per :meth:`Workload.stream`
  call, so the same workload object yields a bit-identical stream every
  time it is iterated (the engine's determinism guarantee starts here);
* **iterator-based** — requests are produced one at a time from O(1)
  generator state, so a million-request replay never materializes a
  request list;
* **Poisson in time** — exponential interarrivals at ``rate`` requests
  per simulated second across the whole network (flash crowds add a
  burst window on top).

Two stream shapes share one RNG schedule.
:meth:`Workload.stream_batches` yields struct-of-arrays batches —
parallel ``times`` / ``clients`` / ``chunks`` list columns — the shape
both serve engines replay (see ``docs/SCALING.md``);
:meth:`Workload.stream` yields :class:`Request` objects, the
independent reference the batches are tested against.  Both draw
interarrival, client, chunk per request in that exact order from the
same seeded RNG, so the value sequences are identical; the equivalence
tests assert it for every generator.

A ``rate`` of exactly 0 is a valid degenerate workload: the stream is
empty (no request ever arrives) and the engine returns a zero-request
report instead of tripping over ``expovariate(0)``.

The :data:`WORKLOADS` registry maps CLI names to generator classes;
``repro list`` enumerates it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Type,
)

from repro.errors import ProblemError

Node = Hashable

DEFAULT_SEED = 2017

#: Requests per struct-of-arrays batch from :meth:`Workload.stream_batches`.
#: Large enough to amortize the per-batch Python overhead; replays open
#: their streams with a ``limit``, so the final batch is cut to fit.
DEFAULT_BATCH_SIZE = 8192

#: One struct-of-arrays event batch: parallel ``(times, clients, chunks)``
#: columns, one entry per request.
RequestBatch = Tuple[List[float], List[Node], List[int]]

#: Mean request arrivals per simulated second, network-wide.  DCF chunk
#: transfers take ~10 s across a grid (0.73 s transmission per hop times
#: the contention multiplier), so 0.5 req/s keeps the default replay
#: near-stable; raise it to study overload.
DEFAULT_RATE = 0.5

#: Per-stream scratch state returned by :meth:`Workload._prepare`.
StreamState = Dict[str, Any]


@dataclass(frozen=True)
class Request:
    """One client request: ``client`` wants ``chunk`` at time ``time``."""

    index: int
    time: float
    client: Node
    chunk: int


@dataclass(frozen=True)
class Workload:
    """Base request-stream generator (Poisson arrivals, uniform draws).

    Subclasses override :meth:`_prepare` / :meth:`_pick_client` /
    :meth:`_pick_chunk` / :meth:`_interarrival`.  All stream state lives
    in the per-call ``rng`` and the ``state`` dict ``_prepare`` returns,
    so one workload object can be iterated any number of times — even
    concurrently — and every stream is bit-identical.
    """

    name = "uniform"

    seed: int = DEFAULT_SEED
    rate: float = DEFAULT_RATE

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ProblemError(f"request rate must be >= 0, got {self.rate}")

    def stream(
        self, clients: Sequence[Node], num_chunks: int
    ) -> Iterator[Request]:
        """An endless deterministic request stream (seeded per call).

        A zero-rate workload yields an empty stream (no arrivals, ever).
        """
        clients = self._check_stream_args(clients, num_chunks)
        if self.rate == 0:
            return iter(())
        rng = random.Random(self.seed)
        state = self._prepare(rng, clients, num_chunks)
        return self._generate(rng, state, clients, num_chunks)

    def stream_batches(
        self,
        clients: Sequence[Node],
        num_chunks: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
        limit: Optional[int] = None,
    ) -> Iterator[RequestBatch]:
        """The same stream as :meth:`stream`, in struct-of-arrays batches.

        Yields ``(times, clients, chunks)`` parallel list columns of
        ``batch_size`` requests each — endlessly, or until ``limit``
        requests have been drawn, the last batch then holding the rest.
        The RNG is consumed in exactly the per-request order
        (interarrival, client, chunk), so column ``i`` of batch ``b``
        equals request ``b * batch_size + i`` of :meth:`stream` — the
        batched engine's equivalence guarantee starts here.  A
        zero-rate workload yields no batches.
        """
        if batch_size < 1:
            raise ProblemError(f"batch_size must be >= 1, got {batch_size}")
        if limit is not None and limit < 0:
            raise ProblemError(f"limit must be >= 0, got {limit}")
        clients = self._check_stream_args(clients, num_chunks)
        if self.rate == 0:
            return iter(())
        return self._generate_batches(clients, num_chunks, batch_size, limit)

    def _generate_batches(
        self,
        clients: List[Node],
        num_chunks: int,
        batch_size: int,
        limit: Optional[int],
    ) -> Iterator[RequestBatch]:
        rng = random.Random(self.seed)
        state = self._prepare(rng, clients, num_chunks)
        interarrival = self._interarrival
        pick_client = self._pick_client
        pick_chunk = self._pick_chunk
        now = 0.0
        left = math.inf if limit is None else limit
        while left > 0:
            size = min(batch_size, left)
            left -= size
            times: List[float] = []
            batch_clients: List[Node] = []
            batch_chunks: List[int] = []
            for _ in range(size):
                now += interarrival(rng, now)
                times.append(now)
                # Client before chunk: Request(...) evaluates its keyword
                # arguments in that order, and RNG order is the contract.
                batch_clients.append(pick_client(rng, clients, state))
                batch_chunks.append(pick_chunk(rng, num_chunks, now, state))
            yield times, batch_clients, batch_chunks

    def _check_stream_args(
        self, clients: Sequence[Node], num_chunks: int
    ) -> List[Node]:
        if not clients:
            raise ProblemError("workload needs at least one client")
        if num_chunks < 1:
            raise ProblemError("workload needs at least one chunk")
        return list(clients)

    def _generate(
        self,
        rng: random.Random,
        state: StreamState,
        clients: List[Node],
        num_chunks: int,
    ) -> Iterator[Request]:
        now = 0.0
        index = 0
        while True:
            now += self._interarrival(rng, now)
            yield Request(
                index=index,
                time=now,
                client=self._pick_client(rng, clients, state),
                chunk=self._pick_chunk(rng, num_chunks, now, state),
            )
            index += 1

    # -- hooks ---------------------------------------------------------
    def _prepare(
        self, rng: random.Random, clients: List[Node], num_chunks: int
    ) -> StreamState:
        """Per-stream setup (weight tables etc.); default: nothing."""
        return {}

    def _interarrival(self, rng: random.Random, now: float) -> float:
        return rng.expovariate(self.rate)

    def _pick_client(
        self, rng: random.Random, clients: List[Node], state: StreamState
    ) -> Node:
        return clients[rng.randrange(len(clients))]

    def _pick_chunk(
        self, rng: random.Random, num_chunks: int, now: float, state: StreamState
    ) -> int:
        return rng.randrange(num_chunks)


@dataclass(frozen=True)
class UniformWorkload(Workload):
    """Every client and every chunk equally likely — the paper's implicit
    "all nodes request all chunks" accessing phase, as a process."""

    name = "uniform"


@dataclass(frozen=True)
class ZipfWorkload(Workload):
    """Zipf-skewed chunk popularity: chunk ``k`` drawn ∝ ``1/(k+1)^s``.

    The standard cache-workload model (Ioannidis & Yeh drive their
    adaptive caching networks with exactly this); ``exponent`` ≈ 0.8–1.2
    covers most measured content catalogs.
    """

    name = "zipf"

    exponent: float = 0.8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.exponent < 0:
            raise ProblemError(
                f"zipf exponent must be >= 0, got {self.exponent}"
            )

    def _prepare(
        self, rng: random.Random, clients: List[Node], num_chunks: int
    ) -> StreamState:
        total = 0.0
        cdf: List[float] = []
        for k in range(num_chunks):
            total += 1.0 / float(k + 1) ** self.exponent
            cdf.append(total)
        return {"chunk_cdf": cdf}

    def _pick_chunk(
        self, rng: random.Random, num_chunks: int, now: float, state: StreamState
    ) -> int:
        cdf = state["chunk_cdf"]
        return bisect_left(cdf, rng.random() * cdf[-1])


@dataclass(frozen=True)
class HotspotWorkload(Workload):
    """Uneven per-node demand: a seeded fraction of clients are "hot" and
    issue ``boost``× the base demand (think a lecture hall next to quiet
    offices)."""

    name = "hotspot"

    hot_fraction: float = 0.2
    boost: float = 5.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ProblemError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}"
            )
        if self.boost < 1.0:
            raise ProblemError(f"boost must be >= 1, got {self.boost}")

    def _prepare(
        self, rng: random.Random, clients: List[Node], num_chunks: int
    ) -> StreamState:
        hot_count = min(len(clients), max(1, round(self.hot_fraction * len(clients))))
        hot_indices = set(rng.sample(range(len(clients)), hot_count))
        cdf: List[float] = []
        total = 0.0
        for i in range(len(clients)):
            total += self.boost if i in hot_indices else 1.0
            cdf.append(total)
        return {"client_cdf": cdf}

    def _pick_client(
        self, rng: random.Random, clients: List[Node], state: StreamState
    ) -> Node:
        cdf = state["client_cdf"]
        return clients[bisect_left(cdf, rng.random() * cdf[-1])]


@dataclass(frozen=True)
class FlashCrowdWorkload(ZipfWorkload):
    """Zipf base traffic plus a flash crowd: inside the window
    ``[burst_start, burst_start + burst_duration)`` the arrival rate is
    multiplied by ``burst_factor`` and every burst request targets the
    most popular chunk (chunk 0) — the viral-video scenario."""

    name = "flash"

    burst_start: float = 20.0
    burst_duration: float = 10.0
    burst_factor: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.burst_start < 0 or self.burst_duration < 0:
            raise ProblemError("burst window must be non-negative")
        if self.burst_factor < 1.0:
            raise ProblemError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )

    def _in_burst(self, now: float) -> bool:
        return (
            self.burst_start <= now < self.burst_start + self.burst_duration
        )

    def _interarrival(self, rng: random.Random, now: float) -> float:
        rate = self.rate * (self.burst_factor if self._in_burst(now) else 1.0)
        return rng.expovariate(rate)

    def _pick_chunk(
        self, rng: random.Random, num_chunks: int, now: float, state: StreamState
    ) -> int:
        if self._in_burst(now):
            return 0
        return super()._pick_chunk(rng, num_chunks, now, state)


@dataclass(frozen=True)
class ShiftWorkload(ZipfWorkload):
    """Zipf popularity whose *ranks* are re-shuffled every ``shift_period``
    simulated seconds — the popularity-drift stressor for the adaptive
    control loop (``docs/ADAPTIVE.md``).

    The Zipf skew is constant; which chunk occupies which rank is a
    seeded permutation that is re-drawn at every epoch boundary.  The
    permutation RNG is separate from the request RNG (derived from
    ``seed``), so shuffles never perturb the per-request draw schedule
    and :meth:`stream` / :meth:`stream_batches` stay value-identical.
    Epochs advance one at a time even when an interarrival gap skips
    several boundaries, so the permutation at any ``now`` depends only
    on ``int(now // shift_period)`` — not on the arrival pattern.
    """

    name = "shift"

    shift_period: float = 60.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shift_period <= 0:
            raise ProblemError(
                f"shift_period must be > 0, got {self.shift_period}"
            )

    def _prepare(
        self, rng: random.Random, clients: List[Node], num_chunks: int
    ) -> StreamState:
        state = super()._prepare(rng, clients, num_chunks)
        # Derived, not shared: shuffling must not consume request RNG.
        state["perm_rng"] = random.Random((self.seed << 1) ^ 0x5A1F)
        state["perm"] = list(range(num_chunks))
        state["epoch"] = 0
        return state

    def _pick_chunk(
        self, rng: random.Random, num_chunks: int, now: float, state: StreamState
    ) -> int:
        target = int(now // self.shift_period)
        while state["epoch"] < target:
            state["epoch"] += 1
            state["perm_rng"].shuffle(state["perm"])
        rank = super()._pick_chunk(rng, num_chunks, now, state)
        return state["perm"][rank]


@dataclass(frozen=True)
class DiurnalWorkload(ZipfWorkload):
    """Zipf popularity with a sinusoidal day/night arrival-rate swing:
    the instantaneous rate is ``rate * (1 + amplitude * sin(2π·now/period))``,
    so demand peaks mid-"day" and troughs mid-"night" while chunk
    popularity stays fixed."""

    name = "diurnal"

    period: float = 240.0
    amplitude: float = 0.8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period <= 0:
            raise ProblemError(f"period must be > 0, got {self.period}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ProblemError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )

    def _interarrival(self, rng: random.Random, now: float) -> float:
        swing = 1.0 + self.amplitude * math.sin(2.0 * math.pi * now / self.period)
        return rng.expovariate(self.rate * swing)


#: CLI name → workload class (``repro serve --workload`` / ``repro list``).
WORKLOADS: Dict[str, Type[Workload]] = {
    UniformWorkload.name: UniformWorkload,
    ZipfWorkload.name: ZipfWorkload,
    HotspotWorkload.name: HotspotWorkload,
    FlashCrowdWorkload.name: FlashCrowdWorkload,
    ShiftWorkload.name: ShiftWorkload,
    DiurnalWorkload.name: DiurnalWorkload,
}
