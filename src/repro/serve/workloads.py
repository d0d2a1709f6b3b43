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
* **iterator-based** — requests are produced lazily from bounded
  generator state, so a million-request replay never materializes a
  request list;
* **Poisson in time** — exponential interarrivals at ``rate`` requests
  per simulated second across the whole network (flash crowds add a
  burst window on top).

Two stream shapes share one RNG schedule.
:meth:`Workload.stream_batches` yields struct-of-arrays batches —
parallel ``times`` / ``clients`` / ``chunks`` list columns — the shape
both serve engines replay (see ``docs/SCALING.md``);
:meth:`Workload.stream` yields :class:`Request` objects one at a time,
the independent reference the batches are tested against.  Per request
both read interarrival, client, chunk in that exact order from the same
seeded RNG, so the value sequences are identical; the equivalence tests
assert it for every generator.  :meth:`Workload.stream` makes the
stdlib calls (``expovariate``, ``randrange``, ``random``) one by one;
:meth:`Workload.stream_batches` draws the RNG's raw 32-bit Mersenne
Twister words in bulk and decodes the same draws from them with numpy,
block by block (:class:`_Words`).

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
from dataclasses import dataclass, fields
from itertools import repeat
from operator import floordiv
from typing import (
    Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Type,
)

import numpy as np

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

#: Requests decoded per bulk step of :meth:`Workload.stream_batches`:
#: enough to amortize numpy's per-call cost, few enough that a step's
#: temporaries stay far below a megabyte.
DECODE_BLOCK = 2048

#: A draw slot of a request's word layout: ``RANDOM`` is one
#: ``random()`` (two words), a positive ``m`` one ``randrange(m)``
#: (one accepted word), ``None`` no draw at all.
Slot = Optional[int]
RANDOM = 0

#: ``random()``'s scale: 53 bits of two words, as CPython combines them.
_TWO_POW_26 = 67108864.0
_TWO_POW_MINUS_53 = 1.0 / 9007199254740992.0


class _Words:
    """The raw 32-bit words of one stream's ``random.Random``, decoded
    into that stream's draws in bulk.

    ``rng.getrandbits(32 * k)`` draws the next ``k`` Mersenne Twister
    words with the first one least significant, so its little-endian
    bytes are the words in draw order: the words ``k`` calls of
    ``getrandbits(32)`` would return.  CPython's ``random()`` combines
    two words, ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, and
    ``randrange(m)`` takes words ``w >> (32 - m.bit_length())`` until one
    is below ``m``.  :meth:`parse` reads the same draws from the words.
    Words drawn but not parsed yet are kept for the next call.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._words = np.empty(0, dtype=np.uint32)
        #: Position of the first unread word.
        self.pos = 0

    def _reserve(self, count: int) -> None:
        """Make at least ``count`` unread words available."""
        missing = count - (len(self._words) - self.pos)
        if missing <= 0:
            return
        fresh = np.frombuffer(
            self._rng.getrandbits(32 * missing).to_bytes(4 * missing, "little"),
            dtype="<u4",
        )
        self._words = np.concatenate((self._words[self.pos:], fresh))
        self.pos = 0

    def parse(
        self, layout: Sequence[Slot], n: int
    ) -> Tuple[List[Optional[np.ndarray]], np.ndarray]:
        """Decode the next ``n`` requests (at least one) laid out as
        ``layout``; fewer when the words drawn so far run out first.

        Returns one column per slot, ``float64`` for ``RANDOM``, integer
        for ``randrange`` and ``None`` for no draw, and the word position
        each request starts at.  :attr:`pos` moves past the last one.
        """
        for m in layout:
            if m and m.bit_length() > 32:
                raise ProblemError(
                    f"bulk request draws need fewer than 2**32 choices, got {m}"
                )
        per_request = sum(
            2.0 if m == RANDOM else (1 << m.bit_length()) / m
            for m in layout if m is not None
        )
        # The words n requests need on average, plus slack; a shortfall
        # only means fewer requests this call.
        want = int(n * per_request * 1.02) + 64
        while True:
            self._reserve(want)
            words = self._words[self.pos:]
            size = len(words)
            after = {
                m: _after_accepted(words, m)
                for m in dict.fromkeys(layout) if m is not None and m != RANDOM
            }
            # Word position before a slot -> after it, ``size + 1`` once
            # the words run out; composed over the layout, a request's
            # start -> the next request's.
            step = np.arange(size + 2)
            for m in layout:
                if m == RANDOM:
                    step = np.minimum(step + 2, size + 1)
                elif m is not None:
                    step = after[m][step]
            orbit = _orbit(step, n)
            # Request i is whole when request i + 1 starts within the words.
            count = min(n, int(np.searchsorted(orbit, size, "right")) - 1)
            if count:
                break
            want = 2 * size + 64
        first = orbit[:count]
        columns: List[Optional[np.ndarray]] = []
        at = first
        for m in layout:
            if m is None:
                columns.append(None)
            elif m == RANDOM:
                high = words[at] >> 5
                low = words[at + 1] >> 6
                columns.append((high * _TWO_POW_26 + low) * _TWO_POW_MINUS_53)
                at = at + 2
            else:
                at = after[m][at]
                columns.append(words[at - 1] >> (32 - m.bit_length()))
        starts = first + self.pos
        self.pos += int(orbit[count])
        return columns, starts


def _after_accepted(words: np.ndarray, m: int) -> np.ndarray:
    """Per word position ``p`` (and the two past the end): one past the
    first word at or after ``p`` that ``randrange(m)`` accepts, or
    ``len(words) + 1`` when none is left."""
    size = len(words)
    accepted = (words >> (32 - m.bit_length())) < m
    out = np.full(size + 2, size + 1, dtype=np.int64)
    out[:size] = np.where(accepted, np.arange(1, size + 1), size + 1)
    return np.minimum.accumulate(out[::-1])[::-1]


def _orbit(step: np.ndarray, n: int) -> np.ndarray:
    """``0, step[0], step[step[0]], ...``: at least ``n + 1`` entries,
    by doubling — with the first ``k`` entries known and ``jump`` being
    ``step`` applied ``k`` times, ``jump[orbit]`` are the next ``k``."""
    orbit = np.zeros(1, dtype=np.int64)
    jump = step
    while True:
        orbit = np.concatenate((orbit, jump[orbit]))
        if len(orbit) > n:
            return orbit
        jump = jump[jump]


def _poisson_times(now: float, draws: np.ndarray, rate: float) -> np.ndarray:
    """Arrival times after ``now`` from ``random()`` draws, as
    ``now += expovariate(rate)`` would step them.

    The logarithm is ``math.log`` per element: numpy's vectorized ``log``
    is not always bit-equal to it.  ``np.add.accumulate`` adds left to
    right, one gap at a time, like the scalar loop.
    """
    gaps = -_logs(1.0 - draws) / rate
    return np.add.accumulate(np.concatenate(([now], gaps)))[1:]


def _logs(values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


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
    :meth:`_pick_chunk` / :meth:`_interarrival`, and their bulk twins
    :meth:`_layout` / :meth:`_pick_clients` / :meth:`_pick_chunks` /
    :meth:`_arrivals` (or :meth:`_decode` as a whole), which must decode
    the same draws.  All stream state lives in the per-call ``rng`` and
    the ``state`` dict ``_prepare`` returns, so one workload object can
    be iterated any number of times — even concurrently — and every
    stream is bit-identical.
    """

    name = "uniform"

    seed: int = DEFAULT_SEED
    rate: float = DEFAULT_RATE

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ProblemError(
                    f"workload {field.name} must be finite, got {value}"
                )
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
        The columns are decoded, :data:`DECODE_BLOCK` requests at a time,
        from the same RNG words the per-request draws (interarrival,
        client, chunk) read, so column ``i`` of batch ``b`` equals
        request ``b * batch_size + i`` of :meth:`stream` — the batched
        engine's equivalence guarantee starts here.  A zero-rate
        workload yields no batches.
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
        blocks = self._decoded_blocks(clients, num_chunks, limit)
        block: RequestBatch = ([], [], [])
        at = 0
        left = math.inf if limit is None else limit
        while left > 0:
            size = min(batch_size, left)
            left -= size
            batch: RequestBatch = ([], [], [])
            while size:
                if at == len(block[0]):
                    block = next(blocks)
                    at = 0
                take = min(size, len(block[0]) - at)
                for column, decoded in zip(batch, block):
                    column += decoded[at:at + take]
                at += take
                size -= take
            yield batch

    def _decoded_blocks(
        self, clients: List[Node], num_chunks: int, limit: Optional[int]
    ) -> Iterator[RequestBatch]:
        """The stream as :meth:`_decode` produces it, in blocks of up to
        :data:`DECODE_BLOCK` requests, ``limit`` of them in all."""
        rng = random.Random(self.seed)
        state = self._prepare(rng, clients, num_chunks)
        words = _Words(rng)
        # Filled one by one: ``np.array(clients)`` would unpack tuple
        # node ids into a second dimension.
        pool = np.empty(len(clients), dtype=object)
        for index, client in enumerate(clients):
            pool[index] = client
        now = 0.0
        left = math.inf if limit is None else limit
        while left > 0:
            times, picks, chunks = self._decode(
                words, state, len(clients), num_chunks, now,
                int(min(DECODE_BLOCK, left)),
            )
            left -= len(times)
            now = float(times[-1])
            yield times.tolist(), pool[picks].tolist(), chunks.tolist()

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

    # -- bulk hooks: the scalar hooks' draws, decoded block by block ---
    def _decode(
        self,
        words: _Words,
        state: StreamState,
        num_clients: int,
        num_chunks: int,
        now: float,
        n: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next requests after time ``now``, at most ``n`` (at least
        one): their times, client positions and chunks."""
        gaps, client_draws, chunk_draws = words.parse(
            self._layout(num_clients, num_chunks), n
        )[0]
        times = self._arrivals(now, gaps)
        return (
            times,
            self._pick_clients(client_draws, state),
            self._pick_chunks(chunk_draws, times, state),
        )

    def _layout(self, num_clients: int, num_chunks: int) -> Tuple[Slot, ...]:
        """The draw slots of one request: interarrival, client, chunk."""
        return (RANDOM, num_clients, num_chunks)

    def _arrivals(self, now: float, draws: np.ndarray) -> np.ndarray:
        return _poisson_times(now, draws, self.rate)

    def _pick_clients(self, draws: np.ndarray, state: StreamState) -> np.ndarray:
        """Positions in the client list, one per request."""
        return draws

    def _pick_chunks(
        self, draws: np.ndarray, times: np.ndarray, state: StreamState
    ) -> np.ndarray:
        return draws


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

    def _layout(self, num_clients: int, num_chunks: int) -> Tuple[Slot, ...]:
        return (RANDOM, num_clients, RANDOM)

    def _pick_chunks(
        self, draws: np.ndarray, times: np.ndarray, state: StreamState
    ) -> np.ndarray:
        cdf = np.array(state["chunk_cdf"])
        return np.searchsorted(cdf, draws * cdf[-1])


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

    def _layout(self, num_clients: int, num_chunks: int) -> Tuple[Slot, ...]:
        return (RANDOM, RANDOM, num_chunks)

    def _pick_clients(self, draws: np.ndarray, state: StreamState) -> np.ndarray:
        cdf = np.array(state["client_cdf"])
        return np.searchsorted(cdf, draws * cdf[-1])


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

    def _decode(
        self,
        words: _Words,
        state: StreamState,
        num_clients: int,
        num_chunks: int,
        now: float,
        n: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Inside the window a request draws no chunk, so each side of a
        # burst edge parses on its own.  The first request past an edge
        # mixes the two: its gap is drawn at the old rate, its chunk by
        # the new rule, so its chunk slot is read again.
        burst = self._in_burst(now)
        (gaps, client_draws, chunk_draws), starts = words.parse(
            (RANDOM, num_clients, None if burst else RANDOM), n
        )
        times = _poisson_times(
            now, gaps, self.rate * (self.burst_factor if burst else 1.0)
        )
        inside = (self.burst_start <= times) & (
            times < self.burst_start + self.burst_duration
        )
        edges = np.flatnonzero(inside != burst)
        if edges.size:
            edge = int(edges[0])
            times = times[:edge + 1]
            client_draws = client_draws[:edge + 1]
            inside = inside[:edge + 1]
            words.pos = int(starts[edge])
            edge_draw = words.parse(
                (RANDOM, num_clients, RANDOM if burst else None), 1
            )[0][2]
            chunk_draws = edge_draw if burst else chunk_draws[:edge]
        chunks = np.zeros(len(times), dtype=np.int64)
        if chunk_draws is not None:
            chunks[~inside] = self._pick_chunks(chunk_draws, times, state)
        return times, client_draws, chunks


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

    def _pick_chunks(
        self, draws: np.ndarray, times: np.ndarray, state: StreamState
    ) -> np.ndarray:
        ranks = super()._pick_chunks(draws, times, state)
        # The epoch a request sees is the furthest one reached so far;
        # ``//`` is Python's, per element, as the scalar hook computes it.
        targets = np.fromiter(
            map(floordiv, times.tolist(), repeat(self.shift_period)),
            float, len(times),
        )
        reached = np.maximum.accumulate(np.maximum(targets, state["epoch"]))
        epochs, which = np.unique(reached, return_inverse=True)
        perms = []
        for epoch in epochs.tolist():
            while state["epoch"] < epoch:
                state["epoch"] += 1
                state["perm_rng"].shuffle(state["perm"])
            perms.append(list(state["perm"]))
        return np.array(perms)[which, ranks]


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

    def _arrivals(self, now: float, draws: np.ndarray) -> np.ndarray:
        # The rate follows the clock, so the times are stepped one by
        # one; only the draws and their logarithms come in bulk.
        times: List[float] = []
        for gap in (-_logs(1.0 - draws)).tolist():
            swing = 1.0 + self.amplitude * math.sin(
                2.0 * math.pi * now / self.period
            )
            now += gap / (self.rate * swing)
            times.append(now)
        return np.array(times)


#: CLI name → workload class (``repro serve --workload`` / ``repro list``).
WORKLOADS: Dict[str, Type[Workload]] = {
    UniformWorkload.name: UniformWorkload,
    ZipfWorkload.name: ZipfWorkload,
    HotspotWorkload.name: HotspotWorkload,
    FlashCrowdWorkload.name: FlashCrowdWorkload,
    ShiftWorkload.name: ShiftWorkload,
    DiurnalWorkload.name: DiurnalWorkload,
}
