"""Event model for the online fair caching extension.

The paper's conclusion (Sec. VI) leaves two things open: "Over long time
periods, some chunks may become out-dated, necessitating cache
replacement.  We plan to further address these two issues and develop
online distributed solutions."  The :mod:`repro.online` package builds
that extension on top of the per-chunk machinery the paper already has —
each *publish* runs one dual-ascent placement with the live storage
state, and each *expiry* releases the copies.

This module defines the event vocabulary and a seeded workload generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.errors import ProblemError

PUBLISH = "publish"
EXPIRE = "expire"


@dataclass(frozen=True, order=True)
class OnlineEvent:
    """A timestamped workload event (orderable by time, then sequence)."""

    time: float
    seq: int
    kind: str = field(compare=False)
    chunk: int = field(compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (PUBLISH, EXPIRE):
            raise ProblemError(f"unknown event kind {self.kind!r}")
        if self.time < 0:
            raise ProblemError("event time must be non-negative")


def publish(time: float, chunk: int, seq: int = 0) -> OnlineEvent:
    """A new chunk appears at the producer and must be cached."""
    return OnlineEvent(time=time, seq=seq, kind=PUBLISH, chunk=chunk)


def expire(time: float, chunk: int, seq: int = 0) -> OnlineEvent:
    """A chunk becomes outdated; every cached copy is released."""
    return OnlineEvent(time=time, seq=seq, kind=EXPIRE, chunk=chunk)


@dataclass(frozen=True)
class OnlineWorkload:
    """A time-ordered event sequence plus its parameters."""

    events: tuple
    num_chunks: int
    horizon: float

    def __iter__(self) -> Iterator[OnlineEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


DEFAULT_SEED = 2017


def generate_workload(
    num_chunks: int,
    horizon: float,
    mean_lifetime: float,
    seed: int = DEFAULT_SEED,
    inter_arrival: Optional[float] = None,
) -> OnlineWorkload:
    """Seeded publish/expire stream.

    Chunks are published at (roughly) regular intervals over ``horizon``
    with exponential jitter, and each lives an exponential lifetime with
    the given mean; expiries beyond the horizon are dropped (the chunk
    simply outlives the experiment).  The stream is seeded (fixed default)
    so every workload is reproducible.
    """
    if num_chunks < 0:
        raise ProblemError("num_chunks must be >= 0")
    if horizon <= 0 or mean_lifetime <= 0:
        raise ProblemError("horizon and mean_lifetime must be positive")
    rng = random.Random(seed)
    if inter_arrival is None:
        inter_arrival = horizon / max(1, num_chunks)

    events: List[OnlineEvent] = []
    seq = 0
    clock = 0.0
    for chunk in range(num_chunks):
        clock += rng.expovariate(1.0 / inter_arrival)
        publish_time = min(clock, horizon)
        events.append(publish(publish_time, chunk, seq))
        seq += 1
        death = publish_time + rng.expovariate(1.0 / mean_lifetime)
        if death < horizon:
            events.append(expire(death, chunk, seq))
            seq += 1
    events.sort()
    return OnlineWorkload(
        events=tuple(events), num_chunks=num_chunks, horizon=horizon
    )
