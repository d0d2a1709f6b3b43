"""The columnar replay of load-independent policies against the event loop.

The batched engine replays ``cheapest`` (a load-independent policy)
column-wise: one arrival-order pass per batch, then array accounting of
the completions due before the next batch.  Hypothesis hands it and the
per-request event loop (:meth:`ServeEngine.run_reference`) the same
request batches — any batch size from 1 to 9000, a request count that is
not a multiple of it, a stream that ends at the last request or runs
past it — on every request workload, with no, some and all dead caches,
and asserts byte-identical reports.  The placements keep replicas on clients, so requests
are self-served (service 0) and completions tie on ``done``.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximation import solve_approximation
from repro.obs import Tracer, use_tracer
from repro.serve import WORKLOADS, ServeConfig, ServeEngine
from repro.workloads import grid_problem, random_problem

#: (kind, size, seed) of the placements the replays draw from.
PLACEMENTS = (("grid", 4, 0), ("random", 24, 3), ("random", 40, 11))


@lru_cache(maxsize=None)
def _placement(kind: str, size: int, seed: int):
    if kind == "grid":
        problem = grid_problem(size, num_chunks=3)
    else:
        problem, _ = random_problem(size, seed=seed, capacity=3)
    return solve_approximation(problem)


def _engine(placement, workload, num_requests, failure_rate, seed):
    return ServeEngine(
        placement, workload, num_requests,
        config=ServeConfig(failure_rate=failure_rate, seed=seed),
    )


#: Upper bound on one example's requests (the per-request replay's cost).
MAX_REQUESTS = 15_000


@settings(max_examples=30, deadline=None)
@given(
    placement=st.sampled_from(PLACEMENTS),
    workload_name=st.sampled_from(sorted(WORKLOADS)),
    rate=st.sampled_from([0.5, 2.0, 8.0]),
    failure_rate=st.sampled_from([0.0, 0.3, 1.0]),
    batch_size=st.integers(min_value=1, max_value=9000),
    stream_ends=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_columnar_replay_matches_per_request(
    placement, workload_name, rate, failure_rate, batch_size, stream_ends,
    seed, data,
):
    # Whole batches, then a cut one (any request count is a multiple of
    # batch size 1).
    full = data.draw(
        st.integers(min_value=0 if batch_size > 1 else 1,
                    max_value=MAX_REQUESTS // batch_size - 1),
        label="full batches",
    )
    rest = data.draw(st.integers(min_value=min(1, batch_size - 1),
                                 max_value=batch_size - 1), label="rest")
    num_requests = full * batch_size + rest
    placement = _placement(*placement)
    problem = placement.problem
    workload = WORKLOADS[workload_name](seed=seed, rate=rate)
    batches = list(
        workload.stream_batches(
            problem.clients, problem.num_chunks, batch_size,
            limit=num_requests if stream_ends else num_requests + batch_size,
        )
    )
    columnar = _engine(
        placement, workload, num_requests, failure_rate, seed
    ).run(batches)
    reference = _engine(
        placement, workload, num_requests, failure_rate, seed
    ).run_reference(batches)
    assert columnar.to_json() == reference.to_json()


def test_domain_has_self_served_ties():
    """The property's placements do produce service-0 completions and
    completions that share a ``done`` time."""
    placement = _placement(*PLACEMENTS[0])
    problem = placement.problem
    workload = WORKLOADS["zipf"](seed=1, rate=8.0)
    tracer = Tracer()
    with use_tracer(tracer):
        report = _engine(placement, workload, 3000, 0.0, 1).run(
            workload.stream_batches(problem.clients, problem.num_chunks,
                                    1000, limit=3000)
        )
    done = [
        event.args["sim_time"]
        for event in tracer.events
        if event.name == "serve.request"
    ]
    assert report.self_served > 0
    assert len(set(done)) < len(done)
