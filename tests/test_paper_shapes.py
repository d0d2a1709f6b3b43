"""The paper's evaluation claims, asserted on the fast-mode experiments.

Each figure/table test reads the session's one fast run of its
experiment (``experiment_result``) and asserts the paper's qualitative
*shape*: who wins, roughly by how much, where crossovers fall.  Absolute
numbers are not expected to match a 2015 testbed.  The paper-scale
sweeps are ``repro experiment <id>`` without ``--fast``.

The checks that are not experiments follow: the ablations of DESIGN.md
§4 and Algorithm 2 under message loss.
"""

import statistics

import pytest

from repro import (
    DistributedConfig,
    grid_problem,
    solve_approximation,
    solve_distributed,
)
from repro.core import CachingProblem, PATH_POLICY_CONTENTION
from repro.experiments import fig5_running_time, serve_fairness
from repro.metrics import evaluate_contention

ALGORITHMS = ("Appx", "Dist", "Hopc", "Cont")


def _cell(result, column, **criteria):
    """``column`` of the first row matching ``criteria``."""
    return result.filtered(**criteria)[0][list(result.headers).index(column)]


def test_fig1_chunk_distribution(experiment_result):
    """Hopc/Cont concentrate every chunk on one node set, so they stray
    far from the optimum; Appx/Dist distribute chunks with small
    deviations."""
    result = experiment_result("fig1")

    totals = {}
    for algorithm in ALGORITHMS:
        assert result.filtered(algorithm=algorithm, node="TOTAL"), (
            f"missing TOTAL row for {algorithm}"
        )
        totals[algorithm] = _cell(result, "delta", algorithm=algorithm,
                                  node="TOTAL")

    assert totals["Appx"] < totals["Hopc"]
    assert totals["Appx"] < totals["Cont"]
    assert totals["Dist"] < totals["Hopc"]


def test_fig2_contention_cost(experiment_result):
    """Appx/Dist land far below Hopc (paper: ~52-62% lower) and within
    ~10% of Cont; on small grids Appx stays within the 6.55 ratio of
    the brute-force reference."""
    result = experiment_result("fig2")

    for size in sorted(set(result.column("nodes"))):
        costs = {
            algorithm: _cell(result, "total", nodes=size, algorithm=algorithm)
            for algorithm in ALGORITHMS
        }
        assert costs["Appx"] < costs["Hopc"]
        assert costs["Dist"] < costs["Hopc"]
        assert costs["Appx"] <= 1.15 * costs["Cont"]

    for size in {row[0] for row in result.filtered(regime="small")}:
        if not result.filtered(nodes=size, algorithm="Brtf"):
            continue
        brtf = _cell(result, "total", nodes=size, algorithm="Brtf")
        appx = _cell(result, "total", nodes=size, algorithm="Appx")
        assert appx <= 6.55 * brtf


def test_fig3_hop_limit(experiment_result):
    """k = 1 gives nodes too little information: few caches and a high
    accessing cost.  k >= 2 plateaus."""
    result = experiment_result("fig3")

    def at(k, column):
        return _cell(result, column, span_threshold=4, hop_limit=k)

    assert result.filtered(span_threshold=4, hop_limit=1)
    assert result.filtered(span_threshold=4, hop_limit=2)
    # "very few caching nodes are selected"
    assert at(1, "total_caches") < at(2, "total_caches")
    # "high Contention Cost in Accessing"
    assert at(1, "access") > at(2, "access")

    plateau = [
        at(k, "total") for k in (2, 3)
        if result.filtered(span_threshold=4, hop_limit=k)
    ]
    if len(plateau) == 2:
        assert abs(plateau[0] - plateau[1]) <= 0.05 * plateau[0]

    # larger CC floods: more information costs more messages
    assert at(1, "messages") < at(2, "messages")


def test_fig4_random_networks(experiment_result):
    """Appx/Dist at or below Cont and far below Hopc at every size."""
    result = experiment_result("fig4")

    for size in sorted(set(result.column("nodes"))):
        totals = {
            algorithm: _cell(result, "total", nodes=size, algorithm=algorithm)
            for algorithm in ALGORITHMS
        }
        assert totals["Appx"] < totals["Hopc"]
        assert totals["Dist"] < totals["Hopc"]
        assert totals["Appx"] <= 1.2 * totals["Cont"]
        assert totals["Dist"] <= 1.25 * totals["Cont"]


def test_fig5_running_time(monkeypatch):
    """All three algorithms grow polynomially and Algorithm 1 stays
    within a small constant factor of the fastest baseline.

    The paper's ordering (Appx 21.6% / 85.1% faster than Cont / Hopc)
    does not reproduce: its Hopc is O(|V||E|^3) by its own analysis,
    ours is O(k·N^2) (EXPERIMENTS.md).  These are wall-clock bounds, so
    this test times its own run with the invariant sanitizer off, best
    of three per size; the sanitized fast run is checked in
    ``test_experiments.py``.
    """
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    result = fig5_running_time.run(sides=(4, 6, 8), repeats=3)

    def seconds(size, algorithm):
        return _cell(result, "seconds", nodes=size, algorithm=algorithm)

    sizes = sorted(set(result.column("nodes")))
    for size in sizes:
        times = {a: seconds(size, a) for a in ("Appx", "Hopc", "Cont")}
        assert times["Appx"] <= max(5 * min(times.values()), 0.01), (
            size, times
        )

    for algorithm in ("Appx", "Hopc", "Cont"):
        per_size = [seconds(size, algorithm) for size in sizes]
        assert per_size[-1] >= per_size[0]
        # no worse than ~N^4 growth between consecutive sizes
        for (n1, t1), (n2, t2) in zip(
            zip(sizes, per_size), zip(sizes[1:], per_size[1:])
        ):
            if t1 > 1e-4:  # below that, timer noise dominates
                assert t2 / t1 <= ((n2 / n1) ** 4) * 2, (algorithm, n1, n2)


def test_fig6_percentile_fairness(experiment_result):
    """6x6 grid: 50% of the data sits on ~1 node (Hopc), ~5 (Cont), ~20
    (Appx/Dist); p75 fairness 71.4 / 68.6 / 4.28 / 22.8 % for
    Appx / Dist / Hopc / Cont."""
    result = experiment_result("fig6")

    def nodes_for(algorithm, ratio):
        return _cell(result, "nodes_needed", algorithm=algorithm, ratio=ratio)

    def p75(algorithm):
        return nodes_for(algorithm, "p75-fairness")

    assert nodes_for("Hopc", "50%") == pytest.approx(1.0, abs=0.5)
    assert nodes_for("Cont", "50%") == pytest.approx(5.0, abs=1.5)
    assert nodes_for("Appx", "50%") >= 8
    assert nodes_for("Dist", "50%") >= 8

    assert p75("Appx") > p75("Cont") > p75("Hopc")
    assert p75("Dist") > p75("Cont")
    assert p75("Hopc") == pytest.approx(4.28, abs=0.3)


def test_fig7_gini(experiment_result):
    """Appx/Dist Gini stays low and falls as the network grows;
    Hopc/Cont stay high (0.8+) or rise."""
    result = experiment_result("fig7")

    def gini(size, algorithm):
        return _cell(result, "gini", topology="grid", nodes=size,
                     algorithm=algorithm)

    grid_sizes = sorted({row[1] for row in result.filtered(topology="grid")})
    for size in grid_sizes:
        g = {algorithm: gini(size, algorithm) for algorithm in ALGORITHMS}
        assert g["Appx"] < 0.55
        assert g["Appx"] < g["Hopc"]
        assert g["Dist"] < g["Hopc"]
        assert g["Hopc"] > 0.75  # extreme concentration
        if size >= 36:
            # the Appx < Cont separation emerges at the paper's sizes;
            # on 4x4 the two are within noise of each other
            assert g["Appx"] < g["Cont"]

    if len(grid_sizes) >= 2:
        appx = [gini(s, "Appx") for s in grid_sizes]
        hopc = [gini(s, "Hopc") for s in grid_sizes]
        assert appx[-1] <= appx[0] + 0.05
        assert hopc[-1] >= hopc[0] - 0.05


def test_fig8_accumulated_cost(experiment_result):
    """Accumulated: ours grow slower and end below the baselines.
    Final-state: the baselines show a capacity cliff when chunks cross
    5 → 6 (capacity 5)."""
    result = experiment_result("fig8")
    sides = sorted(set(result.column("grid_side")))
    counts = sorted(set(result.column("num_chunks")))

    def cost(side, count, algorithm, column):
        return _cell(result, column, grid_side=side, num_chunks=count,
                     algorithm=algorithm)

    for side in sides:
        for algorithm in ALGORITHMS:
            costs = [cost(side, c, algorithm, "total_cost") for c in counts]
            assert all(
                a <= b + 1e-9 for a, b in zip(costs, costs[1:])
            ), (side, algorithm, costs)

        totals = {
            algorithm: cost(side, counts[-1], algorithm, "total_cost")
            for algorithm in ALGORITHMS
        }
        assert totals["Appx"] < totals["Hopc"]
        assert totals["Dist"] < totals["Hopc"]
        assert totals["Appx"] < totals["Cont"]

        # The cliff is a capacity-pressure effect: it shows on the tight
        # 4x4 grid (the paper's Fig. 8a highlights it there too) and
        # washes out on 8x8, where the second node set is still
        # well placed (EXPERIMENTS.md).
        if side == 4 and 5 in counts and 6 in counts:
            def jump(algorithm):
                return (cost(side, 6, algorithm, "final_state_cost")
                        - cost(side, 5, algorithm, "final_state_cost"))

            assert max(jump("Hopc"), jump("Cont")) > jump("Appx"), side


def test_fig9_per_chunk(experiment_result):
    """With 10 chunks: the fair algorithms keep per-chunk costs evener
    than the worst baseline; Hopc's two node sets show as two plateaus
    in final-state pricing and as a drop at chunk 5 in accumulated
    pricing."""
    result = experiment_result("fig9")

    for side in sorted(set(result.column("grid_side"))):
        spreads = {
            algorithm: _cell(result, "final_cost", grid_side=side,
                             algorithm=algorithm, chunk="stdev")
            for algorithm in ALGORITHMS
        }
        worst_baseline = max(spreads["Hopc"], spreads["Cont"])
        assert spreads["Appx"] < worst_baseline
        assert spreads["Dist"] < worst_baseline

        def hopc(column):
            return [
                _cell(result, column, grid_side=side, algorithm="Hopc",
                      chunk=c)
                for c in range(10)
            ]

        final = hopc("final_cost")
        first, last = final[:5], final[5:]
        gap = abs(statistics.mean(last) - statistics.mean(first))
        wobble = max(statistics.pstdev(first), statistics.pstdev(last))
        assert gap > 0.5 * wobble or wobble < 1e-9, (first, last)

        # fresh empty nodes reset Hopc's stage cost at the set switch
        stage = hopc("stage_cost")
        assert stage[5] < stage[4], stage


def test_table2_messages(experiment_result):
    """NPI = Q·N deliveries; CC/TIGHT/SPAN dominate; the total stays
    O(QN + N²), so TOTAL/(QN + N²) must not grow with N."""
    result = experiment_result("table2")

    def messages(n, kind):
        return _cell(result, "messages", nodes=n, type=kind)

    ratios = []
    for n in sorted(set(result.column("nodes"))):
        assert messages(n, "NPI") == 5 * (n - 1)  # Q chunks × (N-1) clients
        per_type = {
            kind: messages(n, kind)
            for kind in ("CC", "TIGHT", "SPAN", "FREEZE", "NADMIN")
        }
        # CC / TIGHT / SPAN dominate the unicast control traffic
        assert per_type["CC"] > per_type["FREEZE"]
        assert per_type["CC"] > per_type["NADMIN"]
        ratios.append(messages(n, "TOTAL/(QN+N^2)"))

    assert ratios[-1] <= ratios[0] * 1.5
    assert all(r < 10 for r in ratios)


def test_approx_ratio(experiment_result):
    """Theorem 1: Appx within 6.55 of the exact optimum (the paper
    observes at most 5.6).  Single-chunk rows compare against the true
    per-instance optimum, so their ratio is at least 1."""
    result = experiment_result("approx_ratio")
    ratio = list(result.headers).index("ratio")
    chunks = list(result.headers).index("chunks")

    rows = [row for row in result.rows if row[0] != "WORST"]
    assert rows
    for row in rows:
        assert row[ratio] <= 6.55, row
        if row[chunks] == 1:
            assert row[ratio] >= 1.0 - 1e-9, row
    assert _cell(result, "ratio", instance="WORST") <= 6.55


def test_online_churn(experiment_result):
    """Replacement policies rescue a saturating workload that
    never-evict strands."""
    result = experiment_result("online_churn")
    for seed in sorted(set(result.column("seed"))):
        def row(policy, column):
            return _cell(result, column, seed=seed, policy=policy)

        assert row("oldest-first", "cached") > row("never", "cached")
        assert row("most-replicated", "cached") > row("never", "cached")
        # caches (nearly) everything published
        assert row("oldest-first", "cached") >= (
            0.9 * row("oldest-first", "published")
        )
        # at the cost of actual evictions
        assert row("oldest-first", "evictions") > 0
        assert row("never", "evictions") == 0


def test_latency_model_ranking(experiment_result):
    """Sec. III-C: contention cost ranks algorithms the way full-DCF
    modelled latency does."""
    result = experiment_result("latency_model")
    for size in sorted(set(result.column("nodes"))):
        rows = result.filtered(nodes=size)
        contention = {row[1]: row[2] for row in rows}
        latency = {row[1]: row[3] for row in rows}
        algorithms = list(contention)
        # Pairs >= 25% apart in contention must rank identically under
        # modelled latency; close pairs may swap, because the full model
        # adds a quadratic collision term.
        for i, a in enumerate(algorithms):
            for b in algorithms[i + 1:]:
                lo, hi = sorted((contention[a], contention[b]))
                if hi < 1.25 * lo:
                    continue
                assert (
                    (contention[a] < contention[b])
                    == (latency[a] < latency[b])
                ), (size, a, b)
        # the paper's target comparison holds in both measures
        assert contention["Appx"] < contention["Hopc"]
        assert latency["Appx"] < latency["Hopc"]


def test_serve_fairness(experiment_result):
    """Placement fairness survives serving: on the Sec. V-A grid the
    served-load Gini of the Appx placement is below both the hop-count
    and the random placement's."""
    result = experiment_result("serve_fairness")
    gini = {
        placement: _cell(result, "served gini", placement=placement)
        for placement in result.column("placement")
    }
    assert set(gini) == {"approximation", "hopcount", "random"}

    assert gini["approximation"] < gini["hopcount"]
    assert gini["approximation"] < gini["random"]
    # Hop-count piles every copy on a couple of central nodes, so almost
    # all serving concentrates there.
    assert gini["hopcount"] > 0.75
    assert gini["approximation"] < 0.55

    # Producer fallback guarantees service.
    assert all(
        value == serve_fairness.FAST_REQUESTS
        for value in result.column("completed")
    )


# ---------------------------------------------------------------------------
# Ablations of the design choices in DESIGN.md §4, and message loss


@pytest.fixture(scope="module")
def problem():
    return grid_problem(6)


def _dist(problem, **config):
    return solve_distributed(problem, DistributedConfig(**config)).placement


def test_ablation_gamma_ramp(problem):
    """The literal pseudocode ramps the relay bid from zero after TIGHT,
    which delays SPANs and under-opens."""
    aligned = _dist(problem, gamma_from_alpha=True)
    literal = _dist(problem, gamma_from_alpha=False)
    assert literal.total_copies() <= aligned.total_copies()


def test_ablation_span_policy(problem):
    """Spanning every tight candidate or only the best stays feasible."""
    for placement in (
        _dist(problem, span_policy="all"),
        _dist(problem, span_policy="best", span_threshold=2),
    ):
        placement.validate()


def test_ablation_promotion_arbiter(problem):
    """Without the arbiter, simultaneous self-promotions over-open."""
    serial = _dist(problem, serialize_promotions=True)
    racy = _dist(problem, serialize_promotions=False)
    assert racy.total_copies() / max(1, serial.total_copies()) >= 1.0


def test_ablation_path_policy(problem):
    """Eq. 2 over shortest-hop paths (the paper) or minimum-contention
    routes: both feasible, and contention routing not wildly worse."""
    hops = solve_approximation(problem)
    contention = solve_approximation(CachingProblem(
        graph=problem.graph,
        producer=problem.producer,
        num_chunks=problem.num_chunks,
        capacity=problem.capacity,
        path_policy=PATH_POLICY_CONTENTION,
    ))
    hops.validate()
    contention.validate()
    assert (evaluate_contention(contention).total
            <= 1.5 * evaluate_contention(hops).total)


def test_loss_resilience(problem):
    """Sec. III-C motivates contention by colliding 802.11 control
    traffic.  Under message loss every placement stays valid (unserved
    clients fall back to the producer) while cache formation shrinks
    with TIGHT/SPAN support."""
    outcomes = {
        rate: solve_distributed(
            problem, DistributedConfig(loss_rate=rate, fault_seed=42)
        )
        for rate in (0.0, 0.2, 0.5, 0.8)
    }
    for outcome in outcomes.values():
        outcome.placement.validate()

    copies = {rate: o.placement.total_copies() for rate, o in outcomes.items()}
    assert copies[0.5] <= copies[0.0]
    assert copies[0.8] <= copies[0.2]
    assert copies[0.8] < copies[0.0]

    # fewer successful control messages are recorded under loss
    messages = {rate: o.stats.total_messages() for rate, o in outcomes.items()}
    assert messages[0.8] < messages[0.0]


def test_experiments_run_once_per_session(experiment_result, experiment_runs):
    """Every check reads one fast run per experiment."""
    first = experiment_result("fig6")
    assert experiment_result("fig6") is first
    assert experiment_runs["fig6"] == 1
    assert max(experiment_runs.values()) == 1
