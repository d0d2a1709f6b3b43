"""Command-line interface: experiments, solves, serving, and tooling.

Installed as ``repro``; ``python -m repro`` works without installation.

Examples
--------
Regenerate a figure's data (fast mode trims sweeps)::

    repro experiment fig6
    repro experiment fig2 --fast

Solve one instance and print the placement summary::

    repro solve --grid 6 --chunks 5 --algorithm appx
    repro solve --nodes 60 --seed 7 --algorithm dist

Export a structured event trace (open in Perfetto)::

    repro solve --nodes 20 --algorithm dist --trace trace.json

Record streaming telemetry (time series + histograms), export it as
OpenMetrics text, and tail a running solve/serve/sweep live::

    repro solve --grid 6 --series                 # writes SERIES.json
    repro serve --grid 6 --requests 200000 --series serve.json \\
        --openmetrics serve-metrics.txt
    repro monitor serve.json                      # in another terminal

Serve a request workload against a solved placement (accessing phase)::

    repro serve --grid 6 --requests 10000 --workload zipf
    repro serve --nodes 100 --requests 1000000 --workload zipf --seed 2017
    repro serve --grid 6 --requests 5000 --policy p2c --failure-rate 0.2

Fan a workload x policy x topology x seed grid across worker processes
and write the merged repro-sweep/1 artifact::

    repro sweep --topology grid:6 --workloads zipf,uniform \\
        --policies cheapest,p2c --seeds 1,2,3 -o SWEEP.json
    repro sweep --topology grid:4 --topology random:30 --workers 4

Run the closed-loop adaptive control plane against a drifting workload
(compares accumulated cost with the frozen one-shot placement)::

    repro adapt --grid 4 --chunks 4 --capacity 2 --epoch-requests 1200
    repro adapt --grid 4 --workload shift --churn 2:5 --churn 3:10
    repro adapt --grid 4 --workload zipf --epochs 3 --epoch-requests 400
    repro sweep --topology grid:4 --adaptive off,hybrid --epochs 4

Check the architecture/hygiene/determinism rules (and optionally types)::

    repro lint
    repro lint --types
    repro lint --types determinism,rngflow,parallel
    repro lint --format json --output lint-report.json

List everything available::

    repro list
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.problem import CachingProblem
from repro.experiments import REGISTRY, run_algorithms, summarize
from repro.experiments.report import render_table
from repro.workloads import grid_problem, random_problem

_ALGO_ALIASES = {
    "appx": "Appx",
    "dist": "Dist",
    "brtf": "Brtf",
    "hopc": "Hopc",
    "cont": "Cont",
    "greedy": "Greedy",
}


#: ``--max-retries`` default, ``DistributedConfig.max_retries``'s.
DEFAULT_MAX_RETRIES = 3


def _retry_budget(text: str) -> int:
    """``--max-retries``: a retry count, so a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fair caching for peer data sharing (ICDCS 2017 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command")

    exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    exp.add_argument(
        "id", choices=sorted(REGISTRY) + ["all"],
        help="experiment id, or 'all'",
    )
    exp.add_argument(
        "--fast", action="store_true",
        help="trimmed sweep sizes (what the tier-1 tests run)",
    )

    solve = sub.add_parser("solve", help="solve one caching instance")
    _add_problem_flags(solve)
    solve.add_argument("--seed", type=int, default=2017,
                       help="seed for the --nodes topology")
    solve.add_argument(
        "--algorithm", default="appx",
        choices=sorted(_ALGO_ALIASES) + sorted(_ALGO_ALIASES.values()),
    )
    solve.add_argument(
        "--show-map", action="store_true",
        help="print a per-node load map (grid topologies only)",
    )
    _add_observability_flags(
        solve, "solve",
        trace_help="record a structured event trace and write it as Chrome "
        "trace-event JSON (open in Perfetto / chrome://tracing)",
    )
    faults = solve.add_argument_group(
        "fault injection (dist only)",
        "radio faults for the distributed protocol; any non-default "
        "value engages the fault plane (lossy floods, partial "
        "placements; see docs/FAULTS.md)",
    )
    faults.add_argument(
        "--loss-rate", type=float, default=0.0, metavar="P",
        help="per-delivery Bernoulli drop probability (default 0)",
    )
    faults.add_argument(
        "--jitter", type=float, default=0.0, metavar="S",
        help="uniform extra delivery latency in [0, S) simulated seconds "
        "(default 0; allows reordering)",
    )
    faults.add_argument(
        "--retx-timeout", type=float, default=0.0, metavar="S",
        help="ack + retransmission timeout with exponential backoff "
        "(default 0 = no retransmission)",
    )
    faults.add_argument(
        "--max-retries", type=_retry_budget, default=DEFAULT_MAX_RETRIES,
        metavar="N",
        help="retry budget per message; needs --retx-timeout "
        f"(default {DEFAULT_MAX_RETRIES})",
    )
    faults.add_argument(
        "--churn", action="append", default=None, metavar="T:NODE:KIND",
        help="scheduled membership change, e.g. 5.0:12:leave "
        "(repeatable; KIND is leave or join)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0, metavar="S",
        help="fault-plane RNG seed (default 0)",
    )

    serve = sub.add_parser(
        "serve",
        help="replay a request workload against a solved placement",
    )
    _add_problem_flags(serve)
    serve.add_argument(
        "--seed", type=int, default=2017,
        help="seed for the topology, the workload stream, and the engine",
    )
    serve.add_argument(
        "--algorithm", default="appx",
        choices=sorted(_ALGO_ALIASES) + sorted(_ALGO_ALIASES.values()),
        help="placement algorithm to serve from (default appx)",
    )
    serve.add_argument(
        "--requests", type=int, default=10_000, metavar="N",
        help="number of requests to replay (default 10000)",
    )
    serve.add_argument(
        "--workload", default="zipf", metavar="NAME",
        help="request workload generator (see `repro list`; default zipf)",
    )
    serve.add_argument(
        "--policy", default="cheapest", metavar="NAME",
        help="replica-selection policy (see `repro list`; default cheapest)",
    )
    serve.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="mean request arrivals per simulated second, network-wide "
        "(default: the workload's)",
    )
    serve.add_argument(
        "--failure-rate", type=float, default=0.0, metavar="P",
        help="probability each cache node is dead for the replay "
        "(default 0; the producer never dies)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="print the ServeReport as JSON instead of a table",
    )
    _add_observability_flags(
        serve, "solve + replay",
        trace_help="record a structured event trace of the solve + replay "
        "and write it as Chrome trace-event JSON",
    )

    adapt = sub.add_parser(
        "adapt",
        help="run the closed-loop adaptive control plane against a "
        "drifting workload and compare it with the static placement",
    )
    _add_problem_flags(adapt)
    adapt.add_argument(
        "--seed", type=int, default=2017,
        help="seed for the topology, the workload stream, and the engine",
    )
    adapt.add_argument(
        "--workload", default="shift", metavar="NAME",
        help="request workload generator (see `repro list`; default "
        "shift — stationary workloads adapt to nothing by design)",
    )
    adapt.add_argument(
        "--policy", default="cheapest", metavar="NAME",
        help="replica-selection policy for the replays (default cheapest)",
    )
    adapt.add_argument(
        "--adaptive-policy", default="hybrid", metavar="NAME",
        help="adaptive control policy: static, moves-only, resolve-only, "
        "or hybrid (default hybrid)",
    )
    adapt.add_argument(
        "--epochs", type=int, default=6, metavar="N",
        help="control epochs (default 6)",
    )
    adapt.add_argument(
        "--epoch-requests", type=int, default=1200, metavar="N",
        help="requests served per epoch (default 1200)",
    )
    adapt.add_argument(
        "--warmup", type=int, default=1, metavar="N",
        help="observation-only epochs before the demand reference is "
        "frozen (default 1)",
    )
    adapt.add_argument(
        "--alpha", type=float, default=0.5, metavar="A",
        help="EWMA smoothing of the demand estimator, in (0, 1] "
        "(default 0.5)",
    )
    adapt.add_argument(
        "--dirty-threshold", type=float, default=0.1, metavar="D",
        help="per-chunk drift at which local moves engage (default 0.1)",
    )
    adapt.add_argument(
        "--resolve-threshold", type=float, default=0.3, metavar="D",
        help="per-chunk drift at which a full re-solve engages "
        "(default 0.3)",
    )
    adapt.add_argument(
        "--max-moves", type=int, default=4, metavar="N",
        help="accepted local moves per epoch (default 4)",
    )
    adapt.add_argument(
        "--replacement", default="oldest-first", metavar="NAME",
        help="replacement policy when a re-solve needs room "
        "(default oldest-first; see `repro list`)",
    )
    adapt.add_argument(
        "--churn", action="append", default=None, metavar="EPOCH:NODE",
        help="wipe NODE's cache at the start of EPOCH, on both the "
        "adaptive and the static side (repeatable)",
    )
    adapt.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="mean request arrivals per simulated second (default: the "
        "workload's)",
    )
    adapt.add_argument(
        "--shift-period", type=float, default=None, metavar="S",
        help="popularity reshuffle period for the shift workload, in "
        "simulated seconds (default: epoch duration = epoch-requests / "
        "rate, one shift per epoch)",
    )
    adapt.add_argument(
        "--failure-rate", type=float, default=0.0, metavar="P",
        help="probability each cache node is dead during replays "
        "(default 0)",
    )
    adapt.add_argument(
        "--json", action="store_true",
        help="print the repro-adaptive/1 report as JSON instead of the "
        "epoch ledger",
    )
    adapt.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="also write the repro-adaptive/1 JSON document to PATH",
    )
    _add_observability_flags(
        adapt, "control loop",
        trace_help="record a structured event trace of the whole control "
        "loop and write it as Chrome trace-event JSON",
    )

    sweep = sub.add_parser(
        "sweep",
        help="fan a serve grid across worker processes, write "
        "repro-sweep/1 JSON",
    )
    sweep.add_argument(
        "--topology", action="append", metavar="KIND:N", default=None,
        help="topology axis entry, e.g. grid:6 or random:30 "
        "(repeatable; default grid:6)",
    )
    sweep.add_argument(
        "--workloads", default="zipf", metavar="A,B",
        help="comma-separated workload axis (default zipf)",
    )
    sweep.add_argument(
        "--policies", default="cheapest", metavar="A,B",
        help="comma-separated selection-policy axis (default cheapest)",
    )
    sweep.add_argument(
        "--seeds", default="2017", metavar="S1,S2",
        help="comma-separated seed axis (default 2017)",
    )
    sweep.add_argument(
        "--requests", type=int, default=10_000, metavar="N",
        help="requests per cell (default 10000)",
    )
    sweep.add_argument(
        "--algorithm", default="appx",
        choices=sorted(_ALGO_ALIASES) + sorted(_ALGO_ALIASES.values()),
        help="placement algorithm every cell serves from (default appx)",
    )
    sweep.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="mean arrivals per simulated second (default: per workload)",
    )
    sweep.add_argument(
        "--failure-rate", type=float, default=0.0, metavar="P",
        help="cache-death probability per cell (default 0)",
    )
    sweep.add_argument("--chunks", type=int, default=5)
    sweep.add_argument("--capacity", type=int, default=5)
    sweep.add_argument(
        "--adaptive", default="off", metavar="A,B",
        help="comma-separated adaptive axis: off and/or adaptive control "
        "policies (static, moves-only, resolve-only, hybrid); adaptive "
        "cells run the closed loop over --epochs windows (default off)",
    )
    sweep.add_argument(
        "--epochs", type=int, default=4, metavar="N",
        help="control epochs per adaptive cell (default 4)",
    )
    sweep.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes; 0 = one per CPU, capped at the cell "
        "count (default 0)",
    )
    sweep.add_argument(
        "--output", "-o", default="SWEEP.json", metavar="PATH",
        help="where to write the repro-sweep/1 JSON document",
    )
    _add_observability_flags(
        sweep, "sweep (parent process only)",
        trace_help="record a structured event trace of the sweep (parent "
        "process only) and write it as Chrome trace-event JSON",
    )

    monitor = sub.add_parser(
        "monitor",
        help="tail a running solve/serve/sweep via its --series snapshot "
        "file and render a live convergence/throughput view",
    )
    monitor.add_argument(
        "path", metavar="PATH",
        help="the snapshot file another repro process writes via "
        "--series PATH",
    )
    monitor.add_argument(
        "--interval", type=float, default=0.5, metavar="S",
        help="polling interval in seconds (default 0.5)",
    )
    monitor.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (what CI smoke uses)",
    )
    monitor.add_argument(
        "--max-wait", type=float, default=None, metavar="S",
        help="give up (exit 3) if the snapshot file has not appeared "
        "after S seconds (default: wait forever)",
    )

    lint = sub.add_parser(
        "lint",
        help="check architecture layering, code hygiene, determinism "
        "contracts, and (optionally) types",
    )
    lint.add_argument(
        "--spec", default=None, metavar="PATH",
        help="layering spec (default: docs/layering.toml found by walking "
        "up from the package)",
    )
    lint.add_argument(
        "--det-spec", default=None, metavar="PATH",
        help="determinism contracts (default: docs/determinism.toml found "
        "by walking up from the package; determinism families are "
        "skipped with a note when absent)",
    )
    lint.add_argument(
        "--package", default=None, metavar="DIR",
        help="package directory to lint (default: the installed repro "
        "package)",
    )
    lint.add_argument(
        "--types", nargs="?", const="all,mypy", default=None,
        metavar="FAMILIES",
        help="comma-separated rule families to run: architecture, hygiene, "
        "determinism, rngflow, parallel, plus 'all' (every static family) "
        "and 'mypy' (strict typecheck of the typed core, skipped with a "
        "note if mypy is not installed).  Bare --types means 'all,mypy'; "
        "omitting the flag runs every static family without mypy",
    )
    lint.add_argument(
        "--format", dest="fmt", choices=("text", "json", "sarif"),
        default="text",
        help="report format (default text); json is the byte-stable "
        "repro-lint/1 schema, sarif is SARIF 2.1.0",
    )
    lint.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="also write the formatted report to PATH (stdout is printed "
        "either way, so CI can tee the artifact without masking the "
        "exit code)",
    )

    sub.add_parser("list", help="list experiments and algorithms")
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    ids = sorted(REGISTRY) if args.id == "all" else [args.id]
    for index, experiment_id in enumerate(ids):
        if index:
            print()
        result = REGISTRY[experiment_id](fast=args.fast)
        print(result.to_text())
    return 0


def _build_problem(
    args: argparse.Namespace,
) -> Optional[Tuple[CachingProblem, str]]:
    """``(problem, label)`` from ``--grid`` or a ``--nodes`` random
    network; ``None`` after printing the error when the sizes are bad."""
    from repro.errors import ProblemError

    try:
        if args.grid is not None:
            problem = grid_problem(
                args.grid, num_chunks=args.chunks, capacity=args.capacity
            )
            return problem, f"{args.grid}x{args.grid} grid"
        problem, _ = random_problem(
            args.nodes, seed=args.seed, num_chunks=args.chunks,
            capacity=args.capacity,
        )
    except (ValueError, ProblemError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return None
    return problem, f"random network ({args.nodes} nodes, seed {args.seed})"


def _cmd_solve(args: argparse.Namespace) -> int:
    built = _build_problem(args)
    if built is None:
        return 2
    problem, label = built
    name = _ALGO_ALIASES.get(args.algorithm, args.algorithm)
    fault_config = _parse_fault_config(args)
    if fault_config is not None and name != "Dist":
        print("fault-injection flags require --algorithm dist",
              file=sys.stderr)
        return 2
    if args.max_retries != DEFAULT_MAX_RETRIES and not args.retx_timeout:
        print("solve: --max-retries needs --retx-timeout (without acked "
              "retransmission nothing is retried)", file=sys.stderr)
        return 2
    outcome = None
    if fault_config is not None:
        from repro.distributed import solve_distributed
        from repro.errors import SimulationError

        try:
            with _observed(args):
                outcome = solve_distributed(problem, fault_config)
        except SimulationError as exc:
            # Bad churn kind / unknown node / producer churn: user
            # input, not a solver bug.
            print(f"solve: {exc}", file=sys.stderr)
            return 2
        placement = outcome.placement
    else:
        with _observed(args):
            placement = run_algorithms(problem, [name])[name]
    s = summarize(name, placement)
    print(f"{name} on {label}: {problem.num_chunks} chunks, "
          f"capacity {args.capacity}")
    rows = [
        ["total contention cost", s.total_cost],
        ["  accessing phase", s.access_cost],
        ["  dissemination phase", s.dissemination_cost],
        ["Gini coefficient", s.gini],
        ["75-percentile fairness", s.p75_fairness],
        ["caching nodes used", s.nodes_used],
        ["total chunk copies", s.total_copies],
    ]
    print(render_table(["metric", "value"], rows))
    if outcome is not None and outcome.faults is not None:
        f = outcome.faults
        print()
        print(f"faults: {f.stats.total_drops()} drops, "
              f"{f.stats.total_retx()} retransmissions, "
              f"{f.stats.total_duplicates()} duplicates suppressed, "
              f"{f.stats.total_exhausted()} retry budgets exhausted, "
              f"{f.stats.leaves} leaves / {f.stats.joins} joins")
        if f.converged:
            print("all nodes served (converged)")
        else:
            print(f"PARTIAL placement: {f.total_unserved} node-chunk "
                  f"assignments fell back to the producer")
    print()
    for chunk in placement.chunks:
        print(f"chunk {chunk.chunk}: cached at "
              f"{sorted(chunk.caches, key=str)}")
    if getattr(args, "show_map", False):
        if args.grid is None:
            print("\n--show-map requires a --grid topology")
        else:
            from repro.viz import render_grid_placement

            print("\nper-node load map (* = producer, . = empty):")
            print(render_grid_placement(placement, side=args.grid))
    return 0


def _parse_fault_config(args: argparse.Namespace):
    """Build a ``DistributedConfig`` from the solve fault flags.

    Returns None when every fault flag is at its default, so the plain
    (registry-driven) solve path stays untouched.
    """
    if not (
        args.loss_rate or args.jitter or args.retx_timeout or args.churn
        or args.max_retries != DEFAULT_MAX_RETRIES or args.fault_seed
    ):
        return None
    from repro.distributed import DistributedConfig

    churn = []
    for spec in args.churn or ():
        parts = spec.split(":")
        if len(parts) != 3:
            print(f"--churn expects T:NODE:KIND, got {spec!r}",
                  file=sys.stderr)
            raise SystemExit(2)
        time_text, node_text, kind = parts
        try:
            time = float(time_text)
            node = int(node_text)
        except ValueError:
            print(f"--churn expects a float time and integer node, "
                  f"got {spec!r}", file=sys.stderr)
            raise SystemExit(2)
        churn.append((time, node, kind))
    return DistributedConfig(
        loss_rate=args.loss_rate,
        jitter=args.jitter,
        retx_timeout=args.retx_timeout,
        max_retries=args.max_retries,
        churn_schedule=tuple(churn),
        fault_seed=args.fault_seed,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: serve pulls in the solver + delay layers.
    from repro.errors import ProblemError
    from repro.serve import ServeConfig
    from repro.serve.engine import serve_placement

    workload_cls = _workload_class(args)
    if workload_cls is None:
        return 2
    if args.requests < 0:
        print("--requests must be >= 0", file=sys.stderr)
        return 2
    built = _build_problem(args)
    if built is None:
        return 2
    problem, label = built
    try:
        if args.rate is not None:
            workload = workload_cls(seed=args.seed, rate=args.rate)
        else:
            workload = workload_cls(seed=args.seed)
        config = ServeConfig(failure_rate=args.failure_rate, seed=args.seed)
    except ProblemError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    name = _ALGO_ALIASES.get(args.algorithm, args.algorithm)
    with _observed(args):
        placement = run_algorithms(problem, [name])[name]
        report = serve_placement(
            placement, workload, args.requests,
            policy=args.policy, config=config,
        )
    if args.json:
        print(report.to_json())
    else:
        print(f"{name} on {label}: {args.requests} requests, "
              f"workload {report.workload!r}, policy {report.policy!r}")
        print()
        print(report.render())
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    """``repro adapt``: the full-control closed loop with every knob."""
    from repro.adaptive import ADAPTIVE_POLICIES, AdaptiveConfig, run_adaptive
    from repro.errors import ProblemError
    from repro.serve import ServeConfig

    workload_cls = _workload_class(args)
    if workload_cls is None:
        return 2
    if args.adaptive_policy not in ADAPTIVE_POLICIES:
        print(f"unknown adaptive policy {args.adaptive_policy!r}; "
              f"choose from {sorted(ADAPTIVE_POLICIES)}", file=sys.stderr)
        return 2
    built = _build_problem(args)
    if built is None:
        return 2
    problem, label = built

    kwargs = {"seed": args.seed}
    if args.rate is not None:
        kwargs["rate"] = args.rate
    if args.workload == "shift":
        shift_period = args.shift_period
        if shift_period is None:
            # Default: the popularity reshuffles once per epoch — the
            # drift the controller is built to chase.
            rate = kwargs.get("rate", workload_cls(seed=args.seed).rate)
            shift_period = (
                args.epoch_requests / rate if rate > 0 else 60.0
            )
        kwargs["shift_period"] = shift_period
    elif args.shift_period is not None:
        print("--shift-period only applies to the shift workload",
              file=sys.stderr)
        return 2

    churn = []
    for spec in args.churn or ():
        parts = spec.split(":")
        try:
            if len(parts) != 2:
                raise ValueError(spec)
            churn.append((int(parts[0]), int(parts[1])))
        except ValueError:
            print(f"--churn expects EPOCH:NODE with integers, got {spec!r}",
                  file=sys.stderr)
            return 2

    try:
        workload = workload_cls(**kwargs)
        config = AdaptiveConfig(
            epochs=args.epochs,
            epoch_requests=args.epoch_requests,
            policy=args.adaptive_policy,
            warmup_epochs=args.warmup,
            ewma_alpha=args.alpha,
            dirty_threshold=args.dirty_threshold,
            resolve_threshold=args.resolve_threshold,
            max_moves_per_epoch=args.max_moves,
            selection_policy=args.policy,
            serve=ServeConfig(failure_rate=args.failure_rate, seed=args.seed),
            replacement=args.replacement,
            churn_schedule=tuple(churn),
        )
        with _observed(args):
            report = run_adaptive(problem, workload, config)
    except ProblemError as exc:
        print(f"adapt: {exc}", file=sys.stderr)
        return 2
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    if args.json:
        print(report.to_json())
    else:
        print(f"adaptive ({args.adaptive_policy}) on {label}: "
              f"{args.epochs} epochs x {args.epoch_requests} requests, "
              f"workload {report.workload!r}, "
              f"policy {report.selection_policy!r}")
        print()
        print(report.render())
        if args.output is not None:
            print(f"\nwrote {args.output}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Imported lazily: sweep pulls in serve plus the solver layers.
    from repro.errors import ProblemError
    from repro.sweep import (
        SweepGrid,
        render_sweep,
        resolve_workers,
        run_sweep,
        write_sweep,
    )

    def _split(text: str) -> tuple:
        return tuple(part.strip() for part in text.split(",") if part.strip())

    try:
        seeds = tuple(int(s) for s in _split(args.seeds))
    except ValueError:
        print(f"--seeds must be comma-separated integers, got "
              f"{args.seeds!r}", file=sys.stderr)
        return 2
    algorithm = _ALGO_ALIASES.get(args.algorithm, args.algorithm)
    try:
        grid = SweepGrid(
            topologies=tuple(args.topology or ("grid:6",)),
            workloads=_split(args.workloads),
            policies=_split(args.policies),
            seeds=seeds,
            adaptive=_split(args.adaptive),
            epochs=args.epochs,
            algorithm=algorithm,
            requests=args.requests,
            rate=args.rate,
            failure_rate=args.failure_rate,
            chunks=args.chunks,
            capacity=args.capacity,
        )
        workers = resolve_workers(args.workers, len(grid.cells()))
    except ProblemError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    with _observed(args):
        document = run_sweep(grid, workers=workers)
    write_sweep(document, args.output)
    print(render_sweep(document))
    print(f"\nwrote {args.output} ({workers} worker"
          f"{'s' if workers != 1 else ''})")
    return 0


def _workload_class(args: argparse.Namespace):
    """The generator ``--workload`` names, once ``--policy`` is known too.

    Returns None, after printing the choices, when either name is
    unknown.
    """
    from repro.serve import SELECTION_POLICIES, WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return None
    if args.policy not in SELECTION_POLICIES:
        print(f"unknown policy {args.policy!r}; "
              f"choose from {sorted(SELECTION_POLICIES)}", file=sys.stderr)
        return None
    return workload_cls


def _add_problem_flags(parser) -> None:
    """The shared topology (``--grid`` | ``--nodes``), ``--chunks`` and
    ``--capacity`` flags of ``solve``, ``serve`` and ``adapt``."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", type=int, metavar="SIDE",
                       help="SIDE x SIDE grid network")
    group.add_argument("--nodes", type=int, metavar="N",
                       help="connected random network with N nodes")
    parser.add_argument("--chunks", type=int, default=5)
    parser.add_argument("--capacity", type=int, default=5)


def _add_observability_flags(parser, what: str, trace_help: str) -> None:
    """The shared ``--trace`` / ``--series`` / ``--openmetrics`` flags
    (event traces and streaming telemetry; see docs/OBSERVABILITY.md)."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH", help=trace_help,
    )
    parser.add_argument(
        "--series", nargs="?", const="SERIES.json", default=None,
        metavar="PATH",
        help=f"record ring-buffered time series + streaming histograms "
        f"of the {what} and write the repro-series/1 artifact to PATH "
        f"(default SERIES.json); the file is rewritten atomically during "
        f"the run, so `repro monitor PATH` can tail it live",
    )
    parser.add_argument(
        "--openmetrics", default=None, metavar="PATH",
        help="also write the final metrics (counters, timers, gauges, "
        "histograms) as OpenMetrics/Prometheus text exposition",
    )


@contextlib.contextmanager
def _observed(args: argparse.Namespace) -> Iterator[None]:
    """Install what ``--trace`` / ``--series`` / ``--openmetrics`` ask for
    around a run, and write their files once it returns.

    A live Tracer for ``--trace``, a SeriesRecorder for ``--series`` or
    ``--openmetrics``; without the flags the defaults stay zero-cost
    no-ops.  A run that raises writes nothing.  Status lines go to
    stderr: `repro serve --json > report.json` must stay
    machine-parseable with any of the flags on.
    """
    from repro.obs import (
        SeriesConfig, SeriesRecorder, Tracer, use_recorder, use_tracer,
    )

    recorder = tracer = None
    with contextlib.ExitStack() as stack:
        if args.series is not None or args.openmetrics is not None:
            recorder = SeriesRecorder(SeriesConfig(snapshot_path=args.series))
            stack.enter_context(use_recorder(recorder))
        if args.trace is not None:
            tracer = Tracer()
            stack.enter_context(use_tracer(tracer))
        yield
    if tracer is not None:
        from repro.obs.manifest import build_manifest

        tracer.write(args.trace, manifest=build_manifest())
        suffix = ""
        if tracer.dropped:
            suffix = f" ({tracer.dropped} events dropped; ring buffer full)"
        print(f"wrote trace {args.trace}: {len(tracer.events)} events"
              f"{suffix}", file=sys.stderr)
    if recorder is not None:
        recorder.finalize()
        dump = recorder.dump()
        if args.series is not None:
            print(f"wrote series {args.series}: {len(dump['series'])} "
                  f"series, {len(dump['histograms'])} histograms "
                  f"(tail live with `repro monitor {args.series}`)",
                  file=sys.stderr)
        if args.openmetrics is not None:
            from repro.obs import write_openmetrics

            write_openmetrics(dump, args.openmetrics)
            print(f"wrote openmetrics {args.openmetrics}", file=sys.stderr)


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs.monitor import monitor_loop

    if args.interval <= 0:
        print("--interval must be > 0", file=sys.stderr)
        return 2
    try:
        return monitor_loop(
            args.path,
            interval_s=args.interval,
            once=args.once,
            max_wait_s=args.max_wait,
        )
    except KeyboardInterrupt:
        # Detaching from a live run is the normal way out of a tail.
        print()
        return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis package is only needed for this command.
    from pathlib import Path

    from repro.analysis import run_lint
    from repro.analysis.linter import FAMILIES
    from repro.analysis.typecheck import run_typecheck
    from repro.errors import ProblemError

    try:
        families, run_mypy = _parse_lint_types(args.types, FAMILIES)
        report = run_lint(
            package_dir=Path(args.package) if args.package else None,
            spec_path=Path(args.spec) if args.spec else None,
            families=families,
            det_spec_path=Path(args.det_spec) if args.det_spec else None,
        )
        rendered = report.render(args.fmt)
    except ProblemError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
    print(rendered.rstrip("\n"))
    status = 0 if report.ok else 2
    if run_mypy:
        src_root = Path(args.package).parent if args.package else None
        type_status, output = run_typecheck(src_root=src_root)
        print()
        print(output.rstrip() or "repro lint mypy: clean")
        status = status or type_status
    return status


def _parse_lint_types(
    value: Optional[str], known_families: Sequence[str]
) -> Tuple[List[str], bool]:
    """Resolve ``--types`` into (static families to run, run mypy?).

    ``None`` (flag omitted) runs every static family without mypy; a
    bare ``--types`` resolves to ``all,mypy`` for backward
    compatibility with the original boolean flag.
    """
    from repro.errors import ProblemError

    if value is None:
        return list(known_families), False
    families: List[str] = []
    run_mypy = False
    for token in (part.strip() for part in value.split(",")):
        if not token:
            continue
        if token == "mypy":
            run_mypy = True
        elif token == "all":
            families.extend(
                f for f in known_families if f not in families
            )
        elif token in known_families:
            if token not in families:
                families.append(token)
        else:
            raise ProblemError(
                f"unknown lint type {token!r}; expected one of "
                f"{', '.join([*known_families, 'all', 'mypy'])}"
            )
    return families, run_mypy


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "monitor":
        return _cmd_monitor(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "adapt":
        return _cmd_adapt(args)
    if args.command == "list":
        # Imported lazily, like every serve touchpoint in this module.
        from repro.adaptive.policy import ADAPTIVE_POLICIES
        from repro.online.replacement import REPLACEMENT_POLICIES
        from repro.serve import SELECTION_POLICIES, WORKLOADS

        print("experiments:", ", ".join(sorted(REGISTRY)))
        print("algorithms:", ", ".join(sorted(_ALGO_ALIASES)))
        print("workloads:", ", ".join(sorted(WORKLOADS)))
        print("selection policies:", ", ".join(sorted(SELECTION_POLICIES)))
        print("replacement policies:",
              ", ".join(sorted(REPLACEMENT_POLICIES)))
        print("adaptive policies:", ", ".join(sorted(ADAPTIVE_POLICIES)))
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
