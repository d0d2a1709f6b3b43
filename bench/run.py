"""Run the repository's end-to-end benchmark.

Usage (from the repository root; no install needed)::

    python3 bench/run.py                          # every workload, untraced
    python3 bench/run.py --workload serve-zipf --seed 7 --seconds 10
    python3 bench/run.py --trace 1 --out .bench_out   # per-layer run + traces

Each workload runs in its own process on one thread.  A run sets its
inputs up several times (``setup_s`` is the median, plus import time),
runs one discarded warm-up operation, then times operations for
``--seconds`` seconds and reports medians with quartiles.  A short
calibration loop runs before every set-up and operation; times are
rescaled by the ratio of its median to its median on the reference
machine, which divides out how fast the shared CPU runs during this run
(the raw seconds are in the results file).  Every output
is checked: an operation fails when it raises, when ``check`` rejects it,
when a repeat of one input gives other bytes, or — at the golden seed —
when its digest differs from ``golden/seed2017.json``.  Every run also
replays the workload's toy-size probe at the golden seed against its
golden digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  ``--out DIR`` also writes the full results (quartiles,
per-workload figures, digests, provenance) and, traced, Chrome traces.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

START = perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden" / "seed2017.json"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Timed operations per run even when one takes longer than ``--seconds``.
MIN_TIMED_OPS = 3
#: Median of :func:`calibrate` on the reference machine (a quiet 2-vCPU
#: Intel Xeon VM, CPython 3.11.7).  Reported times are rescaled to it.
CALIBRATION_REFERENCE_S = 0.028

# One thread per workload process: pin the numeric libraries before any
# of them is imported (children inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def summarize_samples(samples: List[float]) -> Dict[str, Any]:
    """Median with quartiles and the sample count."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes right now.

    The loop does the library's kind of work (dict updates, heap pushes
    and pops, float sums).  On a shared machine the speed of the CPU
    drifts for tens of seconds at a time; timed before every operation,
    the median of these samples measures that drift, and dividing it out
    keeps runs comparable.  Short spikes hit single operations and are
    left to the median of the operations.
    """
    start = perf_counter()
    heap: List[Any] = []
    table: Dict[int, int] = {}
    total = 0.0
    for i in range(40_000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, ((i * 2654435761) % 4093 * 0.5, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    return perf_counter() - start


class Checker:
    """Counts operations and failures; pins each input's output digest.

    The first digest seen for an input index is the expected one for
    every repeat; ``golden`` (a list indexed like the pool) overrides it
    where given.
    """

    def __init__(self, name: str, golden: Optional[List[str]] = None) -> None:
        self.name = name
        self.golden = golden or []
        self.digests: Dict[int, str] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, workload, inputs, index: int, around=None):
        """Time ``workload.op`` on ``inputs`` (inside ``around``, a
        context manager, when given); check its result.

        Returns ``(seconds, outcome)``; ``outcome`` is None on failure.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            with around or contextlib.nullcontext():
                result = workload.op(inputs)
            seconds = perf_counter() - start
            outcome = workload.check(inputs, result)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            self.failed += 1
            return perf_counter() - start, None
        if not self.expect(index, outcome.digest):
            self.failed += 1
            return seconds, None
        return seconds, outcome

    def expect(self, index: int, digest: str) -> bool:
        expected = self.digests.setdefault(index, digest)
        if index < len(self.golden):
            expected = self.golden[index]
        if digest != expected:
            print(f"{self.name}: input {index} output {digest[:12]} "
                  f"!= expected {expected[:12]}", file=sys.stderr)
            return False
        return True


def run_probe(workload, golden_digest: Optional[str],
              checker: Checker) -> Optional[str]:
    """Replay ``workload`` (a toy-size probe) at the golden seed; the
    operation counts in ``checker``.  Returns the probe's digest."""
    from workloads import GOLDEN_SEED

    probe = Checker(f"{checker.name} probe", [golden_digest or "missing"])
    probe.run(workload, workload.setup(GOLDEN_SEED)[0], 0)
    checker.attempted += probe.attempted
    checker.failed += probe.failed
    return probe.digests.get(0)


def run_workload(workload, seed: int, seconds: float,
                 golden: Optional[Dict[str, Any]] = None,
                 probe=None, import_s: float = 0.0) -> Dict[str, Any]:
    """One untraced run of ``workload``: set-ups, warm-up, timed loop."""
    from workloads import GOLDEN_SEED

    golden = golden or {}
    checker = Checker(
        workload.name, golden.get("pool") if seed == GOLDEN_SEED else None
    )
    calibrations = []
    setup_times = []
    for _ in range(SETUP_REPEATS):
        calibrations.append(calibrate())
        start = perf_counter()
        pool = workload.setup(seed)
        setup_times.append(import_s + perf_counter() - start)

    checker.run(workload, pool[0], 0)  # warm-up, not timed
    times: List[float] = []
    outcomes = []
    start = perf_counter()
    while True:
        index = len(times) % len(pool)
        calibrations.append(calibrate())
        elapsed, outcome = checker.run(workload, pool[index], index)
        times.append(elapsed)
        if outcome is not None:
            outcomes.append(outcome)
        spent = perf_counter() - start
        if (len(times) >= MIN_TIMED_OPS
                and spent + statistics.median(times) > seconds):
            break
    probe_digest = (
        run_probe(probe, golden.get("probe"), checker) if probe else None
    )

    scale = CALIBRATION_REFERENCE_S / statistics.median(calibrations)
    samples = {"op_s": [t * scale for t in times],
               "setup_s": [t * scale for t in setup_times]}
    metrics = {
        "op_s": summarize_samples(samples["op_s"]),
        "setup_s": summarize_samples(samples["setup_s"]),
        "peak_rss_mb": summarize_samples([peak_rss_mb()]),
    }
    figures = {
        name: summarize_samples([o.figures[name] for o in outcomes])
        for name in (outcomes[0].figures if outcomes else {})
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "params": workload.params,
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
        "figures": figures,
        "samples": samples,
        "raw_seconds": {"op_s": times, "setup_s": setup_times,
                        "import_s": import_s},
        "calibration_s": calibrations,
        "calibration_scale": scale,
        "digests": [checker.digests[i] for i in sorted(checker.digests)],
        "probe_digest": probe_digest,
    }


def final_line(result: Dict[str, Any], specs: List[Dict[str, Any]]) -> str:
    """The driver-facing JSON line: exactly the metrics ``specs`` names."""
    metrics = {
        spec["name"]: {"value": result["metrics"][spec["name"]]["value"],
                       "unit": spec["unit"]}
        for spec in specs
    }
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": metrics})


def print_metrics(result: Dict[str, Any], specs: List[Dict[str, Any]]) -> None:
    for spec in specs:
        stat = result["metrics"][spec["name"]]
        line = (f"{result['workload']:<18} {spec['name']:<42} "
                f"{stat['value']:>14.6g} {spec['unit']}")
        if stat.get("n", 1) > 1:
            line += (f"  (q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, "
                     f"n={stat['n']})")
        print(line)
    print(f"{result['workload']:<18} {'operations':<42} "
          f"{result['attempted']:>14} attempted, {result['failed']} failed")


def write_json(path: Path, document: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_one(name: str, seed: int, seconds: float, trace: bool,
            out: Optional[Path]) -> int:
    import workloads

    import_s = perf_counter() - START
    benchmark = load_benchmark()
    golden = load_golden().get(name, {})
    workload = workloads.WORKLOADS[name]
    probe = workloads.PROBES[name]
    if trace:
        import layers

        result, tracer = layers.traced_run(workload, seed, golden, probe)
        specs = benchmark["per_layer"]
    else:
        result = run_workload(workload, seed, seconds, golden, probe,
                              import_s)
        specs = benchmark["end_to_end"]
    print_metrics(result, specs)
    if out is not None:
        from repro.obs.manifest import build_manifest

        out.mkdir(parents=True, exist_ok=True)
        manifest = build_manifest(benchmark="bench/run.py", workload=name,
                                  seed=seed, seconds=seconds, trace=trace,
                                  params=workload.params)
        suffix = ".traced.json" if trace else ".json"
        write_json(out / f"{name}{suffix}", {**result, "manifest": manifest})
        if trace:
            tracer.write(str(out / f"{name}.trace.json"), manifest=manifest)
    print(final_line(result, specs))
    return 0


def run_all(seed: int, seconds: float, trace: bool,
            out: Optional[Path]) -> int:
    """Each workload in a fresh process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
        if out is not None:
            command += ["--out", str(out)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            child = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if out is not None:
        from repro.obs.manifest import build_manifest

        suffix = ".traced.json" if trace else ".json"
        write_json(out / ("results" + suffix), {
            "manifest": build_manifest(benchmark="bench/run.py", seed=seed,
                                       seconds=seconds, trace=trace),
            "workloads": {
                name: json.loads((out / f"{name}{suffix}").read_text())
                for name in workloads.WORKLOADS
            },
        })
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer traced run instead")
    parser.add_argument("--out", type=Path,
                        help="directory for results and trace files")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    seconds = args.seconds or load_benchmark()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace), args.out)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, seconds, bool(args.trace),
                   args.out)


if __name__ == "__main__":
    sys.exit(main())
