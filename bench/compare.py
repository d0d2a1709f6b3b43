"""Compare two benchmark results, metric by metric and workload by workload.

Usage::

    python3 bench/compare.py BASE.json NEW.json

Each file is a results document written by ``bench/run.py --out DIR``:
``DIR/results.json`` (every workload) or ``DIR/<workload>.json``.  Each
(end-to-end metric, workload) pair present in both gets one verdict,
judged against the metric's ``bound`` and ``better`` direction in
``BENCHMARK.json``:

``exact``
    the two values are equal;
``same``
    the change is within the bound;
``better`` / ``worse``
    the change exceeds the bound in the better / worse direction;
``unresolved``
    the spread of either side (quartile distance over median) is wider
    than the bound, so the data cannot tell — unless every sample of the
    new side beats every sample of the base, which reads ``better``.

The exit status is 1 when any pair is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(path: Path) -> Dict[str, Dict[str, Any]]:
    """Workload name → its results document."""
    document = json.loads(path.read_text(encoding="utf-8"))
    if "workloads" in document:
        return document["workloads"]
    return {document["workload"]: document}


def spread(stat: Dict[str, Any]) -> float:
    value = stat["value"]
    return (stat["q3"] - stat["q1"]) / abs(value) if value else 0.0


def verdict(spec: Dict[str, Any], base: Dict[str, Any], new: Dict[str, Any],
            base_samples: Optional[List[float]] = None,
            new_samples: Optional[List[float]] = None) -> str:
    """The verdict for one metric: ``base`` and ``new`` are its
    ``{"value", "q1", "q3"}`` summaries."""
    if new["value"] == base["value"]:
        return "exact"
    sign = 1.0 if spec["better"] == "lower" else -1.0
    change = sign * (new["value"] - base["value"]) / abs(base["value"])
    bound = spec["bound"]
    if max(spread(base), spread(new)) > bound:
        if base_samples and new_samples and all(
            sign * (n - b) < 0 for n in new_samples for b in base_samples
        ):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(base: Dict[str, Dict[str, Any]], new: Dict[str, Dict[str, Any]],
            specs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One row per workload in both: ``{"workload", "cells"}`` where each
    cell is ``(metric, verdict, relative change)``."""
    rows = []
    for workload in (name for name in base if name in new):
        cells = []
        for spec in specs:
            name = spec["name"]
            a = base[workload]["metrics"].get(name)
            b = new[workload]["metrics"].get(name)
            if a is None or b is None:
                continue
            samples = (base[workload].get("samples", {}).get(name),
                       new[workload].get("samples", {}).get(name))
            change = (b["value"] - a["value"]) / abs(a["value"]) \
                if a["value"] else 0.0
            cells.append((name, verdict(spec, a, b, *samples), change))
        rows.append({"workload": workload, "cells": cells})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    specs = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    rows = compare(load_results(args.base), load_results(args.new), specs)
    worse = False
    for row in rows:
        cells = "  ".join(f"{name} {result} ({change:+.1%})"
                          for name, result, change in row["cells"])
        print(f"{row['workload']:<18} {cells}")
        worse |= any(result == "worse" for _, result, _ in row["cells"])
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
