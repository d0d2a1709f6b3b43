"""CPython 3.12's builtin ``sum``, in Python, for interpreters before it.

CPython 3.12 changed ``sum()`` of floats from a left fold to Neumaier
compensated summation (the ``sum()`` docs: "Changed in version 3.12").
:func:`neumaier_sum` follows ``builtin_sum_impl`` of 3.12 branch by
branch, so a 3.10/3.11 test run can see the bits a 3.12 run computes:

* an ``int`` start sums exact ints and bools in a C long; the first
  other item, or an overflow, is added with ``+`` and leaves that path;
* a ``float`` running total adds exact floats with Neumaier's
  compensation, and ints that fit a C long without it; the first other
  item (a float subclass such as ``numpy.float64`` included) is added
  with ``+`` to the compensated total and leaves that path;
* everything else is a plain left fold with ``+``.

The module imports only the stdlib.  Run it with a 3.12+ interpreter to
compare the emulation with the real ``sum`` on random lists (exit 0 when
none differs)::

    python3.12 tests/py312_sum.py [--lists 5000] [--seed 2017]
"""

from __future__ import annotations

import argparse
import math
import random
import sys

_LONG_MIN = -(2**63)
_LONG_MAX = 2**63 - 1


def _fits_long(value: int) -> bool:
    return _LONG_MIN <= value <= _LONG_MAX


def neumaier_sum(iterable, /, start=0):
    """``sum(iterable, start)`` as CPython 3.12 computes it."""
    if isinstance(start, str):
        raise TypeError("sum() can't sum strings [use ''.join(seq) instead]")
    if isinstance(start, bytes):
        raise TypeError("sum() can't sum bytes [use b''.join(seq) instead]")
    if isinstance(start, bytearray):
        raise TypeError(
            "sum() can't sum bytearray [use b''.join(seq) instead]"
        )
    items = iter(iterable)
    result = start
    if type(result) is int and _fits_long(result):
        for item in items:
            if type(item) in (int, bool) and _fits_long(item):
                total = result + item
                if _fits_long(total):
                    result = total
                    continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total = result
        compensation = 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
                continue
            if isinstance(item, int) and _fits_long(item):
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


class _Half(float):
    """A float subclass: 3.12 leaves the compensated path on it."""


def _random_items(rng: random.Random):
    """One random list: floats of mixed scales and signs, with ints,
    bools, float subclasses, zeros of both signs and infinities mixed
    in now and then."""
    size = rng.choice((0, 1, 2, 3, 5, 10, 50, 200))
    scale = 10.0 ** rng.randint(-12, 12)
    special = rng.random() < 0.15
    items = []
    for _ in range(size):
        roll = rng.random()
        if special and roll < 0.05:
            items.append(rng.choice((0.0, -0.0, math.inf, -math.inf, 1e308)))
        elif special and roll < 0.1:
            items.append(rng.choice((True, False, 2**70, -(2**63))))
        elif roll < 0.15:
            items.append(rng.randint(-1000, 1000))
        elif roll < 0.17:
            items.append(_Half(rng.uniform(-scale, scale)))
        else:
            items.append(rng.uniform(-scale, scale) * rng.random() ** 8)
    start = rng.choice((0, 0, 0, 0.0, -0.0, 1, 0.5))
    return items, start


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return type(a) is type(b) and a == b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lists", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=2017)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    mismatches = differs_from_fold = 0
    for _ in range(args.lists):
        items, start = _random_items(rng)
        native = sum(items, start)
        emulated = neumaier_sum(items, start)
        if not _same(native, emulated):
            mismatches += 1
            if mismatches <= 5:
                print(f"mismatch: sum({items!r}, {start!r}) = {native!r}, "
                      f"emulated {emulated!r}")
        folded = start
        for item in items:
            folded = folded + item
        if not _same(folded, emulated):
            differs_from_fold += 1
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"python {version}: {args.lists} lists, {mismatches} mismatches "
          f"against builtin sum; {differs_from_fold} where 3.12 differs "
          f"from a left fold")
    if sys.version_info < (3, 12):
        print("builtin sum here is the left fold; run with 3.12+ to "
              "check the emulation")
        return 0
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
