#!/usr/bin/env python3
"""Exponential routes and the high-k cost curve of the band-1 Magnus steps.

Usage (from the repository root):

    python3 tools/band1_parity_bench.py
    python3 tools/band1_parity_bench.py --src DIR --ks 64 128 --rounds 1

Prints one JSON object with two parts:

* ``routes``: how one untraced sweep of every ``perfbench`` workload at seed 3
  exponentiates its Magnus steps, counted here because the traced
  ``perfbench`` counters miss the tridiagonal solves: the
  ``propagate._expi_tridiagonal`` calls by block size, the dense ``_expi``
  calls and the elementwise (band-0) propagations;
* ``curve``: the wall time of the ``time-mixed`` Toeplitz and Kostant-Souriau
  propagations at 64 Magnus steps, the pair of the slow Tier-1 trend test,
  at each level k, 8 to 512 by default (the least and the median of
  ``--rounds`` rounds, after one warm-up level), with the block sizes of
  its solves.

``--src`` picks the ``src/`` directory the package is imported from (this
checkout's by default), so a second checkout, such as a ``git archive`` of
the parent commit, can be measured the same way.  One BLAS thread, as in
``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import sys
import time
from pathlib import Path

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="src/ directory to import")
    p.add_argument("--ks", type=int, nargs="+", default=[8, 16, 32, 64, 128, 256, 512])
    p.add_argument("--rounds", type=int, default=3)
    return p.parse_args(argv)


NAMES = ("_expi_tridiagonal", "_expi", "_expi_steps")


class RouteCounter:
    """Counts the exponentials of ``propagate`` while installed."""

    def __init__(self, propagate):
        self.propagate = propagate
        self.solves = collections.Counter()
        self.dense = 0
        self.elementwise = 0

    def __enter__(self):
        p = self.propagate
        self.saved = {name: getattr(p, name) for name in NAMES}
        solve, dense, steps = (self.saved[name] for name in NAMES)

        def counted_solve(d, *args):
            self.solves[len(d)] += 1
            return solve(d, *args)

        def counted_dense(*args):
            self.dense += 1
            return dense(*args)

        def counted_steps(coef, mats, band, *args):
            self.elementwise += band == 0
            return steps(coef, mats, band, *args)

        for name, fn in zip(NAMES, (counted_solve, counted_dense, counted_steps)):
            setattr(p, name, fn)
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.propagate, name, fn)

    def record(self):
        return {
            "tridiagonal_solves": sum(self.solves.values()),
            "tridiagonal_by_size": {str(n): c for n, c in sorted(self.solves.items())},
            "dense_expi": self.dense,
            "elementwise": self.elementwise,
        }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    from spherequant import hamiltonians, propagate, quantize

    import workloads

    routes = {}
    for name, workload in workloads.WORKLOADS.items():
        w = workload(3)
        with RouteCounter(propagate) as counter:
            w.sweep()
        routes[name] = counter.record()

    h = hamiltonians.time_mixed()
    steps = 64
    sides = {"toeplitz": propagate.propagate_toeplitz, "ks": propagate.propagate_ks}
    curve = []
    propagate.propagate_toeplitz(quantize.build_space(16), h, steps)  # warm-up
    for k in args.ks:
        space = quantize.build_space(k)
        times = {"toeplitz": [], "ks": []}
        for _ in range(args.rounds):
            with RouteCounter(propagate) as counter:
                for side, fn in sides.items():
                    start = time.perf_counter()
                    fn(space, h, steps)
                    times[side].append(time.perf_counter() - start)
        pair = [a + b for a, b in zip(times["toeplitz"], times["ks"])]
        curve.append(
            {
                "k": k,
                "steps": steps,
                "pair_s_min": min(pair),
                "pair_s_median": statistics.median(pair),
                "toeplitz_s_min": min(times["toeplitz"]),
                "ks_s_min": min(times["ks"]),
                "routes_per_round": counter.record(),
            }
        )
    print(json.dumps({"routes": routes, "curve": curve}, indent=1))


if __name__ == "__main__":
    main()
