#!/usr/bin/env python3
"""Bit-identity digest of the benchmark workloads.

Usage (from the repository root):

    python3 tools/workload_digest.py

Runs one untraced sweep of every ``perfbench`` workload at seeds 3 and 57
(the two symmetric variants each workload draws) and prints one line per
sweep:

    <workload> seed=<seed> propagators=<n> max_use=<use> sha256=<hex>

``propagators`` counts the propagators the gate captured and validated,
and ``max_use`` is the largest gate ``use`` (error over tolerance).  The
SHA-256 covers the sweep's output without its wall times (the rows'
``runtime`` and the summaries' ``timings``), every gate check with its
error, and the bytes and phase of every captured propagator.  Two
checkouts that print the same lines computed the same numbers to the
last bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)

SEEDS = (3, 57)
# wall-clock entries, the only outputs that differ between identical runs
WALL_TIMES = ("runtime", "timings")


def _feed(h, obj):
    """Feed a canonical byte encoding of obj to the hash h."""
    import numpy as np

    if isinstance(obj, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(obj)
        h.update(f"array {a.dtype.str} {a.shape}:".encode())
        h.update(a.tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}:".encode())
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif isinstance(obj, dict):
        keys = sorted(key for key in obj if key not in WALL_TIMES)
        h.update(f"dict {len(keys)}:".encode())
        for key in keys:
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq {len(obj)}:".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, float):
        h.update(f"float {obj.hex()};".encode())
    else:
        h.update(f"{type(obj).__name__} {obj!r};".encode())


def digest(workload):
    """(propagator count, largest gate use, SHA-256) of one sweep."""
    from workloads import captured_propagations, with_phase_checks

    with captured_propagations() as results:
        output = workload.sweep()
    checks = workload.checks(output) + with_phase_checks(results)
    h = hashlib.sha256()
    for part in (output, checks, results):
        _feed(h, part)
    uses = [c.use for c in checks if c.use is not None]
    return len(results), float(max(uses, default=0.0)), h.hexdigest()


def main():
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    if run.import_program() is None:
        print(f"spherequant sources not found under {run.SRC}", file=sys.stderr)
        return 2
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            count, use, sha = digest(workload(seed))
            print(f"{name} seed={seed} propagators={count} max_use={use!r} sha256={sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
