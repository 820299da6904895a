#!/usr/bin/env python3
"""Bit-identity digest of the benchmark workloads.

Usage (from the repository root):

    python3 tools/workload_digest.py
    python3 tools/workload_digest.py --against REV

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

With ``--against REV`` the tool compares two checkouts itself: it extracts
REV's ``src/`` and ``perfbench/`` with ``git archive`` into a temporary
directory, which leaves the working tree and ``.git`` as they are, runs the
digest there and here, each in its own interpreter, prints both sets of
lines and exits 1 if any line differs.  ``--against HEAD`` compares the tree
with itself, so it also fails on any nondeterminism in a sweep.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

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


def _digest_lines(root):
    """The digest lines of the checkout at ``root``, from a fresh interpreter
    that runs this script there."""
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / Path(__file__).name)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"the digest at {root} exited with {proc.returncode}")
    return proc.stdout.splitlines()


def against(rev):
    """Print the digest lines of REV and of this checkout; 1 if any differs,
    2 if git cannot archive REV."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src", "perfbench"],
        capture_output=True,
    )
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode())
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # the "data" filter where this Python has it (3.10.12, 3.11.4 on)
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(other, **safe)
        (other / "tools").mkdir()
        shutil.copy(Path(__file__), other / "tools")
        theirs = _digest_lines(other)
    ours = _digest_lines(ROOT)
    for label, lines in ((rev, theirs), ("working tree", ours)):
        print(f"{label}:")
        print("\n".join(f"  {line}" for line in lines))
    if theirs != ours:
        print(f"the digest lines differ from {rev}", file=sys.stderr)
        return 1
    print(f"all {len(ours)} lines equal")
    return 0


def main():
    parser = argparse.ArgumentParser(description="Bit-identity digest of the benchmark workloads.")
    parser.add_argument(
        "--against",
        metavar="REV",
        help="also digest REV's src/ and perfbench/ and exit 1 if any line differs",
    )
    args = parser.parse_args()
    if args.against is not None:
        return against(args.against)
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
