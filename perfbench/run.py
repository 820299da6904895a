#!/usr/bin/env python3
"""spherequant benchmark: closed-loop k-sweeps with a correctness gate.

Usage (from the repository root):

    python3 perfbench/run.py --workload defect --seed 1 --seconds 30 --trace 0

One process runs one workload's sweep again and again, each sweep started
when the previous one has finished, until ``--seconds`` have passed (and
at least three times).  Every sweep's output goes through the workload's
gate.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": <checks>, "failed": <checks>, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; timings are rescaled to a nominal host speed by a reference
computation run next to them (see ``HostSpeed``).  With ``--trace 1`` the first half of the time runs untraced
sweeps and the second half traced ones, and the metrics are the per-layer
self times, work counts and per-level times of the traced sweep with the
lower median time, plus the tracing overhead.  A summary with provenance
(and, when traced, that sweep's spans) is written to ``perfbench/results/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One BLAS thread: the sweeps are dominated by elementwise NumPy work and
# matrices of order <= 129, and a single thread keeps the figures steady on
# a shared host and independent of its core count.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SWEEPS = 3
MIN_TRACED_SWEEPS = 2
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import spherequant from this checkout's src/, or None."""
    if not (SRC / "spherequant" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import spherequant

    if SRC not in Path(spherequant.__file__).resolve().parents:
        return None
    return spherequant


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "spherequant").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit_hash():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return out.stdout.strip() or None


def provenance(args, inputs):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_hash(),
        "source_sha256": source_digest(),
    }


class HostSpeed:
    """A fixed NumPy/LAPACK computation, independent of spherequant, whose
    wall time tracks how fast the host runs at the moment.

    On a shared host the same sweep takes 1.5 s in one minute and 2.4 s in
    the next, and CPU time follows wall time, so the slowdown is the
    processor's, not waiting.  The reference mixes the kinds of work the
    sweeps do: small-array elementwise steps, eigh at order 97 and a
    streaming complex product.  The end-to-end timings are rescaled by it.
    """

    # about the wall time of ``measure()`` on the 2-core host the bounds were
    # set on (0.07 s to 0.12 s as its speed drifted)
    NOMINAL_S = 0.1

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.normal(size=(97, 97)) + 1j * rng.normal(size=(97, 97))
        self.hermitian = a + a.conj().T
        points = rng.normal(size=(3000, 3))
        self.points = points / np.linalg.norm(points, axis=-1, keepdims=True)
        self.basis = rng.normal(size=(6000, 97)) + 1j * rng.normal(size=(6000, 97))

    def measure(self):
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(12):
            np.linalg.eigh(self.hermitian)
        x = self.points
        for _ in range(200):
            x = x + 1e-3 * np.cross(x, 2.0 * x[:, ::-1])
            x = x / np.linalg.norm(x, axis=-1, keepdims=True)
        weights = np.resize(x[:, 0], len(self.basis))[:, None]
        for _ in range(2):
            self.basis.conj().T @ (weights * self.basis)
        return time.perf_counter() - t0


def rescaled(samples, refs):
    """Each sample (None for a failed one) rescaled to the nominal host
    speed by the mean of the reference timings just before and after it."""
    return [
        s * 2.0 * HostSpeed.NOMINAL_S / (refs[i] + refs[i + 1])
        for i, s in enumerate(samples)
        if s is not None
    ]


class Phase:
    """Per attempt: the wall time (None when it failed), the reference
    timing before it (plus one after the last), gate checks and traces."""

    def __init__(self):
        self.times = []
        self.refs = []
        self.checks = []
        self.traces = []

    def rescaled(self):
        return rescaled(self.times, self.refs)


def setup_phase(args, speed):
    """Set-up time measured in fresh interpreters: imports plus BLAS warm-up
    plus building the workload's inputs, once per probe."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    phase = Phase()
    for _ in range(SETUP_PROBES):
        phase.refs.append(speed.measure())
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT
        )
        phase.times.append(float(out.stdout.strip().splitlines()[-1]))
    phase.refs.append(speed.measure())
    return phase


def run_loop(workload, seconds, min_sweeps, speed, tracer=None):
    from workloads import Check, captured_propagations, with_phase_checks

    phase = Phase()
    deadline = time.perf_counter() + seconds
    while len(phase.times) < min_sweeps or time.perf_counter() < deadline:
        phase.refs.append(speed.measure())
        phase.times.append(None)
        try:
            with captured_propagations() as results:
                if tracer is None:
                    t0 = time.perf_counter()
                    output = workload.sweep()
                    phase.times[-1] = time.perf_counter() - t0
                else:
                    output, trace = tracer.sweep(workload.sweep)
                    phase.times[-1] = trace.total
                    phase.traces.append(trace)
            phase.checks += workload.checks(output) + with_phase_checks(results)
        except Exception:  # a failing sweep is a failed check, not a crash
            traceback.print_exc()
            phase.checks.append(Check("sweep", None, 1.0, False))
    phase.refs.append(speed.measure())
    return phase


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup, phase):
    checks = phase.checks
    uses = [c.use for c in checks if c.use is not None]
    return {
        "sweep_s": metric(statistics.median(phase.rescaled()), "s"),
        "setup_s": metric(statistics.median(setup.rescaled()), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "tolerance_use": metric(max(uses) if uses else 0.0, "ratio"),
        "checks_passed": metric(sum(c.passed for c in checks) / len(checks), "share"),
    }


def per_layer(untraced, traced, ks):
    from spans import COUNT_NAMES, LAYERS, ROOT_LAYER

    by_time = sorted(traced.traces, key=lambda t: t.total)
    chosen = by_time[(len(by_time) - 1) // 2]
    self_times = chosen.self_times()
    levels = chosen.level_times()
    units = {
        "quantize.assembly_gflop_computed": "GFLOP",
        "quantize.basis_mb_computed": "MB",
    }
    out = {}
    for layer in LAYERS + (ROOT_LAYER,):
        out[f"{layer}.self_s"] = metric(self_times.get(layer, 0.0), "s")
    for name in COUNT_NAMES:
        out[name] = metric(chosen.counts[name], units.get(name, "count"))
    for k in ks:
        out[f"level_s.k{k}"] = metric(levels.get(k, 0.0), "s")
    out["trace.sweep_s"] = metric(chosen.total, "s")
    out["trace.overhead_s"] = metric(
        chosen.total - statistics.median(t for t in untraced.times if t is not None), "s"
    )
    return out, chosen


def counts_repeat(traced):
    from workloads import Check

    first = traced.traces[0].counts
    same = all(t.counts == first for t in traced.traces[1:])
    return Check("trace.counts_repeat", 0.0 if same else None, 1.0, same)


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if import_program() is None:
        print(f"spherequant sources not found under {SRC}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workloads.warm_up()
    speed = HostSpeed()
    speed.measure()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    prov = provenance(args, workload.inputs)
    print("provenance:", json.dumps(prov, sort_keys=True))

    summary = {"provenance": prov}
    if args.trace:
        untraced = run_loop(workload, args.seconds / 2, MIN_SWEEPS, speed)
        with Tracer() as tracer:
            traced = run_loop(workload, args.seconds / 2, MIN_TRACED_SWEEPS, speed, tracer)
        checks = untraced.checks + traced.checks + [counts_repeat(traced)]
        all_ks = sorted({k for w in workloads.WORKLOADS.values() for k in w.ks})
        metrics, chosen = per_layer(untraced, traced, all_ks)
        summary["untraced"] = {"times": untraced.times, "refs": untraced.refs}
        summary["traced"] = {"times": traced.times, "refs": traced.refs}
    else:
        setup = setup_phase(args, speed)
        phase = run_loop(workload, args.seconds, MIN_SWEEPS, speed)
        checks = phase.checks
        metrics = end_to_end(setup, phase)
        summary["sweeps"] = {"times": phase.times, "refs": phase.refs}
        summary["setup"] = {"times": setup.times, "refs": setup.refs}
        raw = statistics.median(t for t in phase.times if t is not None)
        print(f"sweep_s: median of {len(phase.rescaled())} sweeps rescaled to the "
              f"nominal host speed; raw median wall time {raw} s; "
              f"setup_s: median of {len(setup.times)} probes")

    failed = sum(not c.passed for c in checks)
    for c in checks:
        if not c.passed:
            print(f"FAILED check {c.name}: error {c.error} tolerance {c.tolerance}")
    print(f"checks_failed: {failed} of {len(checks)}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    summary["checks"] = [vars(c) for c in checks]
    summary["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}"
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    if args.trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(chosen.to_json()))
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
