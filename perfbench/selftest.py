"""The benchmark's own tests: exact work counts, self-time accounting and
clean restoration of the traced functions.

    python3 perfbench/selftest.py

Exits with status 0 when every test passes.
"""

from __future__ import annotations

import math
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spherequant import flow, harness, invariants, quantize, siegel, unitary_metric  # noqa: E402

from spans import Tracer  # noqa: E402


def tiny_defect():
    """Defect sweep at level k = 1 with one Magnus step and 8 flow steps."""
    config = harness.ExperimentConfig(
        experiment="defect",
        preset="height-squared",
        preset_params={"scale": 2.0},
        preset_b="x1",
        preset_b_params={"scale": 2.0},
        ks=(1,),
        steps=1,
        flow_steps=8,
    )
    return harness.run_defect(config)


def traced_tiny_defect():
    with Tracer() as tracer:
        _, trace = tracer.sweep(tiny_defect)
    return trace


def test_counts_repeat_exactly():
    assert traced_tiny_defect().counts == traced_tiny_defect().counts


def test_counts_match_hand_computation():
    counts = traced_tiny_defect().counts
    # Level 1 uses quantize.default_grid(1): 8 x 17 = 136 nodes.  The
    # product path is sampled at the two Gauss points of the single Magnus
    # step; each sample transports the nodes back with max(8, round(8 t)) = 8
    # RK4 steps.
    nodes = 8 * 17
    assert counts["flow.backward_transports"] == 2
    assert counts["flow.rk4_point_steps"] == 2 * 8 * nodes
    # three propagators (path a, path b, product path), one step each, N = 2
    assert counts["propagate.magnus_steps"] == 3
    assert counts["propagate.eigh_calls"] == 3
    assert counts["propagate.eigh_n3"] == 3 * 2**3
    assert counts["unitary_metric.cover_distances"] == 1
    assert counts["unitary_metric.schur_n3"] == 2**3
    # two Gauss points per propagator, one KS assembly per static term
    # (x3^2, x1) plus one per product-path sample: 8 nodes-by-N^2 products
    assert counts["quantize.assemblies"] == 4
    assert math.isclose(counts["quantize.assembly_gflop_computed"], 4 * 8 * nodes * 4 / 1e9)


def test_self_times_add_up_to_the_sweep():
    trace = traced_tiny_defect()
    assert math.isclose(sum(trace.self_times().values()), trace.total, rel_tol=1e-9)
    levels = trace.level_times()
    assert set(levels) == {1} and 0.0 < levels[1] <= trace.total


def test_calls_outside_a_sweep_are_not_recorded():
    with Tracer() as tracer:
        _, trace = tracer.sweep(tiny_defect)
        spans, counts = len(trace.spans), dict(trace.counts)
        quantize.build_space(2)
    assert (len(trace.spans), trace.counts) == (spans, counts)


def test_imported_copies_are_traced_and_restored():
    originals = (
        harness.cover_distance,
        invariants.cover_distance,
        flow.geodesic_matrices,
        quantize.build_space,
        unitary_metric.Unitary.__post_init__,
    )
    with Tracer():
        assert harness.cover_distance is unitary_metric.cover_distance
        assert invariants.cover_distance is unitary_metric.cover_distance
        assert flow.geodesic_matrices is siegel.geodesic_matrices
        assert harness.cover_distance is not originals[0]
    assert (
        harness.cover_distance,
        invariants.cover_distance,
        flow.geodesic_matrices,
        quantize.build_space,
        unitary_metric.Unitary.__post_init__,
    ) == originals


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
