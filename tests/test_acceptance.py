"""Acceptance gate: one check per numbered criterion, each reporting a
single PASS/FAIL line (repeated in the terminal summary via conftest).

The checks are either closed-form reproductions at fixed tolerances or
trend fits over a sweep of quantization levels; the trend fits use the
noise-floor rules of :func:`spherequant.harness.fit_slope`.
"""

import numpy as np
import scipy.linalg

import conftest

from spherequant import (
    flow,
    hamiltonians as ham,
    harness,
    invariants,
    propagate,
    quantize,
    sphere,
)
from spherequant.sphere import build_grid, calabi
from spherequant.unitary_metric import (
    LatticeProblem,
    Unitary,
    UnitaryWithPhase,
    cover_distance,
    distance,
    solve_lattice,
)

import oracles


def _report(num, name, ok):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} ({name}): {status}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def test_criterion_01_dimension_law():
    ok = all(quantize.build_space(k).dim == k + 1 for k in range(1, 65))
    assert _report(1, "section space dimension k+1", ok)


def test_criterion_02_distance_formula_and_bounds():
    rng = np.random.default_rng(20)
    units = []
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        u = harness.random_unitary_with_phase(rng, n).u
        v = harness.random_unitary_with_phase(rng, n).u
        d = distance(u, v)
        gap = np.linalg.norm(u.mat - v.mat, ord=2)
        ok &= d >= -1e-10
        ok &= distance(u, u) <= 1e-10
        ok &= abs(d - distance(v, u)) <= 1e-10
        ok &= gap <= d + 1e-10
        ok &= d <= 0.5 * np.pi * gap + 1e-10
        units.append((u, v))
    for (u, v), (u2, _) in zip(units, units[1:]):
        if u.dim == u2.dim:
            ok &= distance(u, u2) <= distance(u, v) + distance(v, u2) + 1e-10
    assert _report(2, "unitary distance axioms and norm bounds", ok)


def test_criterion_03_lattice_minimizer_and_cover_bounds():
    rng = np.random.default_rng(21)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        args = rng.uniform(-np.pi, np.pi, size=n)
        target = args.sum() + 2.0 * np.pi * int(rng.integers(-3, 4))
        radius, _ = solve_lattice(LatticeProblem(args, target))
        brute_radius, _ = harness.brute_force_lattice(args, target)
        ok &= abs(radius - brute_radius) <= 1e-12
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = harness.random_unitary_with_phase(rng, n)
        b = harness.random_unitary_with_phase(rng, n)
        d = cover_distance(a, b)
        lower = abs(b.phase - a.phase) / n
        ok &= lower <= d + 1e-10
        ok &= d <= lower + 2.0 * np.pi + 1e-10
    assert _report(3, "exact lattice minimizer and cover distance bounds", ok)


def test_criterion_04_small_distance_collapse():
    rng = np.random.default_rng(22)
    ok = True
    hits = 0
    for _ in range(400):
        n = int(rng.integers(2, 9))
        a = harness.random_unitary_with_phase(rng, n)
        herm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        herm = 0.5 * (herm + herm.conj().T)
        eps = rng.uniform(0.0, 0.4) / max(1.0, np.linalg.norm(herm, ord=2))
        b_mat = a.u.mat @ scipy.linalg.expm(1j * eps * herm)
        b = UnitaryWithPhase(Unitary(b_mat), a.phase + eps * np.trace(herm).real)
        d_cover = cover_distance(a, b)
        if d_cover > 0.5 * np.pi / n:
            continue
        hits += 1
        ok &= abs(d_cover - distance(a.u, b.u)) <= 1e-9
    ok &= hits >= 50
    assert _report(4, "cover distance collapses to group distance", ok)


def test_criterion_05_toeplitz_height_spectrum():
    ok = True
    for k in (8, 32, 128):
        space = quantize.build_space(k)
        t3 = quantize.toeplitz(space, ham.height())
        expected = np.sort((k - 2.0 * np.arange(k + 1)) / (k + 2.0))
        ok &= np.max(np.abs(np.linalg.eigvalsh(t3) - expected)) <= 1e-9
    assert _report(5, "height Toeplitz spectrum", ok)


def test_criterion_06_trace_expansion():
    ks = (16, 32, 64, 128)
    ok = True
    for h in (ham.constant(1.0), ham.height(), ham.height_squared()):
        residuals = []
        for k in ks:
            space = quantize.build_space(k)
            residuals.append(
                (2.0 * np.pi / k) * quantize.trace_residual(space, h)
            )
        slope = harness.fit_slope(ks, residuals)
        ok &= slope is None or slope <= -0.8
    for k in ks:
        space = quantize.build_space(k)
        ok &= abs(quantize.trace_residual(space, ham.constant(1.0))) <= 1e-8
    assert _report(6, "two-term operator trace expansion", ok)


def test_criterion_07_holomorphic_phase_prediction():
    ok = True
    for preset, params in (("constant", {"c": 0.7}), ("tilted-height", {"c": 0.4})):
        cfg = harness.ExperimentConfig(
            experiment="theorem1",
            preset=preset,
            preset_params=params,
            ks=(8, 16, 32, 64),
            grid_theta=16,
            grid_phi=32,
            time_samples=16,
        )
        report = harness.run_theorem1_holomorphic(cfg)
        ok &= report.checks_passed
        ok &= report.summary["max_residual"] <= 1e-5
    # closed form for the constant path: phase = -k c (k + 1)
    space = quantize.build_space(16)
    result = propagate.propagate_ks(space, ham.constant(0.7), steps=32)
    ok &= abs(result.phase - (-16 * 0.7 * 17)) <= 1e-9
    assert _report(7, "holomorphic flow determinant phase", ok)


def test_criterion_08_general_flow_phase_trend():
    cfg = harness.ExperimentConfig(
        experiment="prop53", preset="time-mixed", ks=(8, 16, 32, 64)
    )
    report = harness.run_prop53(cfg)
    slope = report.summary["residual_slope"]
    ok = report.checks_passed and (slope is None or slope <= 0.2)
    assert _report(8, "inverse-path phase residual non-growing", ok)


def test_criterion_09_toeplitz_vs_prequantum_propagation():
    ks = (8, 16, 32, 64)
    ok = True
    for h in (ham.height(), ham.coordinate(0)):
        values = []
        for k in ks:
            space = quantize.build_space(k)
            a = propagate.propagate_toeplitz(space, h, steps=128).with_phase()
            b = propagate.propagate_ks(space, h, steps=128).with_phase()
            values.append(cover_distance(a, b))
        slope = harness.fit_slope(ks, values)
        ok &= slope is None or slope <= 0.2
    assert _report(9, "Toeplitz/prequantum propagator distance bounded", ok)


def test_criterion_10_homomorphism_defect():
    ks = (8, 16, 32, 64)

    def defects(**config):
        report = harness.run_defect(
            harness.ExperimentConfig(experiment="defect", ks=ks, **config)
        )
        return np.array([row["defect"] for row in report.rows])

    d = defects(
        preset="height-squared",
        preset_params={"scale": 2.0},
        preset_b="x1",
        preset_b_params={"scale": 2.0},
        steps=128,
    )
    slope = harness.fit_slope(ks, d, floor=1e-6)
    ok = slope is None or slope <= 0.2
    d_comm = defects(
        preset="height", preset_b="height", preset_b_params={"scale": 0.6}, steps=64
    )
    ok &= np.max(d_comm) <= 1e-6
    assert _report(10, "quantized product defect bounded", ok)


def test_criterion_11_calabi_morphism():
    grid = build_grid(16, 32)
    a = ham.height_squared()
    b = ham.coordinate(0, 0.7)
    # the product path's Calabi by the two-point Gauss rule of each Magnus
    # step: 24 time nodes, as many as calabi's own
    steps = 12
    product = propagate.product_samples(a, b, grid, steps, flow_steps=256)
    product_calabi = sum(
        0.5 / steps * sphere.integrate_values(grid, values)
        for values in product.values
    )
    additivity = abs(product_calabi - calabi(a, grid) - calabi(b, grid))
    ok = additivity <= 1e-7
    tau = 0.37
    rotation = calabi(ham.constant(-tau), grid)
    ok &= abs(rotation - (-tau * 2.0 * np.pi)) <= 1e-7
    assert _report(11, "Calabi additivity and fiber-rotation value", ok)


def test_criterion_12_scalar_curvature():
    grid = build_grid(16, 32)
    s_round = oracles.scalar_curvature(oracles.RoundStructure(), grid)
    ok = np.max(np.abs(s_round - 2.0)) <= 1e-4

    pushed = oracles.PushforwardStructure(oracles.RoundStructure(), ham.height_squared(), 0.6)
    s_pushed = oracles.scalar_curvature(pushed, grid)
    ok &= abs(sphere.integrate_values(grid, s_pushed) - 4 * np.pi) <= 1e-3

    inner = oracles.PushforwardStructure(oracles.RoundStructure(), ham.coordinate(0, 0.8), 0.5)
    outer = oracles.PushforwardStructure(inner, ham.height_squared(), 0.4)
    s_outer = oracles.scalar_curvature_at(outer, grid.nodes)
    y = flow.transport_backward(ham.height_squared(), grid.nodes, 0.4, steps=256)
    ok &= np.max(np.abs(s_outer - oracles.scalar_curvature_at(inner, y))) <= 1e-4
    assert _report(12, "scalar curvature value, integral, equivariance", ok)


def test_criterion_13_loop_invariant_sanity():
    grid_mid = build_grid(16, 32)
    ok = True
    for h in (ham.height(), ham.coordinate(1, 0.7)):
        ok &= abs(invariants.shelukhin(h, grid_mid, time_samples=16).total) <= 1e-6

    h = ham.height_squared()
    kwargs = dict(time_samples=64)
    s_coarse = invariants.shelukhin(h, build_grid(12, 24), **kwargs).total
    s_mid = invariants.shelukhin(h, grid_mid, **kwargs).total
    s_fine = invariants.shelukhin(h, build_grid(20, 40), **kwargs).total
    ok &= abs(s_mid - s_coarse) < 1e-4
    ok &= abs(s_fine - s_mid) < 1e-4

    reparam = ham.Reparametrized(h, lambda t: t * t, lambda t: 2.0 * t)
    s_rep = invariants.shelukhin(reparam, grid_mid, **kwargs).total
    ok &= abs(s_rep - s_mid) <= 1e-6
    assert _report(13, "loop invariant vanishing, convergence, reparametrization", ok)
