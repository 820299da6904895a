"""Inputs that cannot be computed exactly fail at the public boundary.

One table feeds NaN, +-inf, bools and out-of-range values through every
public entry point.  Each case must raise ``ValueError`` whose message names
the input; a LinAlgError (a ValueError subclass), an OverflowError or a
silent result fails.
"""

import itertools

import numpy as np
import pytest

from spherequant import flow, hamiltonians as ham, harness, invariants, propagate, quantize, sphere
from spherequant.unitary_metric import Unitary, UnitaryWithPhase, cover_distance

NAN, INF = float("nan"), float("inf")


def _space():
    return quantize.build_space(4)


def _timed(value):
    """x1 whose time function is ``value`` for t > 1/2."""
    return ham.Polynomial(
        [ham.Monomial((1, 0, 0), time_fn=lambda t: value if t > 0.5 else t)]
    )


def _one_value(value):
    """Node values of x3 on the grid of ``_space()`` with one node set to ``value``."""
    values = _space().grid.nodes[:, 2].copy()
    values[7] = value
    return values


def _samples_with_one_nan():
    """ChartSamples of x3 on the grid of ``_space()`` at the Gauss times of 2
    Magnus steps, one node of the last row set to NaN."""
    values = np.array([_one_value(t) for t in propagate._gauss_times(2)])
    values[-1] = _one_value(NAN)
    return propagate.ChartSamples(_space().grid, values, 0.0)


def _cover(phase=0.0, n=2):
    return UnitaryWithPhase(Unitary(np.eye(n)), phase)


def _config(**fields):
    return harness.ExperimentConfig(experiment="defect", **fields)


GRID = sphere.build_grid(6, 12)
LEVELS = [8.0, 16.0, 32.0, 64.0]
RESIDUALS = [0.1, 0.05, 0.02, 0.01]

# (case, call, what the message must name)
CASES = [
    # hamiltonians
    ("monomial-nan", lambda: ham.Monomial((1, 0, 0), NAN), "coefficient"),
    ("monomial-inf", lambda: ham.Monomial((1, 0, 0), -INF), "coefficient"),
    ("monomial-bool", lambda: ham.Monomial((1, 0, 0), True), "coefficient"),
    ("monomial-str", lambda: ham.Monomial((1, 0, 0), "1"), "coefficient"),
    ("monomial-complex", lambda: ham.Monomial((1, 0, 0), 1j), "coefficient"),
    ("monomial-bool-power", lambda: ham.Monomial((True, 0, 0)), "powers"),
    ("monomial-negative-power", lambda: ham.Monomial((0, -1, 0)), "powers"),
    ("constant-nan", lambda: ham.constant(NAN), "coefficient"),
    ("height-inf", lambda: ham.height(INF), "coefficient"),
    ("height-squared-bool", lambda: ham.height_squared(True), "coefficient"),
    ("tilted-height-inf", lambda: ham.tilted_height(0.5, -INF), "coefficient"),
    ("coordinate-scale-nan", lambda: ham.coordinate(0, NAN), "coefficient"),
    ("coordinate-axis-3", lambda: ham.coordinate(3), "axis"),
    ("coordinate-axis-negative", lambda: ham.coordinate(-1), "axis"),
    ("coordinate-axis-bool", lambda: ham.coordinate(True), "axis"),
    ("coordinate-axis-float", lambda: ham.coordinate(1.0), "axis"),
    ("preset-nan", lambda: ham.preset("x1", scale=NAN), "coefficient"),
    ("value-nan-time", lambda: _timed(NAN).value(GRID.nodes, 0.75), "time function"),
    ("grad-complex-time", lambda: _timed(1j).grad(GRID.nodes, 0.75), "time function"),
    # sphere and quantize
    ("grid-nan", lambda: sphere.build_grid(NAN, 12), "n_theta"),
    ("grid-inf", lambda: sphere.build_grid(6, INF), "n_phi"),
    ("grid-bool", lambda: sphere.build_grid(True, 12), "n_theta"),
    ("grid-zero", lambda: sphere.build_grid(6, 0), "n_phi"),
    ("space-nan", lambda: quantize.build_space(NAN), "level k"),
    ("space-inf", lambda: quantize.build_space(INF), "level k"),
    ("space-bool", lambda: quantize.build_space(True), "level k"),
    ("space-zero", lambda: quantize.build_space(0), "level k"),
    (
        "toeplitz-one-ring-short",
        lambda: quantize.toeplitz(
            quantize.build_space(9, sphere.build_grid(12, 32)), ham.Monomial((0, 0, 15))
        ),
        "12 x 32 grid is not certified exact",
    ),
    (
        "toeplitz-one-azimuth-short",
        lambda: quantize.toeplitz(
            quantize.build_space(23, sphere.build_grid(20, 24)), ham.coordinate(0)
        ),
        "20 x 24 grid is not certified exact",
    ),
    (
        "kostant-souriau-nan-values",
        lambda: quantize.kostant_souriau(_space(), np.full(_space().grid.size, NAN)),
        "node values",
    ),
    ("compress-inf-value", lambda: _space().compress(_one_value(INF)), "node values"),
    (
        "propagate-ks-nan-sample",
        lambda: propagate.propagate_ks(_space(), _samples_with_one_nan(), 2),
        "node values must be finite",
    ),
    (
        "xi-path-nan-sample",
        lambda: propagate.xi_path(_space(), _samples_with_one_nan(), 2),
        "node values must be finite",
    ),
    (
        "kostant-souriau-complex-values",
        lambda: quantize.kostant_souriau(_space(), np.full(_space().grid.size, 1j)),
        "node values",
    ),
    # flow
    (
        "sweep-rate-str",
        lambda: list(flow.sweep(ham.time_mixed(), GRID.nodes, [0.5], "8")),
        "steps_per_unit_time",
    ),
    ("sweep-time-inf", lambda: list(flow.sweep(ham.time_mixed(), GRID.nodes, [INF], 8)), "times"),
    ("sweep-time-nan", lambda: list(flow.sweep(ham.time_mixed(), GRID.nodes, [NAN], 8)), "times"),
    (
        "sweep-time-complex",
        lambda: list(flow.sweep(ham.time_mixed(), GRID.nodes, [0.5, 1j], 8)),
        "times",
    ),
    (
        "sweep-time-bool",
        lambda: list(flow.sweep(ham.time_mixed(), GRID.nodes, [True], 8)),
        "times",
    ),
    (
        "sweep-jacobians-int",
        lambda: list(flow.sweep(ham.time_mixed(), GRID.nodes, [0.5], 8, 1)),
        "jacobians must be True or False",
    ),
    # sweep checks its inputs on the call, before the first state is read
    (
        "sweep-call-rate-str",
        lambda: flow.sweep(ham.time_mixed(), GRID.nodes, [0.5], "8"),
        "steps_per_unit_time",
    ),
    ("sweep-call-time-inf", lambda: flow.sweep(ham.time_mixed(), GRID.nodes, [INF], 8), "times"),
    ("sweep-call-time-nan", lambda: flow.sweep(ham.time_mixed(), GRID.nodes, [NAN], 8), "times"),
    ("sweep-call-time-complex", lambda: flow.sweep(ham.time_mixed(), GRID.nodes, [1j], 8), "times"),
    ("sweep-call-time-bool", lambda: flow.sweep(ham.time_mixed(), GRID.nodes, [True], 8), "times"),
    (
        "sweep-call-jacobians",
        lambda: flow.sweep(ham.time_mixed(), GRID.nodes, [0.5], 8, None),
        "jacobians must be True or False",
    ),
    (
        "transport-steps-negative",
        lambda: flow.transport_backward(ham.time_mixed(), GRID.nodes, 0.5, steps=-3),
        "steps must be a positive integer",
    ),
    (
        "transport-steps-zero",
        lambda: flow.transport_backward(ham.time_mixed(), GRID.nodes, 0.5, steps=0),
        "steps must be a positive integer",
    ),
    (
        "transport-steps-bool",
        lambda: flow.transport_backward(ham.time_mixed(), GRID.nodes, 0.5, steps=True),
        "steps must be a positive integer",
    ),
    (
        "transport-t-nan",
        lambda: flow.transport_backward(ham.time_mixed(), GRID.nodes, NAN, steps=8),
        "t must be a finite real",
    ),
    (
        "advance-steps-float",
        lambda: flow.advance_state(ham.time_mixed(), GRID.nodes, None, 0.0, 0.5, 2.5),
        "steps must be a positive integer",
    ),
    (
        "advance-t1-inf",
        lambda: flow.advance_state(ham.time_mixed(), GRID.nodes, None, 0.0, INF, 4),
        "t1 must be a finite real",
    ),
    (
        "advance-m-one-row",
        lambda: flow.advance_state(ham.time_mixed(), GRID.nodes, np.eye(3)[None], 0.0, 0.5, 4),
        "m must be one 3 x 3 Jacobian per point",
    ),
    (
        "advance-t0-complex",
        lambda: flow.advance_state(ham.time_mixed(), GRID.nodes, None, 1j, 0.5, 4),
        "t0 must be a finite real",
    ),
    ("per-time-steps-rate-none", lambda: flow.per_time_steps(None, 0.5), "steps_per_unit_time"),
    ("per-time-steps-t-nan", lambda: flow.per_time_steps(8, NAN), "t must be a finite real"),
    ("per-time-steps-t-inf", lambda: flow.per_time_steps(8, INF), "t must be a finite real"),
    ("per-time-steps-t-minus-inf", lambda: flow.per_time_steps(8, -INF), "t must be a finite real"),
    ("per-time-steps-t-str", lambda: flow.per_time_steps(8, "1"), "t must be a finite real"),
    ("per-time-steps-t-bool", lambda: flow.per_time_steps(8, True), "t must be a finite real"),
    # propagate
    (
        "toeplitz-steps-nan",
        lambda: propagate.propagate_toeplitz(_space(), ham.height(), NAN),
        "steps",
    ),
    (
        "toeplitz-steps-bool",
        lambda: propagate.propagate_toeplitz(_space(), ham.height(), True),
        "steps",
    ),
    ("ks-steps-inf", lambda: propagate.propagate_ks(_space(), ham.time_mixed(), INF), "steps"),
    ("ks-steps-zero", lambda: propagate.propagate_ks(_space(), ham.time_mixed(), 0), "steps"),
    (
        "toeplitz-nan-time",
        lambda: propagate.propagate_toeplitz(_space(), _timed(NAN), 4),
        "time function",
    ),
    ("ks-complex-time", lambda: propagate.propagate_ks(_space(), _timed(1j), 4), "time function"),
    ("ks-inf-time", lambda: propagate.propagate_ks(_space(), _timed(INF), 4), "time function"),
    ("xi-path-nan-time", lambda: propagate.xi_path(_space(), _timed(NAN), 4), "time function"),
    ("xi-path-steps-bool", lambda: propagate.xi_path(_space(), ham.height(), True), "steps"),
    ("pull-back-steps-inf", lambda: propagate.pull_back(ham.height(), GRID, INF), "steps"),
    ("pull-back-complex-time", lambda: propagate.pull_back(_timed(1j), GRID, 4), "time function"),
    (
        "product-flow-steps-inf",
        lambda: propagate.product_samples(ham.height(), ham.coordinate(0), GRID, 2, INF),
        "steps_per_unit_time",
    ),
    (
        "product-flow-steps-nan",
        lambda: propagate.product_samples(_timed(0.5), ham.coordinate(0), GRID, 2, NAN),
        "steps_per_unit_time",
    ),
    (
        "product-flow-steps-bool",
        lambda: propagate.product_samples(ham.height(), ham.coordinate(0), GRID, 2, True),
        "steps_per_unit_time",
    ),
    (
        "product-flow-steps-complex",
        lambda: propagate.product_samples(ham.time_mixed(), ham.coordinate(0), GRID, 2, 1j),
        "steps_per_unit_time",
    ),
    (
        "product-steps-nan",
        lambda: propagate.product_samples(ham.height(), ham.coordinate(0), GRID, NAN),
        "steps",
    ),
    (
        "product-nan-time",
        lambda: propagate.product_samples(_timed(NAN), ham.coordinate(0), GRID, 2, 8),
        "time function",
    ),
    (
        "product-second-factor-inf-time",
        lambda: propagate.product_samples(ham.height(), _timed(INF), GRID, 2, 8),
        "time function",
    ),
    # classical invariants
    ("calabi-nan-time", lambda: sphere.calabi(_timed(NAN), GRID), "time function"),
    ("calabi-complex-time", lambda: sphere.calabi(_timed(1j), GRID), "time function"),
    (
        "shelukhin-flow-steps-inf",
        lambda: invariants.shelukhin(ham.height(), GRID, 8, INF),
        "steps_per_unit_time",
    ),
    (
        "shelukhin-flow-steps-bool",
        lambda: invariants.shelukhin(ham.height(), GRID, 8, True),
        "steps_per_unit_time",
    ),
    (
        "shelukhin-flow-steps-str",
        lambda: invariants.shelukhin(ham.height(), GRID, 8, "32"),
        "steps_per_unit_time",
    ),
    (
        "shelukhin-samples-nan",
        lambda: invariants.shelukhin(ham.height(), GRID, NAN),
        "time_samples",
    ),
    (
        "shelukhin-samples-inf",
        lambda: invariants.shelukhin(ham.height(), GRID, INF),
        "time_samples",
    ),
    (
        "shelukhin-samples-bool",
        lambda: invariants.shelukhin(ham.height(), GRID, True),
        "time_samples",
    ),
    (
        "shelukhin-samples-float",
        lambda: invariants.shelukhin(ham.height(), GRID, 8.0),
        "time_samples",
    ),
    ("shelukhin-samples-6", lambda: invariants.shelukhin(ham.height(), GRID, 6), "time_samples"),
    (
        "shelukhin-nan-time",
        lambda: invariants.shelukhin(_timed(NAN), GRID, 8, 32),
        "time function",
    ),
    # cover distance
    ("cover-phase-nan", lambda: cover_distance(_cover(NAN), _cover()), "phase"),
    ("cover-phase-inf", lambda: cover_distance(_cover(), _cover(INF)), "phase"),
    ("cover-phase-bool", lambda: cover_distance(_cover(True), _cover()), "phase"),
    (
        "cover-unitary-nan",
        lambda: cover_distance(UnitaryWithPhase(Unitary(np.full((2, 2), NAN)), 0.0), _cover()),
        "unitary",
    ),
    ("cover-sizes", lambda: cover_distance(_cover(n=2), _cover(n=3)), "different sizes"),
    # harness
    ("fit-slope-level-nan", lambda: harness.fit_slope([8.0, NAN, 32.0, 64.0], RESIDUALS), "ks"),
    ("fit-slope-level-inf", lambda: harness.fit_slope([8.0, 16.0, 32.0, INF], RESIDUALS), "ks"),
    ("fit-slope-level-zero", lambda: harness.fit_slope([0.0, 16.0, 32.0, 64.0], RESIDUALS), "ks"),
    (
        "fit-slope-residual-nan",
        lambda: harness.fit_slope(LEVELS, [0.1, NAN, 0.02, 0.01]),
        "residuals",
    ),
    (
        "fit-slope-scale-inf",
        lambda: harness.fit_slope(LEVELS, RESIDUALS, scales=[INF] * 4),
        "scales",
    ),
    ("fit-slope-residuals-complex", lambda: harness.fit_slope([8, 16], [1j, 2j]), "residuals"),
    (
        "fit-slope-scales-complex",
        lambda: harness.fit_slope(LEVELS, RESIDUALS, scales=[1j] * 4),
        "scales",
    ),
    ("fit-slope-ks-complex", lambda: harness.fit_slope([8j, 16j], [0.1, 0.05]), "ks"),
    ("fit-slope-floor-nan", lambda: harness.fit_slope(LEVELS, RESIDUALS, floor=NAN), "floor"),
    ("fit-slope-floor-inf", lambda: harness.fit_slope(LEVELS, RESIDUALS, floor=INF), "floor"),
    ("fit-slope-floor-below-0", lambda: harness.fit_slope(LEVELS, RESIDUALS, floor=-1.0), "floor"),
    (
        "fit-slope-residuals-short",
        lambda: harness.fit_slope([8, 16, 32], [0.1, 0.2]),
        "ks, residuals and scales must be 1-D",
    ),
    (
        "fit-slope-scales-short",
        lambda: harness.fit_slope(LEVELS, RESIDUALS, scales=[1.0, 1.0]),
        "ks, residuals and scales must be 1-D",
    ),
    (
        "fit-slope-2d",
        lambda: harness.fit_slope([LEVELS, LEVELS], [RESIDUALS, RESIDUALS]),
        "ks, residuals and scales must be 1-D",
    ),
    ("config-ks-nan", lambda: _config(ks=(8, NAN)), "ks"),
    ("config-ks-bool", lambda: _config(ks=(True, 8)), "ks"),
    ("config-ks-zero", lambda: _config(ks=(0, 8)), "ks"),
    ("config-grid-nan", lambda: _config(grid_theta=NAN), "grid_theta"),
    ("config-steps-inf", lambda: _config(steps=INF), "steps"),
    ("config-flow-steps-bool", lambda: _config(flow_steps=True), "flow_steps"),
    ("config-flow-steps-inf", lambda: _config(flow_steps=INF), "flow_steps"),
    ("config-time-samples-6", lambda: _config(time_samples=6), "time_samples"),
    ("config-seed-negative", lambda: _config(seed=-1), "seed"),
    ("config-pairs-zero", lambda: _config(pairs=0), "pairs"),
    ("config-params-nan", lambda: _config(preset_params={"scale": NAN}), "preset_params"),
    ("config-params-bool", lambda: _config(preset_b_params={"scale": True}), "preset_b_params"),
]


@pytest.mark.parametrize("call, name", [case[1:] for case in CASES], ids=[c[0] for c in CASES])
def test_public_api_refuses_inputs_it_cannot_compute_exactly(call, name):
    with pytest.raises(ValueError, match=name) as info:
        call()
    assert not isinstance(info.value, np.linalg.LinAlgError), info.value


def _nan_on_call(fn, call):
    """fn, except that its ``call``-th call, counting from 1, returns NaN."""
    calls = itertools.count(1)

    def patched(*args, **kwargs):
        value = fn(*args, **kwargs)
        return NAN if next(calls) == call else value

    return patched


def _nan_residual_at_k8(phase_level):
    """harness._phase_level, except that the k = 8 row's residual is NaN."""

    def patched(*args):
        level = phase_level(*args)

        def nan_level(space):
            entries, covers = level(space)
            return ({**entries, "residual": NAN} if space.k == 8 else entries), covers

        return nan_level

    return patched


def _distance_sweep():
    return harness.run_distance_tests(harness.ExperimentConfig(experiment="distance", pairs=20))


def _theorem1_sweep():
    config = harness.ExperimentConfig(experiment="theorem1", preset="x1", ks=(4, 8), steps=4)
    return harness.run_theorem1_holomorphic(config)


# (case, module, name, the call of module.name that returns NaN, sweep, summary
# keys of the value the NaN reaches); _phase_level gives a NaN residual at k = 8.
# Each NaN arrives after a finite value of its check, so a builtin max, which
# keeps a NaN only when it comes first, would drop it
NAN_CHECKS = [
    ("distance-nan", harness, "distance", 5, _distance_sweep, ("worst", "metric_axioms")),
    ("norm-bounds-nan", np.linalg, "norm", 3, _distance_sweep, ("worst", "norm_bounds")),
    ("cover-bounds-nan", harness, "cover_distance", 3, _distance_sweep, ("worst", "cover_bounds")),
    ("theorem1-residual-nan", harness, "_phase_level", None, _theorem1_sweep, ("max_residual",)),
]


@pytest.mark.parametrize(
    "module, name, call, sweep, keys",
    [case[1:] for case in NAN_CHECKS],
    ids=[c[0] for c in NAN_CHECKS],
)
def test_a_nan_fails_the_check_it_reaches(monkeypatch, module, name, call, sweep, keys):
    fn = getattr(module, name)
    patched = _nan_residual_at_k8(fn) if call is None else _nan_on_call(fn, call)
    monkeypatch.setattr(module, name, patched)
    report = sweep()
    value = report.summary
    for key in keys:
        value = value[key]
    assert np.isnan(value)
    assert not report.checks_passed
