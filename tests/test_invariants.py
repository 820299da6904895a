import numpy as np
import pytest

from spherequant import (
    flow,
    hamiltonians as ham,
    harness,
    invariants,
    quantize,
    propagate,
    siegel,
    sphere,
    unitary_metric,
)

import oracles


GRID = sphere.build_grid(12, 24)


def test_round_curvature_constant_two():
    s = oracles.scalar_curvature(oracles.RoundStructure(), GRID)
    assert np.max(np.abs(s - 2.0)) < 1e-6
    assert abs(sphere.integrate_values(GRID, s) - 4 * np.pi) < 1e-6


def test_pushforward_curvature_integral():
    ps = oracles.PushforwardStructure(oracles.RoundStructure(), ham.height_squared(), 0.6)
    s = oracles.scalar_curvature(ps, GRID)
    assert abs(sphere.integrate_values(GRID, s) - 4 * np.pi) < 1e-3


def test_curvature_equivariance():
    # S(phi_* j) = S(j) o phi^{-1}; with j itself a transported structure
    h1 = ham.coordinate(0, 0.8)
    h2 = ham.height_squared()
    inner = oracles.PushforwardStructure(oracles.RoundStructure(), h1, 0.5)
    outer = oracles.PushforwardStructure(inner, h2, 0.4)
    s_outer = oracles.scalar_curvature_at(outer, GRID.nodes)
    y = flow.transport_backward(h2, GRID.nodes, 0.4, steps=256)
    s_inner_pulled = oracles.scalar_curvature_at(inner, y)
    assert np.max(np.abs(s_outer - s_inner_pulled)) < 1e-4


def test_round_curvature_pairing_is_zero():
    # finite-difference oracle of the closed form: the time integral of
    # < S(j_t), normalized H_t > with S from Brioschi stencils on the
    # transported round structure (4 Gauss time nodes, 64 flow steps)
    ts, ws = np.polynomial.legendre.leggauss(4)
    ts, ws = 0.5 * (ts + 1.0), 0.5 * ws
    for h in (ham.height_squared(), ham.time_mixed()):
        pairing = 0.0
        for t, w in zip(ts, ws):
            j_t = oracles.PushforwardStructure(
                oracles.RoundStructure(), h, t, steps_per_unit_time=64
            )
            s = oracles.scalar_curvature_at(j_t, GRID.nodes)
            values = h.value(GRID.nodes, t)
            values = values - sphere.integrate_values(GRID, values) / sphere.TOTAL_VOLUME
            pairing += w * sphere.integrate_values(GRID, s * values)
        assert abs(pairing - invariants.ROUND_CURVATURE_PAIRING) <= 1e-5


def test_shelukhin_vanishes_on_rotations():
    for h in (ham.height(), ham.coordinate(1, 0.7)):
        sh = invariants.shelukhin(h, GRID, time_samples=8)
        assert abs(sh.disc_term) < 1e-8
        assert abs(sh.curvature_term) < 1e-6
        assert abs(sh.total) < 1e-6
    # the oracle of HOLOMORPHIC_DISC_TERM: a time-dependent path of three
    # affine groups, and a path just inside the holomorphy gate's bound
    # (remainder 7.5e-7; at 1e-4 the gate refuses and the term is 8e-13)
    m = ham.Monomial
    for h in (
        ham.Polynomial(
            [
                m((1, 0, 0), 1.0, time_fn=ham.sin_pi_t),
                m((0, 0, 1), 2.0, time_fn=ham.identity_t),
                m((0, 1, 0), 0.3),
            ]
        ),
        ham.Polynomial([m((1, 0, 0), 1.0), m((0, 0, 2), 1e-6)]),
    ):
        assert propagate.check_holomorphic(h) <= propagate.HOLOMORPHY_TOL
        sh = invariants.shelukhin(h, GRID, time_samples=8)
        assert abs(sh.disc_term - invariants.HOLOMORPHIC_DISC_TERM) <= 1e-12


def test_shelukhin_vanishes_on_constants():
    sh = invariants.shelukhin(ham.constant(0.9), GRID, time_samples=8)
    assert abs(sh.total) < 1e-8


def _backward_disc_term(h, grid, time_samples):
    # the backward route: the loop of pushforwards phi_t* j0 at the fixed
    # nodes, each transported afresh from time t (256 RK4 steps per unit)
    taus = np.stack(
        [
            siegel.to_upper_half_plane(
                oracles.PushforwardStructure(oracles.RoundStructure(), h, t, 256).evaluate(
                    grid.nodes
                )
            )
            for t in np.linspace(0.0, 1.0, time_samples + 1)
        ],
        axis=1,
    )
    return sphere.integrate_values(grid, invariants.extrapolated_loop_flux(taus))


def test_forward_disc_term_matches_the_backward_route():
    # the forward route reads the pullbacks phi_t^* j0 instead: the same
    # disc term, as the round curvature pairing vanishes.  On time-mixed
    # the two differ by the backward route's own error (3e-7 at 64 samples
    # against a 256-sample reference, where the forward route is off 1e-8)
    h2 = ham.height_squared()
    reparam = ham.Reparametrized(h2, lambda t: t * t, lambda t: 2.0 * t)
    for h, samples, bound in (
        (h2, 16, 1e-10),
        (reparam, 16, 1e-10),
        (ham.time_mixed(), 32, 1e-4),
    ):
        forward = invariants.shelukhin(h, GRID, time_samples=samples).disc_term
        assert abs(forward - _backward_disc_term(h, GRID, samples)) <= bound


def test_disc_flux_is_one_forward_sweep(monkeypatch):
    # 16 samples at 256 flow steps take 16 steps to each, 256 per node in
    # all; transports from each sample would take sum max(8, 16 i) = 2176
    point_steps = []
    advance = flow.advance_state

    def counted(h, y, m, t0, t1, steps=1):
        point_steps.append(steps * len(y))
        return advance(h, y, m, t0, t1, steps)

    def backward(*args, **kwargs):
        raise AssertionError("the disc flux transported backward")

    monkeypatch.setattr(flow, "advance_state", counted)
    monkeypatch.setattr(flow, "transport_backward", backward)
    flux = invariants._disc_flux(ham.time_mixed(), GRID.nodes, 16, 256)
    assert sum(point_steps) == 256 * GRID.size
    assert np.all(np.isfinite(flux))


def test_shelukhin_and_the_holomorphy_probe_use_no_backward_route(monkeypatch):
    def backward(*args, **kwargs):
        raise AssertionError("backward route called")

    monkeypatch.setattr(flow, "transport_backward", backward)
    monkeypatch.setattr(oracles, "PushforwardStructure", backward)
    for h in (ham.height_squared(), ham.time_mixed()):
        assert np.isfinite(invariants.shelukhin(h, GRID, time_samples=8).disc_term)
    propagate.check_holomorphic(ham.coordinate(0))


def test_shelukhin_total_is_sum_of_terms():
    sh = invariants.ShelukhinValue(disc_term=1.25, curvature_term=-0.5)
    assert sh.total == 0.75


def test_zero_counts_are_refused_at_the_library_boundary():
    # no steps per unit time would take one RK4 step per gap (|det J - 1|
    # of 10.8 for height-squared on 8 x 16), and no time samples a disc
    # term of 0.0 for any path (2.997 at 8 samples)
    h = ham.height_squared()
    grid = sphere.build_grid(8, 16)
    # an infinite rate used to die with OverflowError in math.ceil
    for steps in (0, -4, np.inf):
        with pytest.raises(ValueError, match="steps_per_unit_time"):
            next(flow.sweep(h, grid.nodes, [0.5, 1.0], steps))
        with pytest.raises(ValueError, match="steps_per_unit_time"):
            invariants.shelukhin(h, grid, time_samples=8, flow_steps=steps)
    # a time-dependent first factor used to take 8 RK4 steps per sample time
    reparametrized = ham.Reparametrized(ham.height(), lambda t: t * t, lambda t: 2.0 * t)
    for steps in (0, -5, np.inf):
        with pytest.raises(ValueError, match="steps_per_unit_time must be positive"):
            propagate.product_samples(reparametrized, h, grid, 2, flow_steps=steps)
    for samples in (0, -4, 6):
        with pytest.raises(ValueError, match="time_samples"):
            invariants.shelukhin(h, grid, time_samples=samples)


def test_cover_product_lifts_determinant():
    sp = quantize.build_space(6)
    a = propagate.propagate_ks(sp, ham.height(), steps=16).with_phase()
    b = propagate.propagate_ks(sp, ham.constant(0.3), steps=16).with_phase()
    prod = invariants.cover_product(a, b)
    det = np.linalg.det(prod.u.mat)
    assert abs(det - np.exp(1j * prod.phase)) < 1e-10


def _defects(**config):
    """The defect at each level of a ``harness.run_defect`` sweep."""
    report = harness.run_defect(harness.ExperimentConfig(experiment="defect", **config))
    return np.array([row["defect"] for row in report.rows])


def test_defect_on_the_shared_grid_matches_a_fine_reference():
    # the product path's symbol is not polynomial, so the level-8 grid
    # integrates it only to about 1e-5; the sweep grid of k = 64 is exact
    h_a, h_b = ham.height_squared(2.0), ham.coordinate(0, 2.0)
    fine = sphere.build_grid(80, 160)
    product = propagate.product_samples(h_a, h_b, fine, steps=8, flow_steps=32)
    reference, *_ = invariants.level_defect(
        quantize.build_space(8, fine), h_a, h_b, product, steps=8
    )
    shared = _defects(
        ks=(8, 64),
        steps=8,
        flow_steps=32,
        preset="height-squared",
        preset_params={"scale": 2.0},
        preset_b_params={"scale": 2.0},
    )[0]
    assert abs(shared - reference) <= 1e-9


def test_defect_trivial_second_factor():
    d = _defects(
        preset="height-squared",
        preset_b="constant",
        preset_b_params={"c": 0.0},
        ks=(4, 8),
        steps=32,
    )
    assert np.max(d) < 1e-6


def test_defect_commuting_rotations():
    d = _defects(
        preset="height", preset_b="height", preset_b_params={"scale": 0.6}, ks=(4, 8), steps=32
    )
    assert np.max(d) < 1e-6


def test_quantum_defect_symmetry_against_manual_product():
    # defect computed via the star generator agrees with the distance of
    # manually multiplied propagators for a holomorphic first factor
    d = _defects(preset="height", preset_b="x1", ks=(6,), steps=48)
    assert d[0] < 1e-5


def test_block_cover_distance_matches_the_full_one():
    # on certified product samples the defect reads the eigenvalues of the two
    # parity blocks of b.u a.u^H; the full eigvals of the same cover elements
    # agree to 1e-12, and so does the defect of the full route, the samples
    # without their axis.  The fold drops rounding from b.u a.u^H
    h_a = ham.height_squared(2.0)
    grid = quantize.default_grid(64)
    for h_b, axis in ((ham.coordinate(0, 2.0), "x1"), (ham.coordinate(1, -2.0), "x2")):
        product = propagate.product_samples(h_a, h_b, grid, steps=8, flow_steps=32)
        assert product.axis == axis
        full = propagate.ChartSamples(grid, product.values, product.flow_area_drift)
        for k in (8, 9, 64):
            space = quantize.build_space(k, grid)
            d, (ua, ub, uab), drop = invariants.level_defect(space, h_a, h_b, product, 8)
            reference = unitary_metric.cover_distance(invariants.cover_product(ua, ub), uab)
            assert abs(d - reference) <= 1e-12, (axis, k)
            d_full, _, no_drop = invariants.level_defect(space, h_a, h_b, full, 8)
            assert abs(d - d_full) <= 1e-12, (axis, k)
            assert no_drop is None
            assert np.isfinite(drop) and drop <= 1e-11, (axis, k, drop)
