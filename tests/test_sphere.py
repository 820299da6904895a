import numpy as np
import pytest

from spherequant import flow, hamiltonians as ham, propagate, quantize, sphere

import oracles


def test_total_volume():
    g = sphere.build_grid()
    assert abs(g.weights.sum() - 2 * np.pi) < 1e-12
    assert np.all(g.weights > 0)


def test_polynomial_moments():
    # with the half-area normalization: integral of x3^2 is 2 pi / 3,
    # odd moments vanish, and x1^2 carries the same weight as x3^2
    g = sphere.build_grid(8, 16)
    x = g.nodes
    assert abs(sphere.integrate_values(g, x[:, 2] ** 2) - 2 * np.pi / 3) < 1e-12
    assert abs(sphere.integrate_values(g, x[:, 0] ** 2) - 2 * np.pi / 3) < 1e-12
    for i in range(3):
        assert abs(sphere.integrate_values(g, x[:, i])) < 1e-12
    assert abs(sphere.integrate_values(g, x[:, 0] * x[:, 2])) < 1e-12


def test_spherical_harmonic_orthogonality():
    g = sphere.build_grid(12, 24)
    x = g.nodes
    y20 = 3 * x[:, 2] ** 2 - 1.0
    y31 = x[:, 0] * (5 * x[:, 2] ** 2 - 1.0)
    assert abs(sphere.integrate_values(g, y20 * y31)) < 1e-12


def test_scalar_field_rejects_nonfinite():
    g = sphere.build_grid(4, 8)
    values = np.zeros(g.size)
    values[0] = np.nan
    with pytest.raises(ValueError):
        sphere.integrate_values(g, values)
    # a complex field used to lose its imaginary part with a ComplexWarning
    with pytest.raises(ValueError, match="field has complex values"):
        sphere.integrate_values(g, 1j * np.ones(g.size))


def test_grid_is_ring_major_by_construction():
    # node i * n_phi + j is (s cos phi_j, s sin phi_j, u) on Gauss ring i,
    # to the last bit, and a ring's nodes share one weight
    for n_theta, n_phi in [(1, 1), (4, 1), (1, 7), (5, 9), (6, 12), (9, 17), (24, 48)]:
        g = sphere.SphereGrid(n_theta, n_phi)
        u = np.polynomial.legendre.leggauss(n_theta)[0][:, None]
        s, phi = np.sqrt(1.0 - u**2), 2.0 * np.pi * np.arange(n_phi) / n_phi
        rings = g.nodes.reshape(n_theta, n_phi, 3)
        assert np.array_equal(rings[..., 0], s * np.cos(phi))
        assert np.array_equal(rings[..., 1], s * np.sin(phi))
        assert np.array_equal(rings[..., 2], np.broadcast_to(u, (n_theta, n_phi)))
        weights = g.weights.reshape(n_theta, n_phi)
        assert np.array_equal(weights, np.broadcast_to(weights[:, :1], weights.shape))
    for n_theta, n_phi, name in [
        (True, 12, "n_theta"),
        (0, 12, "n_theta"),
        (2.0, 12, "n_theta"),
        (3, 4.5, "n_phi"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            sphere.build_grid(n_theta, n_phi)
    g = sphere.build_grid(6, 12)
    # nodes and weights follow from the counts; no constructor takes them
    with pytest.raises(TypeError):
        sphere.SphereGrid(g.nodes, g.weights, 6, 12)
    # a NaN coefficient no longer reaches the holomorphy gate, whose
    # remainder norm is the one integral: its monomial refuses it first
    with pytest.raises(ValueError, match="coefficient must be a finite real number"):
        propagate.check_holomorphic(ham.height_squared(np.nan))


def test_integral_rejects_values_off_the_grid():
    g = sphere.build_grid(4, 8)
    with pytest.raises(ValueError, match="do not match the grid"):
        sphere.integrate_values(g, np.zeros(g.size + 1))
    with pytest.raises(ValueError, match="do not match the grid"):
        sphere.integrate_values(g, np.zeros((g.size, 1)))


def test_calabi_closed_forms():
    g = sphere.build_grid(8, 16)
    assert abs(sphere.calabi(ham.constant(0.7), g) - 0.7 * 2 * np.pi) < 1e-12
    # time-dependent: sin(pi t) x1 + t x3^2 integrates to (1/2)(2 pi / 3)
    assert abs(sphere.calabi(ham.time_mixed(), g) - np.pi / 3) < 1e-10


def _product_generator(rate, angle):
    """rate x3 + cos(angle) x1 - sin(angle) x2"""
    return ham.Polynomial(
        [
            ham.Monomial((0, 0, 1), rate),
            ham.Monomial((1, 0, 0), np.cos(angle)),
            ham.Monomial((0, 1, 0), -np.sin(angle)),
        ]
    )


def _assert_chart_symbols(samples, exact_at):
    """Every sample against the closed form exact_at(t): its values, and
    its operator at k = 1, 4, 8 against the closed form's operator by the
    one-form route."""
    nodes = samples.grid.nodes
    spaces = [quantize.build_space(k, samples.grid) for k in (1, 4, 8)]
    times = propagate._gauss_times(len(samples.values) // 2)
    for i, (t, vals) in enumerate(zip(times, samples.values, strict=True)):
        exact = exact_at(t)
        exact_vals = exact.value(nodes, t)
        assert np.max(np.abs(vals - exact_vals)) < 1e-8
        a = oracles.chart_one_form(oracles.hamiltonian_vector_field(exact, nodes, t), nodes)
        for space in spaces:
            oracle = oracles.kostant_souriau_from_chart(space, exact_vals, a)
            assert np.max(np.abs(samples.operator(space, i) - oracle)) < 1e-8


def test_star_product_values_match_closed_form():
    # first factor rotates about the vertical axis; the composed generator
    # has the closed form x3 + cos(2t) x1 - sin(2t) x2
    grid = sphere.build_grid(8, 16)
    samples = propagate.product_samples(ham.height(), ham.coordinate(0), grid, steps=4)
    x1, x2, x3 = grid.nodes.T
    for t, vals in zip(propagate._gauss_times(4), samples.values, strict=True):
        exact = x3 + np.cos(2 * t) * x1 - np.sin(2 * t) * x2
        assert np.max(np.abs(vals - exact)) < 1e-8


def test_star_product_chart_symbol_matches_closed_form():
    grid = sphere.build_grid(8, 16)
    samples = propagate.product_samples(ham.height(), ham.coordinate(0), grid, steps=4)
    _assert_chart_symbols(samples, lambda t: _product_generator(1.0, 2 * t))


def test_star_product_of_a_time_dependent_path_matches_closed_form():
    # x3 run on the schedule t^2 is generated by 2t x3 and has turned by
    # 2t^2 at time t, so its product with the path of x1 is generated by
    # 2t x3 + cos(2t^2) x1 - sin(2t^2) x2
    f = ham.Reparametrized(ham.height(), lambda t: t * t, lambda t: 2.0 * t)
    grid = sphere.build_grid(16, 32)
    samples = propagate.product_samples(
        f, ham.coordinate(0), grid, steps=4, flow_steps=256
    )
    _assert_chart_symbols(samples, lambda t: _product_generator(2 * t, 2 * t * t))


def test_star_product_propagation_shares_one_backward_sweep(monkeypatch):
    # 8 Magnus steps sample the generator at (n + 1/2 -+ sqrt(3)/6) / 8; at
    # 32 flow steps per unit time the gaps between samples (0.0264 first,
    # then 0.0722 within and 0.0528 between Magnus steps) take 1, 3 and 2
    # RK4 steps: 1 + 8 * 3 + 7 * 2 = 39 steps per node, all without the
    # variational equation.
    # 2 x1 + 2 x3^2 is static but not axial, so RK4 integrates it; the
    # static axial 2 x3^2 has a closed-form flow and runs no RK4
    point_steps = {False: 0, True: 0}
    advance = flow.advance_state

    def counted(h, y, m, t0, t1, steps=1):
        with_jacobian = 0 if m is None else len(m)
        point_steps[False] += steps * (len(y) - with_jacobian)
        point_steps[True] += steps * with_jacobian
        return advance(h, y, m, t0, t1, steps)

    def per_time(*args, **kwargs):
        raise AssertionError("autonomous flow transported per sample time")

    monkeypatch.setattr(flow, "advance_state", counted)
    monkeypatch.setattr(flow, "transport_backward", per_time)
    grid = quantize.default_grid(8)
    first = ham.Polynomial([ham.Monomial((1, 0, 0), 2.0), ham.Monomial((0, 0, 2), 2.0)])
    propagate.product_samples(first, ham.coordinate(0, 2.0), grid, steps=8, flow_steps=32)
    assert point_steps == {False: 39 * grid.size, True: 0}
    point_steps.update({False: 0, True: 0})
    propagate.product_samples(
        ham.height_squared(2.0), ham.coordinate(0, 2.0), grid, steps=8, flow_steps=32
    )
    assert point_steps == {False: 0, True: 0}

