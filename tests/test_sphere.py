import numpy as np
import pytest

from spherequant import flow, hamiltonians as ham, propagate, quantize, sphere


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
        sphere.ScalarField(values, g)


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
    for t, vals in samples.data.items():
        exact = exact_at(t)
        exact_vals = exact.value(nodes, t)
        assert np.max(np.abs(vals - exact_vals)) < 1e-8
        a = flow.chart_one_form(flow.hamiltonian_vector_field(exact, nodes, t), nodes)
        for space in spaces:
            oracle = quantize.kostant_souriau_from_chart(space, exact_vals, a)
            assert np.max(np.abs(samples.operator(space, t) - oracle)) < 1e-8


def test_star_product_values_match_closed_form():
    # first factor rotates about the vertical axis; the composed generator
    # has the closed form x3 + cos(2t) x1 - sin(2t) x2
    grid = sphere.build_grid(8, 16)
    samples = propagate.product_samples(ham.height(), ham.coordinate(0), grid, steps=4)
    x1, x2, x3 = grid.nodes.T
    for t, vals in samples.data.items():
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
    # RK4 steps: 1 + 8 * 3 + 7 * 2 = 39 steps per node.  The grid's nodes
    # go without the variational equation; the 72 sentinel nodes carry it
    point_steps = {False: 0, True: 0}
    advance = flow.advance_state

    def counted(h, y, m, t0, t1, steps=1):
        point_steps[m is not None] += steps * len(y)
        return advance(h, y, m, t0, t1, steps)

    def per_time(*args, **kwargs):
        raise AssertionError("autonomous flow transported per sample time")

    monkeypatch.setattr(flow, "advance_state", counted)
    monkeypatch.setattr(flow, "transport_backward", per_time)
    grid = quantize.default_grid(8)
    propagate.product_samples(
        ham.height_squared(2.0), ham.coordinate(0, 2.0), grid, steps=8, flow_steps=32
    )
    assert point_steps == {False: 39 * grid.size, True: 39 * 72}

