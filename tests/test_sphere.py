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


def test_star_product_values_match_closed_form():
    # first factor rotates about the vertical axis; the composed generator
    # has the closed form x3 + cos(2t) x1 - sin(2t) x2
    star = sphere.star_product(ham.height(), ham.coordinate(0))
    grid = sphere.build_grid(8, 16)
    for t in (0.0, 0.4, 1.0):
        c, s = np.cos(2 * t), np.sin(2 * t)
        exact = grid.nodes[:, 2] + c * grid.nodes[:, 0] - s * grid.nodes[:, 1]
        got = star.value(grid.nodes, t)
        assert np.max(np.abs(got - exact)) < 1e-8


def test_star_product_chart_symbol_matches_closed_form():
    star = sphere.star_product(ham.height(), ham.coordinate(0))
    grid = sphere.build_grid(8, 16)
    t = 0.37
    c, s = np.cos(2 * t), np.sin(2 * t)
    exact_h = ham.Polynomial(
        [
            ham.Monomial((0, 0, 1), 1.0),
            ham.Monomial((1, 0, 0), c),
            ham.Monomial((0, 1, 0), -s),
        ]
    )
    vals, a = star.chart_symbol(grid.nodes, t)
    exact_vals, exact_a = flow.chart_symbol(exact_h, grid.nodes, t)
    assert np.max(np.abs(vals - exact_vals)) < 1e-8
    assert np.max(np.abs(a - exact_a)) < 1e-7


def test_star_product_propagation_shares_one_backward_sweep(monkeypatch):
    # 8 Magnus steps sample the generator at (n + 1/2 -+ sqrt(3)/6) / 8; at
    # 32 flow steps per unit time the gaps between samples (0.0264 first,
    # then 0.0722 within and 0.0528 between Magnus steps) take 1, 3 and 2
    # RK4 steps: 1 + 8 * 3 + 7 * 2 = 39 steps per node
    point_steps = []
    advance = flow.advance_state

    def counted(h, y, m, t0, t1, steps=1):
        point_steps.append(steps * len(y))
        return advance(h, y, m, t0, t1, steps)

    def per_time(*args, **kwargs):
        raise AssertionError("autonomous flow transported per sample time")

    monkeypatch.setattr(flow, "advance_state", counted)
    monkeypatch.setattr(flow, "transport_backward", per_time)
    space = quantize.build_space(8)
    star = sphere.star_product(
        ham.height_squared(2.0), ham.coordinate(0, 2.0), flow_steps=32
    )
    propagate.propagate_ks(space, star, steps=8)
    assert sum(point_steps) == 39 * space.grid.size

