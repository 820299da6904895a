import numpy as np

from spherequant import (
    flow,
    hamiltonians as ham,
    invariants,
    quantize,
    propagate,
    sphere,
)


GRID = sphere.build_grid(12, 24)


def test_round_curvature_constant_two():
    s = invariants.scalar_curvature(flow.RoundStructure(), GRID)
    assert np.max(np.abs(s.values - 2.0)) < 1e-6
    assert abs(sphere.integrate(s) - 4 * np.pi) < 1e-6


def test_pushforward_curvature_integral():
    ps = flow.PushforwardStructure(flow.RoundStructure(), ham.height_squared(), 0.6)
    s = invariants.scalar_curvature(ps, GRID)
    assert abs(sphere.integrate(s) - 4 * np.pi) < 1e-3


def test_curvature_equivariance():
    # S(phi_* j) = S(j) o phi^{-1}; with j itself a transported structure
    h1 = ham.coordinate(0, 0.8)
    h2 = ham.height_squared()
    inner = flow.PushforwardStructure(flow.RoundStructure(), h1, 0.5)
    outer = flow.PushforwardStructure(inner, h2, 0.4)
    s_outer = invariants.scalar_curvature_at(outer, GRID.nodes)
    y, _ = flow.transport_backward(h2, GRID.nodes, 0.4, steps=256)
    s_inner_pulled = invariants.scalar_curvature_at(inner, y)
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
            j_t = flow.PushforwardStructure(
                flow.RoundStructure(), h, t, steps_per_unit_time=64
            )
            s = invariants.scalar_curvature_at(j_t, GRID.nodes)
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


def test_shelukhin_vanishes_on_constants():
    sh = invariants.shelukhin(ham.constant(0.9), GRID, time_samples=8)
    assert abs(sh.total) < 1e-8


def test_shelukhin_total_is_sum_of_terms():
    sh = invariants.ShelukhinValue(disc_term=1.25, curvature_term=-0.5)
    assert sh.total == 0.75


def test_cover_product_lifts_determinant():
    sp = quantize.build_space(6)
    a = propagate.propagate_ks(sp, ham.height(), steps=16).with_phase()
    b = propagate.propagate_ks(sp, ham.constant(0.3), steps=16).with_phase()
    prod = invariants.cover_product(a, b)
    det = np.linalg.det(prod.u.mat)
    assert abs(det - np.exp(1j * prod.phase)) < 1e-10


def test_defect_trivial_second_factor():
    d = invariants.defect(ham.height_squared(), ham.constant(0.0), ks=(4, 8), steps=32)
    assert np.max(d) < 1e-6


def test_defect_commuting_rotations():
    d = invariants.defect(ham.height(), ham.height(scale=0.6), ks=(4, 8), steps=32)
    assert np.max(d) < 1e-6


def test_quantum_defect_symmetry_against_manual_product():
    # defect computed via the star generator agrees with the distance of
    # manually multiplied propagators for a holomorphic first factor
    ks = (6,)
    d = invariants.defect(ham.height(), ham.coordinate(0), ks=ks, steps=48)
    assert d[0] < 1e-5
