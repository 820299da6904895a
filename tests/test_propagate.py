import numpy as np
import pytest
import scipy.linalg

from spherequant import flow, hamiltonians as ham, propagate, quantize, sphere


def test_constant_hamiltonian_closed_form():
    k, c = 8, 0.3
    sp = quantize.build_space(k)
    res = propagate.propagate_ks(sp, ham.constant(c), steps=16)
    assert np.max(np.abs(res.unitary - np.exp(-1j * k * c) * np.eye(k + 1))) < 1e-12
    assert abs(res.phase + k * c * (k + 1)) < 1e-10


def test_autonomous_propagation_matches_expm():
    # a time-independent generator is propagated by one exponential
    k = 16
    sp = quantize.build_space(k)
    for h in (ham.height(), ham.coordinate(0)):
        for propagate_fn, op in (
            (propagate.propagate_toeplitz, quantize.toeplitz(sp, h)),
            (propagate.propagate_ks, quantize.kostant_souriau(sp, h)),
        ):
            res = propagate_fn(sp, h, steps=16)
            expected = scipy.linalg.expm(-1j * k * op)
            assert np.max(np.abs(res.unitary - expected)) < 1e-10
            assert abs(res.phase + k * np.trace(op).real) < 1e-10


def test_height_hamiltonian_closed_form():
    k = 10
    sp = quantize.build_space(k)
    m = np.arange(k + 1)
    res = propagate.propagate_ks(sp, ham.height(), steps=16)
    expected = np.diag(np.exp(-1j * (k - 2 * m)))
    assert np.max(np.abs(res.unitary - expected)) < 1e-10
    assert abs(res.phase + np.sum(k - 2.0 * m)) < 1e-10


def test_phase_is_lift_of_determinant():
    sp = quantize.build_space(6)
    for h in (ham.height_squared(), ham.time_mixed()):
        res = propagate.propagate_ks(sp, h, steps=48)
        res.with_phase()  # raises if the lift is inconsistent


def test_unitarity_preserved_exactly():
    sp = quantize.build_space(24)
    res = propagate.propagate_toeplitz(sp, ham.time_mixed(), steps=64)
    gram = res.unitary.conj().T @ res.unitary
    assert np.max(np.abs(gram - np.eye(25))) < 1e-12


def test_step_refinement_fourth_order():
    sp = quantize.build_space(12)
    h = ham.time_mixed()
    ref = propagate.propagate_ks(sp, h, steps=256)
    errs = []
    for steps in (8, 16, 32):
        res = propagate.propagate_ks(sp, h, steps=steps)
        errs.append(np.linalg.norm(res.unitary - ref.unitary, 2))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert rate1 > 3.5
    assert rate2 > 3.5


def test_xi_path_phase_matches_direct_propagation():
    sp = quantize.build_space(8)
    for h in (ham.height(), ham.time_mixed()):
        direct = propagate.propagate_ks(sp, h, steps=64)
        inverse = propagate.xi_path(sp, h, steps=64)
        assert abs(direct.phase - inverse.phase) < 1e-6


def test_xi_path_unitary_matches_for_holomorphic_flow():
    # for rotations the pulled-back generator equals the static one
    sp = quantize.build_space(8)
    direct = propagate.propagate_ks(sp, ham.height(), steps=32)
    inverse = propagate.xi_path(sp, ham.height(), steps=32)
    assert np.max(np.abs(direct.unitary - inverse.unitary)) < 1e-9


def test_both_schrodinger_equations_on_time_dependent_rotation():
    # sin(pi t) x3 rotates about the vertical axis, so its flow is
    # holomorphic and the two equations (signs -1 and +1 of the shared
    # Magnus loop) give one propagator: diag(exp(-i (k - 2m) 2 / pi))
    h = ham.Polynomial([ham.Monomial((0, 0, 1), time_fn=ham.sin_pi_t)])
    for k in (8, 16):
        sp = quantize.build_space(k)
        direct = propagate.propagate_ks(sp, h, steps=32)
        inverse = propagate.xi_path(sp, h, steps=32)
        assert np.max(np.abs(direct.unitary - inverse.unitary)) < 1e-8
        assert abs(direct.phase - inverse.phase) < 1e-12
        m = np.arange(k + 1)
        expected = np.diag(np.exp(-1j * (k - 2 * m) * 2.0 / np.pi))
        for res in (direct, inverse):
            assert np.max(np.abs(res.unitary - expected)) < 1e-6


def test_xi_path_advances_the_flow_three_steps_per_magnus_step(monkeypatch):
    # one RK4 step to each Gauss point and one to the end of the step
    calls = []
    advance = flow.advance_state

    def counted(h, y, m, t0, t1, steps=1):
        calls.append((steps, len(y)))
        return advance(h, y, m, t0, t1, steps)

    monkeypatch.setattr(flow, "advance_state", counted)
    space = quantize.build_space(8)
    propagate.xi_path(space, ham.time_mixed(), steps=4)
    assert space.grid.size == 288
    assert calls == [(1, 288)] * 12


def test_pushforward_unitary_requires_holomorphic_flow():
    with pytest.raises(propagate.HolomorphyError, match="round complex structure"):
        propagate.check_holomorphic(ham.height_squared())
    # rotations pass, about any axis
    for h in (ham.tilted_height(0.2), ham.coordinate(0), ham.coordinate(1, 0.7)):
        propagate.check_holomorphic(h)
    assert issubclass(propagate.HolomorphyError, ValueError)


def test_toeplitz_and_ks_agree_for_constants():
    sp = quantize.build_space(8)
    rt = propagate.propagate_toeplitz(sp, ham.constant(0.5), steps=8)
    rk = propagate.propagate_ks(sp, ham.constant(0.5), steps=8)
    assert np.max(np.abs(rt.unitary - rk.unitary)) < 1e-12
    assert abs(rt.phase - rk.phase) < 1e-12


def test_propagation_never_builds_the_node_basis():
    # assembly runs ring by ring: no production path forms the
    # (nodes x (k+1)) basis, which QuantumSpace builds only on request
    sp = quantize.build_space(16)
    star = sphere.star_product(ham.height_squared(), ham.coordinate(0), flow_steps=8)
    propagate.propagate_toeplitz(sp, ham.time_mixed(), steps=2)
    propagate.propagate_ks(sp, ham.time_mixed(), steps=2)
    propagate.propagate_ks(sp, star, steps=2)
    propagate.xi_path(sp, ham.time_mixed(), steps=2)
    quantize.trace_residual(sp, ham.height_squared())
    assert "basis" not in vars(sp)
    assert "weighted_basis" not in vars(sp)
