import numpy as np
import pytest
import scipy.linalg

from spherequant import flow, hamiltonians as ham, propagate, quantize, sphere

import oracles


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
    for h in (ham.height(), ham.coordinate(0), ham.Polynomial([])):
        for propagate_fn, op in (
            (propagate.propagate_toeplitz, quantize.toeplitz(sp, h)),
            (
                propagate.propagate_ks,
                quantize.kostant_souriau(sp, h.value(sp.grid.nodes)),
            ),
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


def test_ks_propagator_is_the_spin_representation_of_its_rotation():
    # h_t = c0 + sum_i c_i(t) x_i propagates to exp(-i k c0) D^{k/2}(g), with
    # g the SU(2) path of the c_i.  At 16 Magnus steps the fourth-order
    # error is 1.974e-6 k (band 1) and 2.176e-6 k (band 2) in operator
    # norm, at every k and falling 16-fold per doubling of the steps; the
    # autonomous path is exact up to rounding (1.9e-11 at k = 64)
    m = ham.Monomial
    rotations = [
        m((1, 0, 0), 1.0, time_fn=ham.sin_pi_t),
        m((0, 0, 1), 2.0, time_fn=ham.identity_t),
    ]
    paths = (
        (ham.tilted_height(0.5), 0.5, lambda t: (0.0, 0.0, 1.0)),
        (ham.Polynomial(rotations), 0.0, lambda t: (np.sin(np.pi * t), 0.0, 2.0 * t)),
        (
            ham.Polynomial(rotations + [m((0, 1, 0), 0.3)]),
            0.0,
            lambda t: (np.sin(np.pi * t), 0.3, 2.0 * t),
        ),
    )
    for h, c0, c in paths:
        g = oracles.su2_propagator(c)
        for k in (8, 16, 32, 64):
            u = propagate.propagate_ks(quantize.build_space(k), h, steps=16).unitary
            expected = np.exp(-1j * k * c0) * oracles.spin_representation(k, g)
            assert np.linalg.norm(u - expected, 2) <= 3e-6 * k


def test_generators_of_a_reparametrized_path():
    # a Reparametrized path is a Polynomial whose terms carry the time
    # coefficient s'(t) c(s(t)), so both generators assemble it from its
    # separable terms; t^2 reparametrizes the height flow into 2t x3,
    # whose time integral over [0, 1] is x3
    h = ham.Reparametrized(ham.height(), lambda t: t * t, lambda t: 2.0 * t)
    for k in (8, 16):
        sp = quantize.build_space(k)
        m = np.arange(k + 1)
        ks = propagate.propagate_ks(sp, h, steps=16)
        ks_height = propagate.propagate_ks(sp, ham.height(), steps=16)
        assert np.max(np.abs(ks.unitary - np.diag(np.exp(-1j * (k - 2 * m))))) < 1e-10
        assert abs(ks.phase - ks_height.phase) < 1e-10
        toeplitz = propagate.propagate_toeplitz(sp, h, steps=16)
        toeplitz_height = propagate.propagate_toeplitz(sp, ham.height(), steps=16)
        assert np.max(np.abs(toeplitz.unitary - toeplitz_height.unitary)) < 1e-10
        assert abs(toeplitz.phase - toeplitz_height.phase) < 1e-10


def _count_advances(monkeypatch):
    """Record (steps, points without, points with a Jacobian) of every
    ``flow.advance_state`` call."""
    calls = []
    advance = flow.advance_state

    def counted(h, y, m, t0, t1, steps=1):
        with_jacobian = 0 if m is None else len(m)
        calls.append((steps, len(y) - with_jacobian, with_jacobian))
        return advance(h, y, m, t0, t1, steps)

    monkeypatch.setattr(flow, "advance_state", counted)
    return calls


def test_xi_path_advances_the_flow_three_steps_per_magnus_step(monkeypatch):
    # one RK4 step to each Gauss point and one to the end of every step
    # but the last, whose end no sample reads: the grid's points alone,
    # without the variational equation, since the area drift is read from
    # the samples
    calls = _count_advances(monkeypatch)
    space = quantize.build_space(8)
    propagate.xi_path(space, ham.time_mixed(), steps=4)
    assert space.grid.size == 288
    assert calls == [(1, 288, 0)] * 11


def test_pull_back_on_the_claims_config_counts_its_rk4_point_steps(monkeypatch):
    # prop53 as the claims workload runs it: ks <= 64 on default_grid(64),
    # 32 Magnus steps, so 3 * 32 - 1 = 95 stops, and no point with a Jacobian
    calls = _count_advances(monkeypatch)
    grid = quantize.default_grid(64)
    propagate.pull_back(ham.time_mixed(), grid, steps=32)
    assert grid.size == 3200
    point_steps = {True: 0, False: 0}
    for steps, without, with_jacobian in calls:
        point_steps[False] += steps * without
        point_steps[True] += steps * with_jacobian
    assert point_steps == {True: 0, False: 95 * 3200}


def test_pull_back_stops_are_the_gauss_times_and_step_ends_interleaved(monkeypatch):
    # the sorted stops equal, bit for bit, each step's two Gauss times and
    # its end, (n + LO) dt, (n + HI) dt, (n + 1) dt, without the last end
    seen = []

    def record(h, grid, stops, *rest):
        seen.append(stops)

    monkeypatch.setattr(propagate, "_flow_samples", record)
    lo, hi = propagate._GAUSS_LO, propagate._GAUSS_HI
    for steps in range(1, 65):
        seen.clear()
        propagate.pull_back(ham.time_mixed(), sphere.build_grid(4, 4), steps)
        dt = 1.0 / steps
        expected = [
            t for n in range(steps) for t in ((n + lo) * dt, (n + hi) * dt, (n + 1) * dt)
        ][:-1]
        (stops,) = seen
        assert np.array(stops).tobytes() == np.array(expected).tobytes(), steps


def test_pull_back_samples_are_real_node_values():
    grid = quantize.default_grid(8)
    h = ham.time_mixed()
    pulled = propagate.pull_back(h, grid, steps=4)
    # one row per Gauss time of the 4 steps
    assert isinstance(pulled.values, np.ndarray)
    assert pulled.values.dtype == np.float64 and pulled.values.shape == (8, grid.size)
    assert 0.0 < pulled.flow_area_drift < 1e-3


def _fourth_order_and_close(area, det):
    # each halving of the step divides a fourth-order error by about 16
    for drifts in (area, det):
        for coarse, fine in zip(drifts, drifts[1:]):
            assert 12.0 < coarse / fine < 20.0, drifts
    for a, d in zip(area, det):
        assert 0.1 < a / d < 10.0, (a, d)


def test_area_drift_and_the_sentinel_det_drift_are_fourth_order_and_close():
    # a Hamiltonian flow preserves mu, so the samples' integrals read RK4's
    # area error as the sentinel's Jacobian determinants did; on time-mixed
    # on default_grid(64) at 16, 32, 64 steps they read 4.41e-7, 2.68e-8,
    # 1.64e-9 against 1.06e-6, 6.59e-8, 4.11e-9
    h, grid = ham.time_mixed(), quantize.default_grid(64)
    area, det = [], []
    for steps in (16, 32, 64):
        # pull_back's stops: both Gauss times and the end of every step but the last
        times, dt = propagate._gauss_times(steps), 1.0 / steps
        stops = [t for n in range(steps) for t in (*times[2 * n : 2 * n + 2], (n + 1) * dt)][:-1]
        area.append(propagate.pull_back(h, grid, steps).flow_area_drift)
        det.append(oracles.sentinel_det_drift(h, stops, steps))
    _fourth_order_and_close(area, det)
    # the backward route of the product time-mixed x 2 x1 at 8 Magnus steps
    # and 16, 32, 64 flow steps: 1.86e-5, 1.30e-6, 8.04e-8 against 1.43e-5,
    # 1.01e-6, 6.29e-8
    stops = [-t for t in propagate._gauss_times(8)]
    area, det = [], []
    for flow_steps in (16, 32, 64):
        samples = propagate.product_samples(h, ham.coordinate(0, 2.0), grid, 8, flow_steps)
        area.append(samples.flow_area_drift)
        det.append(oracles.sentinel_det_drift(h, stops, flow_steps))
    _fourth_order_and_close(area, det)


# the presets without a time function, whose pull-back is the identity route
AUTONOMOUS_PRESETS = ("constant", "height", "x1", "x2", "tilted-height", "height-squared")


def test_pull_back_of_an_autonomous_path_is_the_path_itself(monkeypatch):
    # dH(X_H) = omega(X_H, X_H) = 0 conserves H along its own flow, so
    # H o phi_t = H: the samples are the node values of h, and no flow runs
    def fail(*args, **kwargs):
        raise AssertionError("the pull-back of an autonomous path ran a flow")

    monkeypatch.setattr(flow, "advance_state", fail)
    assert AUTONOMOUS_PRESETS == tuple(n for n, f in ham.PRESETS.items() if f().autonomous)
    grid = quantize.default_grid(8)
    for name in AUTONOMOUS_PRESETS:
        h = ham.preset(name)
        pulled = propagate.pull_back(h, grid, steps=4)
        # one row, the symbol at every Gauss time
        assert pulled.values.shape == (1, grid.size), name
        for t in propagate._gauss_times(4):
            assert np.array_equal(pulled.values[0], h.value(grid.nodes, t)), (name, t)
        assert pulled.flow_area_drift == 0.0


def test_xi_path_of_an_autonomous_path_is_its_direct_propagator():
    # on the RK4 route height-squared was 4.05e-5 off in u and 1.76e-4 in
    # phase at k = 16, 8 steps: the integrator's error, not the path's
    for name in AUTONOMOUS_PRESETS:
        h = ham.preset(name)
        for k in (8, 16):
            space = quantize.build_space(k)
            direct = propagate.propagate_ks(space, h, steps=8)
            inverse = propagate.xi_path(space, h, steps=8)
            assert np.max(np.abs(direct.unitary - inverse.unitary)) <= 1e-12, (name, k)
            assert abs(direct.phase - inverse.phase) <= 1e-12, (name, k)


def test_xi_path_of_an_autonomous_path_takes_one_exponential(monkeypatch):
    # the pull-back of an autonomous path is one symbol at every Gauss time,
    # so the Magnus steps multiply to one exponential: per level one
    # assembly and one eigh, where the step loop took 32 of each at 16 steps
    calls = {"assemblies": 0, "eigh": 0}
    assemble, eigh = quantize.kostant_souriau_modes, np.linalg.eigh

    def counted_assembly(*args):
        calls["assemblies"] += 1
        return assemble(*args)

    def counted_eigh(*args):
        calls["eigh"] += 1
        return eigh(*args)

    monkeypatch.setattr(quantize, "kostant_souriau_modes", counted_assembly)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    grid = quantize.default_grid(16)
    for name in AUTONOMOUS_PRESETS:
        pulled = propagate.pull_back(ham.preset(name), grid, steps=16)
        for k in (8, 16):
            calls.update(assemblies=0, eigh=0)
            propagate.xi_path(quantize.build_space(k, grid), pulled, steps=16)
            assert calls["assemblies"] == 1 and calls["eigh"] <= 1, (name, k, calls)


def test_product_samples_transport_a_time_dependent_factor_once_per_time(monkeypatch):
    # 8 Gauss times, each transported back on its own in max(8, 8 t) = 8
    # steps, the nodes alone and without the variational equation
    calls = _count_advances(monkeypatch)
    grid = quantize.default_grid(8)
    propagate.product_samples(ham.time_mixed(), ham.coordinate(0), grid, 4, flow_steps=8)
    assert grid.size == 288
    assert calls == [(8, 288, 0)] * 8


def test_xi_path_phase_is_the_trace_sum_of_its_samples(monkeypatch):
    # the phase is a trace sum of the samples, yet xi_path reads it from its
    # propagator: it never integrates a sample on the grid
    grid = quantize.default_grid(32)

    def refuse(*args):
        raise AssertionError("xi_path integrated a sample")

    # the one row of an autonomous path stands for every Gauss time
    for h in (ham.time_mixed(), ham.height_squared()):
        pulled = propagate.pull_back(h, grid, steps=8)
        for k in (8, 16, 32):
            expected = oracles.trace_sum_phase(k, pulled, 8)
            with monkeypatch.context() as patch:
                patch.setattr(sphere, "integrate_values", refuse)
                phase = propagate.xi_path(quantize.build_space(k, grid), pulled, steps=8).phase
            assert abs(phase - expected) <= 1e-12 * abs(expected), (k, phase, expected)


def test_xi_path_on_the_shared_grid_matches_each_levels_own_grid():
    # the pulled-back samples of the k = 64 grid serve the lower levels;
    # their phases move only by quadrature rounding
    h = ham.time_mixed()
    grid = quantize.default_grid(64)
    pulled = propagate.pull_back(h, grid, steps=32)
    for k in (8, 16, 32):
        shared = propagate.xi_path(quantize.build_space(k, grid), pulled, steps=32)
        own = propagate.xi_path(quantize.build_space(k), h, steps=32)
        assert abs(shared.phase - own.phase) <= 1e-9


def test_chart_samples_refuse_other_grids_and_steps():
    h = ham.time_mixed()
    space = quantize.build_space(8)
    pulled = propagate.pull_back(h, space.grid, steps=4)
    with pytest.raises(ValueError, match="other Magnus steps"):
        propagate.xi_path(space, pulled, steps=8)
    other_grid = quantize.build_space(8, sphere.build_grid(10, 20))
    with pytest.raises(ValueError, match="their own grid"):
        propagate.xi_path(other_grid, pulled, steps=4)
    # an equal grid built separately has the same nodes, bit for bit
    equal_grid = quantize.build_space(8, sphere.build_grid(12, 24))
    assert equal_grid.grid is not space.grid
    a = propagate.xi_path(space, pulled, steps=4)
    b = propagate.xi_path(equal_grid, pulled, steps=4)
    assert np.array_equal(a.unitary, b.unitary) and a.phase == b.phase
    samples = propagate.product_samples(
        ham.height_squared(), ham.coordinate(0), space.grid, steps=4, flow_steps=8
    )
    with pytest.raises(ValueError, match="other Magnus steps"):
        propagate.propagate_ks(space, samples, steps=2)
    # the message names the step count the samples were taken for
    with pytest.raises(ValueError, match="samples taken for 4 Magnus steps"):
        propagate.propagate_ks(space, samples, steps=8)
    with pytest.raises(ValueError, match="needs a polynomial path"):
        propagate.propagate_toeplitz(space, samples, steps=4)
    # three rows are neither one symbol nor two a step: no step count takes them
    three = propagate.ChartSamples(space.grid, samples.values[:3], 0.0)
    for propagate_fn in (propagate.propagate_ks, propagate.xi_path):
        for steps in (1, 2):
            message = "taken for 1.5 Magnus steps cannot serve other Magnus steps"
            with pytest.raises(ValueError, match=message):
                propagate_fn(space, three, steps)


def test_pushforward_unitary_requires_holomorphic_flow():
    with pytest.raises(propagate.HolomorphyError, match="round complex structure"):
        propagate.check_holomorphic(ham.height_squared())
    # rotations pass, about any axis; the exact gate integrates no flow, so
    # it admits a rotation at scale 12 that the 256-step RK4 probe refused
    # as under-resolved (det drift 2.3e-6)
    for h in (
        ham.tilted_height(0.2),
        ham.coordinate(0),
        ham.coordinate(1, 0.7),
        ham.height(8.0),
        ham.height(12.0),
    ):
        assert propagate.check_holomorphic(h) <= propagate.HOLOMORPHY_TOL
    assert issubclass(propagate.HolomorphyError, ValueError)


def test_holomorphy_gate_reads_the_sphere_not_the_ambient_polynomial():
    # x1^2 + x2^2 + x3^2 is the constant 1 on the sphere, which the exact
    # grid of the gate sees; x3^2 alone is not affine there, and its
    # remainder x3^2 - 1/3 has L2 norm sqrt(8 pi / 45), integrated exactly
    squares = ham.Polynomial([ham.Monomial(p) for p in ((2, 0, 0), (0, 2, 0), (0, 0, 2))])
    assert propagate.check_holomorphic(squares) <= 1e-15
    with pytest.raises(propagate.HolomorphyError, match="remainder 7.47e-01"):
        propagate.check_holomorphic(ham.Polynomial([ham.Monomial((0, 0, 2))]))
    small = propagate.check_holomorphic(ham.Polynomial([ham.Monomial((0, 0, 2), 1e-7)]))
    assert abs(small - 1e-7 * np.sqrt(8.0 * np.pi / 45.0)) <= 1e-20


def test_holomorphy_gate_refuses_a_nan_remainder(monkeypatch):
    # NaN passes a gate written as `worst > tol`, and max() drops it
    monkeypatch.setattr(propagate.sphere, "integrate_values", lambda grid, values: np.nan)
    with pytest.raises(propagate.HolomorphyError, match="remainder nan"):
        propagate.check_holomorphic(ham.coordinate(0))


def _verdict(h):
    try:
        propagate.check_holomorphic(h)
    except propagate.HolomorphyError:
        return False
    return True


def test_exact_holomorphy_gate_agrees_with_the_rk4_oracle():
    cases = {name: factory() for name, factory in ham.PRESETS.items()}
    cases["height(0.5)"] = ham.height(0.5)
    cases["height(8)"] = ham.height(8.0)
    cases["coordinate(1, 0.7)"] = ham.coordinate(1, 0.7)
    for name, h in cases.items():
        drift, defect = oracles.rk4_holomorphy(h)
        assert drift <= 1e-6, name
        assert _verdict(h) == (defect <= propagate.HOLOMORPHY_TOL), name


def test_exact_holomorphy_gate_reads_every_time_not_only_time_one():
    # H_t = cos(2 pi t) x3^2 turns each height circle about x3 by the angle
    # 4 x3 sin(2 pi t) / (2 pi), which vanishes at t = 1: phi_1 is the
    # identity and the oracle, which reads phi_1 alone, admits the path.
    # For 0 < t < 1 the angle varies with the height, so phi_t shears and
    # is not holomorphic; the exact gate sees the non-affine x3^2.
    h = ham.Polynomial(
        [ham.Monomial((0, 0, 2), 1.0, time_fn=lambda t: np.cos(2.0 * np.pi * t))]
    )
    drift, defect = oracles.rk4_holomorphy(h)
    assert drift <= 1e-6 and defect <= propagate.HOLOMORPHY_TOL
    with pytest.raises(propagate.HolomorphyError, match="round complex structure"):
        propagate.check_holomorphic(h)


def test_exact_holomorphy_gate_is_sufficient_not_necessary():
    # two groups with distinct but equal time functions: their x3^2 terms
    # cancel, so H_t = x1 generates a rotation, but the gate tests each
    # group alone and refuses the path
    h = ham.Polynomial(
        [
            ham.Monomial((1, 0, 0)),
            ham.Monomial((0, 0, 2), 1.0, time_fn=lambda t: t),
            ham.Monomial((0, 0, 2), -1.0, time_fn=lambda t: t),
        ]
    )
    assert len(h.separable_terms()) == 3
    drift, defect = oracles.rk4_holomorphy(h)
    assert drift <= 1e-6 and defect <= propagate.HOLOMORPHY_TOL
    with pytest.raises(propagate.HolomorphyError, match="round complex structure"):
        propagate.check_holomorphic(h)


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
    star = propagate.product_samples(
        ham.height_squared(), ham.coordinate(0), sp.grid, steps=2, flow_steps=8
    )
    propagate.propagate_toeplitz(sp, ham.time_mixed(), steps=2)
    propagate.propagate_ks(sp, ham.time_mixed(), steps=2)
    propagate.propagate_ks(sp, star, steps=2)
    propagate.xi_path(sp, ham.time_mixed(), steps=2)
    oracles.trace_residual(sp, ham.height_squared())
    assert "basis" not in vars(sp)
    assert "weighted_basis" not in vars(sp)


def _rotated_path(theta=0.7):
    # the spectral benchmark's path: a rotated x1/x2 term plus t x3^2
    m = ham.Monomial
    return ham.Polynomial(
        [
            m((1, 0, 0), np.cos(theta), time_fn=ham.sin_pi_t),
            m((0, 1, 0), np.sin(theta), time_fn=ham.sin_pi_t),
            m((0, 0, 2), 1.0, time_fn=ham.identity_t),
        ]
    )


TRIDIAGONAL_PATHS = {
    "time-mixed": ham.time_mixed(),
    "rotated x1/x2 + x3^2": _rotated_path(),
    "static height": ham.Polynomial(
        [ham.Monomial((1, 0, 0), time_fn=ham.sin_pi_t), ham.Monomial((0, 0, 1), 0.5)]
    ),
    "reparametrized time-mixed": ham.Reparametrized(
        ham.time_mixed(), lambda t: t * t, lambda t: 2.0 * t
    ),
    # the x1 coefficient changes sign mid-path, and so does the centre coupling
    "cos(2 pi t) x1 + t x3^2": ham.Polynomial(
        [
            ham.Monomial((1, 0, 0), time_fn=lambda t: np.cos(2.0 * np.pi * t)),
            ham.Monomial((0, 0, 2), 1.0, time_fn=ham.identity_t),
        ]
    ),
    # every superdiagonal of the first half of the steps is exactly zero, and
    # x2's is imaginary, so the first step's phases cannot frame the later steps
    "x2 from t = 1/2 + t x3^2": ham.Polynomial(
        [
            ham.Monomial((0, 1, 0), time_fn=lambda t: max(0.0, t - 0.5)),
            ham.Monomial((0, 0, 2), 1.0, time_fn=ham.identity_t),
        ]
    ),
}

BUILDERS = {
    "toeplitz": quantize.toeplitz,
    "ks": lambda sp, p: quantize.kostant_souriau(sp, p.value(sp.grid.nodes)),
}

# tridiagonal blocks per Magnus step: two half-size parity blocks when every
# power of x3 is even, one full-size block otherwise (the static 0.5 x3)
TRIDIAGONAL_BLOCKS = {
    "time-mixed": 2,
    "rotated x1/x2 + x3^2": 2,
    "static height": 1,
    "reparametrized time-mixed": 2,
    "cos(2 pi t) x1 + t x3^2": 2,
    "x2 from t = 1/2 + t x3^2": 2,
}


def _count_routes(monkeypatch):
    calls = {"dense": 0, "tridiagonal": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(propagate, "_expi", counted("dense", propagate._expi))
    monkeypatch.setattr(
        propagate, "_expi_tridiagonal", counted("tridiagonal", propagate._expi_tridiagonal)
    )
    return calls


def test_tridiagonal_route_matches_the_dense_oracle(monkeypatch):
    # oracles.dense_magnus reads A(t) per step and exponentiates by the
    # dense eigh: the oracle of the structured tridiagonal route
    calls = _count_routes(monkeypatch)
    steps = 32
    grid = quantize.default_grid(64)
    # N = k + 1 is odd at k = 2, 8 and 64 and even at k = 1 and 9: both centre
    # rules, and at k = 1 and 2 (N = 2, 3) blocks with no off-diagonal
    for k in (1, 2, 8, 9, 64):
        space = quantize.build_space(k, grid)
        for name, h in TRIDIAGONAL_PATHS.items():
            for builder in BUILDERS.values():
                groups = propagate._groups(space, h, builder)
                for sign in (-1.0, 1.0):
                    before = dict(calls)
                    u, phase, _ = propagate._magnus(space, groups, steps, sign)
                    blocks = TRIDIAGONAL_BLOCKS[name]
                    assert calls["tridiagonal"] - before["tridiagonal"] == blocks * steps, name
                    assert calls["dense"] == before["dense"], name
                    u_dense, phase_dense = oracles.dense_magnus(
                        space, oracles.group_generator(groups), steps, sign
                    )
                    assert np.max(np.abs(u - u_dense)) <= 1e-12, (name, k)
                    assert abs(phase - phase_dense) <= 1e-12, (name, k)


def test_public_propagators_take_the_tridiagonal_route(monkeypatch):
    calls = _count_routes(monkeypatch)
    space = quantize.build_space(16)
    h = ham.time_mixed()
    toeplitz = propagate.propagate_toeplitz(space, h, steps=8)
    ks = propagate.propagate_ks(space, h, steps=8)
    # time-mixed is even in x3: two parity blocks per step
    assert calls == {"dense": 0, "tridiagonal": 32}
    for res in (toeplitz, ks):
        res.with_phase()


def test_discarded_off_band_entries_are_rounding():
    steps = 16
    gauss = propagate._gauss_times(steps)
    for k in (8, 64):
        space = quantize.build_space(k)
        off_band = np.abs(np.subtract.outer(np.arange(k + 1), np.arange(k + 1))) >= 2
        for name, h in TRIDIAGONAL_PATHS.items():
            for builder in BUILDERS.values():
                groups = propagate._groups(space, h, builder)
                degrees = [degree for _, _, degree, _ in groups]
                assert propagate._step_band(degrees) <= 1, name
                coef, mats = propagate._separable_steps(
                    groups, gauss, k, 1.0 / steps, -1.0
                )
                for c in coef:
                    step = np.tensordot(c, mats, 1)
                    norm = np.linalg.norm(step, 2)
                    assert np.max(np.abs(step[off_band])) <= 1e-14 * norm, (name, k)


def test_x3_even_step_generators_are_centrosymmetric():
    # the half turn z -> 1/z maps z^m to z^{k-m}, x2 to -x2 and x3 to -x3, so
    # on a path whose groups are all even in x3 every step generator, gauged
    # real as D* G D, is unchanged when its rows and columns are reversed.
    # The parity split takes every step in one frame W instead, the gauge of
    # the halved phases of sum_n e_{n,j} e_{n,N-2-j} (e_n the superdiagonal of
    # step n): each W* G W is J-symmetric as a complex matrix, and the
    # J-antisymmetric part that the split drops is rounding
    steps = 16
    gauss = propagate._gauss_times(steps)
    m = ham.Monomial
    paths = {name: h for name, h in TRIDIAGONAL_PATHS.items() if TRIDIAGONAL_BLOCKS[name] == 2}
    paths["sin(pi t) (x1 x3^2 + 0.7 x2) + t x3^2"] = ham.Polynomial(
        [
            m((1, 0, 2), time_fn=ham.sin_pi_t),
            m((0, 1, 0), 0.7, time_fn=ham.sin_pi_t),
            m((0, 0, 2), 1.0, time_fn=ham.identity_t),
        ]
    )
    for k in (8, 9, 64, 128):
        space = quantize.build_space(k)
        for name, h in paths.items():
            for builder in BUILDERS.values():
                groups = propagate._groups(space, h, builder)
                assert all(even for *_, even in groups), name
                coef, mats = propagate._separable_steps(groups, gauss, k, 1.0 / steps, -1.0)
                generators = [np.tensordot(c, mats, 1) for c in coef]
                off = np.array([np.diagonal(step, 1) for step in generators])
                halves = 0.5 * np.angle(np.sum(off * off[:, ::-1], axis=0))
                frame = np.exp(-1j * np.concatenate(([0.0], np.cumsum(halves))))
                for step in generators:
                    angles = np.concatenate(([0.0], np.cumsum(np.angle(np.diagonal(step, 1)))))
                    gauge = np.exp(-1j * angles)
                    real = gauge.conj()[:, None] * step * gauge[None, :]
                    norm = np.linalg.norm(step, 2)
                    assert np.max(np.abs(real - real[::-1, ::-1])) <= 1e-13 * norm, (name, k)
                    framed = frame.conj()[:, None] * step * frame[None, :]
                    assert np.max(np.abs(framed - framed[::-1, ::-1])) <= 1e-13 * norm, (name, k)


def test_a_group_odd_in_x3_takes_one_full_size_block(monkeypatch):
    # the certificate is read from the powers: one group with x3 or x1 x3
    # makes it false, and every step is one block of size N = k + 1; an
    # x3-even path takes the two parity blocks, of sizes ceil(N/2) and floor(N/2)
    sizes = []
    solve = propagate._expi_tridiagonal

    def recorded(d, e, scale, v):
        sizes.append(len(d))
        return solve(d, e, scale, v)

    monkeypatch.setattr(propagate, "_expi_tridiagonal", recorded)
    m = ham.Monomial
    odd = {
        "sin(pi t) x1 + 0.5 x3": TRIDIAGONAL_PATHS["static height"],
        "sin(pi t) x1 x3 + t x3^2": ham.Polynomial(
            [m((1, 0, 1), time_fn=ham.sin_pi_t), m((0, 0, 2), 1.0, time_fn=ham.identity_t)]
        ),
    }
    steps = 8
    for k in (8, 9):
        space = quantize.build_space(k)
        for builder in BUILDERS.values():
            for name, h in odd.items():
                groups = propagate._groups(space, h, builder)
                assert [even for *_, even in groups].count(False) == 1, name
                sizes.clear()
                u, phase, _ = propagate._magnus(space, groups, steps, -1.0)
                assert sizes == [k + 1] * steps, (name, k)
                u_dense, phase_dense = oracles.dense_magnus(
                    space, oracles.group_generator(groups), steps, -1.0
                )
                assert np.max(np.abs(u - u_dense)) <= 1e-12, (name, k)
                assert abs(phase - phase_dense) <= 1e-12, (name, k)
            sizes.clear()
            even = propagate._groups(space, ham.time_mixed(), builder)
            propagate._magnus(space, even, steps, -1.0)
            # one block after the other: the symmetric one's steps, then the antisymmetric's
            assert sizes == [(k + 2) // 2] * steps + [(k + 1) // 2] * steps, k


def test_band_two_paths_take_the_dense_route_and_coarse_grids_are_refused(monkeypatch):
    calls = _count_routes(monkeypatch)
    m = ham.Monomial
    band_two = ham.Polynomial(
        [m((1, 0, 0), time_fn=ham.sin_pi_t), m((0, 1, 0), time_fn=ham.identity_t)]
    )
    propagate.propagate_toeplitz(quantize.build_space(8), band_two, steps=4)
    propagate.propagate_ks(quantize.build_space(8), band_two, steps=4)
    assert calls == {"dense": 8, "tridiagonal": 0}
    # n_phi = k + 1: x1's mode -1 aliases into entry (23, 0), so the grid is
    # refused before any route runs
    coarse = quantize.build_space(23, sphere.build_grid(20, 24))
    for propagate_fn in (propagate.propagate_toeplitz, propagate.propagate_ks):
        with pytest.raises(ValueError, match="a 20 x 24 grid is not certified exact for level 23"):
            propagate_fn(coarse, ham.time_mixed(), steps=4)
    assert calls == {"dense": 8, "tridiagonal": 0}
    finer = quantize.build_space(22, sphere.build_grid(20, 24))
    propagate.propagate_toeplitz(finer, ham.time_mixed(), steps=4)
    assert calls == {"dense": 8, "tridiagonal": 8}
    # the dense route of a band-two path exponentiates the step generators
    # of the once-formed commutators: the per-step oracle agrees
    for k in (8, 64):
        space = quantize.build_space(k)
        for builder in BUILDERS.values():
            groups = propagate._groups(space, band_two, builder)
            for sign in (-1.0, 1.0):
                u, phase, _ = propagate._magnus(space, groups, 4, sign)
                u_dense, phase_dense = oracles.dense_magnus(
                    space, oracles.group_generator(groups), 4, sign
                )
                assert np.max(np.abs(u - u_dense)) <= 1e-12, k
                assert abs(phase - phase_dense) <= 1e-12, k


STATIC_PRESETS = ("constant", "height", "x1", "x2", "tilted-height", "height-squared")
PROPAGATORS = {
    "toeplitz": propagate.propagate_toeplitz,
    "ks": propagate.propagate_ks,
}


def test_static_band_routes_match_the_dense_exponential():
    # a static path has no commutators, so its band is its largest azimuthal
    # degree: band 0 is exponentiated elementwise and band 1 by the
    # tridiagonal solver, and both agree with the dense eigh of exp(-i k A)
    for k in (*range(1, 34), 128):
        space = quantize.build_space(k)
        for name in STATIC_PRESETS:
            h = ham.preset(name)
            for builder_name, propagate_fn in PROPAGATORS.items():
                res = propagate_fn(space, h, 4)
                op = BUILDERS[builder_name](space, h)
                assert np.max(np.abs(res.unitary - propagate._expi(op, -k))) <= 1e-12, (name, k)
                # the phase sums k d_m, so its rounding is relative to k sum |d_m|
                scale = max(1.0, k * np.sum(np.abs(np.diag(op))))
                assert abs(res.phase + k * np.trace(op).real) <= 1e-12 * scale, (name, k)


def _static_forms(space, h):
    """Propagation of a static h at a step count, on both path forms."""
    return {
        "toeplitz": lambda steps: propagate.propagate_toeplitz(space, h, steps),
        "ks": lambda steps: propagate.propagate_ks(space, h, steps),
        "xi_path": lambda steps: propagate.xi_path(
            space, propagate.pull_back(h, space.grid, steps), steps
        ),
    }


def _as_bytes(res):
    return res.unitary.tobytes(), np.float64(res.phase).tobytes()


def test_a_static_path_takes_one_step_whatever_the_step_count(monkeypatch):
    # A is constant in time, so both Gauss points see it and the commutators
    # vanish: groups and samples alike run one step of length 1, and every
    # step count gives the same bytes
    for k in (8, 9):
        space = quantize.build_space(k)
        for name in STATIC_PRESETS:
            forms = _static_forms(space, ham.preset(name))
            for form, run in forms.items():
                first, *rest = (_as_bytes(run(steps)) for steps in (1, 4, 16))
                assert all(other == first for other in rest), (name, form, k)
            # one pull-back, taken at 4 steps, serves every step count
            shared = propagate.pull_back(ham.preset(name), space.grid, 4)
            for steps in (1, 4, 16):
                got = _as_bytes(propagate.xi_path(space, shared, steps))
                assert got == _as_bytes(forms["xi_path"](steps)), (name, k, steps)
    # x1 x2 has azimuthal degree 2: one dense exponential at every step count
    h = ham.Polynomial([ham.Monomial((1, 1, 0))])
    calls = _count_routes(monkeypatch)
    for k in (8, 9):
        space = quantize.build_space(k)
        for form, run in _static_forms(space, h).items():
            results = []
            for steps in (1, 4, 16):
                before = calls["dense"]
                results.append(run(steps))
                assert calls["dense"] - before == 1, (form, k, steps)
            assert len({_as_bytes(res) for res in results}) == 1, (form, k)
            op = BUILDERS["toeplitz" if form == "toeplitz" else "ks"](space, h)
            assert np.max(np.abs(results[0].unitary - propagate._expi(op, -k))) <= 1e-12
            assert abs(results[0].phase + k * np.trace(op).real) <= 1e-12
    assert calls["tridiagonal"] == 0


def test_static_paths_run_the_eigensolve_of_their_band(monkeypatch):
    calls = _count_routes(monkeypatch)
    space = quantize.build_space(16)
    for propagate_fn in PROPAGATORS.values():
        for name in ("constant", "height-squared", "tilted-height"):
            propagate_fn(space, ham.preset(name), 8)
        assert calls == {"dense": 0, "tridiagonal": 0}
    for propagate_fn in PROPAGATORS.values():
        before = calls["tridiagonal"]
        propagate_fn(space, ham.preset("x1"), 8)
        # one step, split into its two parity blocks
        assert calls["tridiagonal"] - before == 2
    assert calls["dense"] == 0


def test_time_dependent_band_zero_path_matches_the_dense_oracle(monkeypatch):
    # t x3^2 + sin(pi t) x3 / 2 + c: diagonal step generators commute, so the steps multiply
    # elementwise and no step runs an eigensolve
    calls = _count_routes(monkeypatch)
    h = ham.Polynomial(
        [
            ham.Monomial((0, 0, 2), 1.0, time_fn=ham.identity_t),
            ham.Monomial((0, 0, 1), 0.5, time_fn=ham.sin_pi_t),
            ham.Monomial((0, 0, 0), 0.3),
        ]
    )
    for k in (8, 64):
        space = quantize.build_space(k)
        for builder in BUILDERS.values():
            groups = propagate._groups(space, h, builder)
            assert propagate._step_band([degree for _, _, degree, _ in groups]) == 0
            for sign in (-1.0, 1.0):
                before = dict(calls)
                u, phase, _ = propagate._magnus(space, groups, 16, sign)
                assert calls == before
                u_dense, phase_dense = oracles.dense_magnus(
                    space, oracles.group_generator(groups), 16, sign
                )
                assert np.max(np.abs(u - u_dense)) <= 1e-12, k
                assert abs(phase - phase_dense) <= 1e-12, k


def test_non_finite_step_generators_are_refused_on_the_band_routes():
    # the finiteness of every step is checked once per propagation, before
    # the tridiagonal solver, which skips its own per-step check
    space = quantize.build_space(4)
    for powers, band in (((1, 0, 0), 1), ((0, 0, 1), 0)):
        message = f"band-{band} step generators are not finite"
        mats = np.stack([BUILDERS["ks"](space, ham.Polynomial([ham.Monomial(powers)]))])
        mats[0, 2 - band, 2] = np.nan  # a diagonal or superdiagonal entry
        with pytest.raises(ValueError, match=message):
            propagate._expi_steps(np.ones((3, 1)), mats, band, -1.0)
        # 0.5 (c(t1) + c(t2)) overflows to inf for c = 1e308
        path = ham.Polynomial([ham.Monomial(powers, 1.0, time_fn=lambda t: 1e308)])
        for propagate_fn in PROPAGATORS.values():
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match=message) as info:
                    propagate_fn(space, path, 4)
            assert not isinstance(info.value, np.linalg.LinAlgError)


def test_step_generator_from_once_formed_commutators():
    # three groups: sin(pi t) x1, t x3^2 and a static x2
    m = ham.Monomial
    h = ham.Polynomial(
        [
            m((1, 0, 0), time_fn=ham.sin_pi_t),
            m((0, 0, 2), 1.0, time_fn=ham.identity_t),
            m((0, 1, 0), 0.3),
        ]
    )
    k, steps = 16, 8
    dt = 1.0 / steps
    space = quantize.build_space(k)
    gauss = propagate._gauss_times(steps)
    for builder in BUILDERS.values():
        groups = propagate._groups(space, h, builder)
        generator = oracles.group_generator(groups)
        assert len(groups) == 3
        assert propagate._step_band([degree for _, _, degree, _ in groups]) == 2
        for sign in (-1.0, 1.0):
            coef, mats = propagate._separable_steps(groups, gauss, k, dt, sign)
            for c, t1, t2 in zip(coef, gauss[::2], gauss[1::2], strict=True):
                expected = propagate._magnus_effective(
                    generator(t1), generator(t2), k, dt, sign
                )
                assert np.max(np.abs(np.tensordot(c, mats, 1) - expected)) <= 1e-13


def _space():
    return quantize.build_space(4)


def _samples(grid, steps=2):
    return propagate.product_samples(
        ham.height_squared(), ham.coordinate(0), grid, steps, flow_steps=8
    )


# each entry point with its time-dependent, autonomous and sampled inputs
STEPS_ENTRY_POINTS = {
    "propagate_toeplitz": lambda: [
        lambda steps, h=h: propagate.propagate_toeplitz(_space(), h, steps)
        for h in (ham.time_mixed(), ham.height())
    ],
    "propagate_ks": lambda: [
        lambda steps, h=h: propagate.propagate_ks(_space(), h, steps)
        for h in (ham.time_mixed(), ham.height(), _samples(_space().grid))
    ],
    "propagate_generic": lambda: [
        lambda steps, h=h: propagate.propagate_generic(
            _space(), propagate._groups(_space(), h, BUILDERS["ks"]), steps
        )
        for h in (ham.time_mixed(), ham.height())
    ],
    "xi_path": lambda: [
        lambda steps, h=h: propagate.xi_path(_space(), h, steps)
        for h in (ham.time_mixed(), propagate.pull_back(ham.time_mixed(), _space().grid, 2))
    ],
    "pull_back": lambda: [
        lambda steps: propagate.pull_back(ham.time_mixed(), sphere.build_grid(6, 12), steps)
    ],
    "product_samples": lambda: [lambda steps: _samples(sphere.build_grid(6, 12), steps)],
}


@pytest.mark.parametrize("entry_point", sorted(STEPS_ENTRY_POINTS))
def test_entry_points_refuse_steps_that_are_not_positive_integers(entry_point):
    # steps = 0 used to die dividing by zero, and negative steps returned
    # the identity with phase 0
    for run in STEPS_ENTRY_POINTS[entry_point]():
        for steps in (0, -3, True, 2.0):
            with pytest.raises(ValueError, match="steps must be a positive integer"):
                run(steps)


def test_a_non_finite_coefficient_is_refused_before_propagation():
    # a NaN coefficient used to reach the Magnus driver, where eigh died with
    # LinAlgError: Eigenvalues did not converge
    space = quantize.build_space(4)
    for propagate_fn in (propagate.propagate_toeplitz, propagate.propagate_ks):
        for c in (np.nan, np.inf, -np.inf):
            for time_fn in (None, ham.sin_pi_t):
                with pytest.raises(ValueError, match="coefficient must be a finite real number"):
                    path = ham.Polynomial([ham.Monomial((1, 0, 0), c, time_fn=time_fn)])
                    propagate_fn(space, path, 4)


def test_a_non_finite_time_function_value_names_its_group():
    # NaN used to surface inside eigh_tridiagonal as "array must not contain
    # infs or NaNs", naming neither the path nor the group
    def nan_after_half(t):
        return np.nan if t > 0.5 else t

    path = ham.Polynomial(
        [
            ham.Monomial((0, 0, 2), 1.0, time_fn=ham.identity_t),
            ham.Monomial((1, 0, 0), 1.0, time_fn=nan_after_half),
        ]
    )
    space = quantize.build_space(4)
    # the first Gauss time past 1/2 at 4 steps is (2 + 1/2 - sqrt(3)/6) / 4
    for propagate_fn in (propagate.propagate_toeplitz, propagate.propagate_ks):
        with pytest.raises(ValueError, match=r"time function of group 1 is nan at t = 0\.5528"):
            propagate_fn(space, path, 4)
    # a complex value used to propagate silently: the tridiagonal route read
    # the non-Hermitian generator as Hermitian (propagate_ks gave phase -3.333)
    complex_path = ham.Polynomial(
        [
            ham.Monomial((1, 0, 0), 1.0, time_fn=lambda t: 1j * t),
            ham.Monomial((0, 0, 2), 1.0, time_fn=ham.identity_t),
        ]
    )
    # the first Gauss time is (1/2 - sqrt(3)/6) / 4
    message = r"time function of group 0 is 0\.0528\d*j at t = 0\.0528"
    for propagate_fn in (propagate.propagate_toeplitz, propagate.propagate_ks):
        with pytest.raises(ValueError, match=message):
            propagate_fn(space, complex_path, 4)


def test_a_non_finite_time_function_value_is_refused_on_the_flow_routes():
    # xi_path used to die in eigh with LinAlgError after RuntimeWarnings, and
    # product_samples returned NaN samples with a NaN det drift
    def nan_after_half(t):
        return np.nan if t > 0.5 else t

    path = ham.Polynomial([ham.Monomial((1, 0, 0), 1.0, time_fn=nan_after_half)])
    space = quantize.build_space(4)
    message = r"the time function is nan at t = 0\.\d+, not a finite real"
    with pytest.raises(ValueError, match=message):
        propagate.xi_path(space, path, 4)
    with pytest.raises(ValueError, match=message):
        propagate.product_samples(path, ham.height(), space.grid, 4, flow_steps=8)


# ---------------------------------------------------------------------------
# the half-turn parity route of certified product samples


def _certified_products(grid, steps=8, flow_steps=32):
    """The defect workload's product samples on ``grid``: 2 x3^2 composed with 2 x1
    (certified on x1) and with -2 x2 (certified on x2)."""
    h_a = ham.height_squared(2.0)
    return {
        axis: propagate.product_samples(h_a, h_b, grid, steps, flow_steps)
        for axis, h_b in (("x1", ham.coordinate(0, 2.0)), ("x2", ham.coordinate(1, -2.0)))
    }


def _uncertified(samples):
    return propagate.ChartSamples(samples.grid, samples.values, samples.flow_area_drift)


def _record_expi(monkeypatch):
    """The shapes of the arrays that ``propagate._expi`` exponentiates."""
    shapes = []
    expi = propagate._expi

    def recorded(a, scale):
        shapes.append(a.shape)
        return expi(a, scale)

    monkeypatch.setattr(propagate, "_expi", recorded)
    return shapes


def _hermitian(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return c + c.conj().T


def test_fold_and_unfold_are_inverse_on_the_commutant_of_the_half_turn():
    # the blocks are P F* b F P^T on the parity rows, the odd N antisymmetric one
    # padded with a zero row and column; unfolding them gives b back when F* b F
    # commutes with J, and a part that anticommutes with J is what the fold drops
    for n in (9, 10):
        h, lo = n // 2, n - n // 2
        for axis in ("x1", "x2"):
            frame = propagate._half_turn_frame(axis, n)
            f = np.ones(n) if frame is None else frame
            c = _hermitian(n, n)
            b = f[:, None] * (c + c[::-1, ::-1]) * f.conj()
            blocks, drop = propagate._fold_pairs(b, frame)
            assert blocks.shape == (2, lo, lo)
            assert not np.any(blocks[1, h:]) and not np.any(blocks[1, :, h:])
            s, a = blocks[0], blocks[1, :h, :h]
            for block in (s, a):
                assert np.max(np.abs(block - block.conj().T)) <= 1e-15
            back = propagate._frame_pairs(propagate._unfold_pairs(s, a), frame)
            assert np.max(np.abs(back - b)) <= 1e-14 * np.max(np.abs(b)), (n, axis)
            assert drop <= 1e-16, (n, axis)
            # the eigenvalues of the blocks are those of b
            lam = np.sort(np.concatenate([np.linalg.eigvalsh(s), np.linalg.eigvalsh(a)]))
            assert np.max(np.abs(lam - np.linalg.eigvalsh(b))) <= 1e-13
            r = _hermitian(n, n + 1)
            anti = 1e-3 * f[:, None] * (r - r[::-1, ::-1]) * f.conj()
            blocks, drop = propagate._fold_pairs(b + anti, frame)
            u = propagate._unfold_pairs(blocks[0], blocks[1, :h, :h])
            back = propagate._frame_pairs(u, frame)
            assert np.max(np.abs(back - b)) <= 1e-14 * np.max(np.abs(b)), (n, axis)
            expected = np.linalg.norm(anti) / np.linalg.norm(b + anti)
            assert abs(drop - expected) <= 1e-12 * expected, (n, axis)


def test_half_turn_certificate_is_read_from_the_powers():
    grid = sphere.build_grid(6, 12)
    table = [
        (ham.height_squared(), ham.coordinate(0), "x1"),
        (ham.height_squared(), ham.coordinate(1), "x2"),
        (ham.time_mixed(), ham.constant(1.0), "x1"),
        (ham.coordinate(0), ham.coordinate(1), None),
        # x3 is odd under both half turns
        (ham.height(), ham.coordinate(0), None),
    ]
    for f, g, axis in table:
        samples = propagate.product_samples(f, g, grid, 2, flow_steps=8)
        assert samples.axis == axis, (f.terms[0].powers, g.terms[0].powers)
    # pull_back certifies nothing, and samples made by hand carry no axis
    for name in ("height-squared", "time-mixed", "x1"):
        assert propagate.pull_back(ham.preset(name), grid, 2).axis is None
    assert propagate.ChartSamples(grid, np.zeros((1, grid.size)), 0.0).axis is None


def test_an_uncertified_product_takes_the_full_route(monkeypatch):
    # x1 composed with x2 keeps neither half turn: N x N steps, as for samples
    # without an axis, and a plain PropagationResult
    shapes = _record_expi(monkeypatch)
    space = quantize.build_space(8)
    samples = propagate.product_samples(
        ham.coordinate(0), ham.coordinate(1), space.grid, 4, flow_steps=8
    )
    assert samples.axis is None
    result = propagate.propagate_ks(space, samples, 4)
    assert shapes == [(9, 9)] * 4
    assert type(result) is propagate.PropagationResult


def test_certified_products_take_half_size_blocks_and_match_the_full_route(monkeypatch):
    # the full route, the same samples without their axis, is the oracle: the
    # propagators agree to 1e-12, and the phases to 1e-12 of their size; every
    # step exponentiates the stack of the two ceil(N/2) blocks, and the row
    # operators' dropped parts are rounding
    shapes = _record_expi(monkeypatch)
    grid = quantize.default_grid(64)
    for axis, samples in _certified_products(grid).items():
        assert samples.axis == axis
        full = _uncertified(samples)
        for k in (8, 9, 64):
            space = quantize.build_space(k, grid)
            for sign in (-1.0, 1.0):
                shapes.clear()
                u, phase, drop = propagate._magnus(space, samples, 8, sign)
                assert shapes == [(2, (k + 2) // 2, (k + 2) // 2)] * 8, (axis, k)
                shapes.clear()
                u_full, phase_full, none = propagate._magnus(space, full, 8, sign)
                assert shapes == [(k + 1, k + 1)] * 8 and none is None
                assert np.max(np.abs(u - u_full)) <= 1e-12, (axis, k)
                assert abs(phase - phase_full) <= 1e-12 * max(1.0, abs(phase_full)), (axis, k)
                assert np.isfinite(drop) and drop <= 1e-13, (axis, k, drop)
            result = propagate.propagate_ks(space, samples, 8)
            assert isinstance(result, propagate.ParityPropagationResult)
            assert result.unitary.shape == (k + 1, k + 1)
            result.with_phase()


def test_a_one_row_certified_sample_takes_one_block_step(monkeypatch):
    # a static certified symbol is one row: one stacked exponential whatever the
    # step count, equal to the full route's one exponential
    shapes = _record_expi(monkeypatch)
    h = ham.height_squared()
    for k in (8, 9):
        space = quantize.build_space(k)
        values = h.value(space.grid.nodes)[None, :]
        for axis in ("x1", "x2"):
            samples = propagate.ChartSamples(space.grid, values, 0.0, axis)
            for steps in (1, 4):
                shapes.clear()
                result = propagate.propagate_ks(space, samples, steps)
                assert shapes == [(2, (k + 2) // 2, (k + 2) // 2)]
                op = quantize.kostant_souriau(space, values[0])
                assert np.max(np.abs(result.unitary - propagate._expi(op, -k))) <= 1e-12
                scale = max(1.0, k * np.sum(np.abs(np.diag(op))))
                assert abs(result.phase + k * np.trace(op).real) <= 1e-12 * scale


def test_a_static_group_path_skips_the_step_machinery(monkeypatch):
    # one step with coefficient 1 and the group's matrix as it is: the bytes of
    # the route through _separable_steps at one step, which is never called
    separable = propagate._separable_steps

    def refuse(*args):
        raise AssertionError("a static path ran _separable_steps")

    for k in (8, 9, 64):
        space = quantize.build_space(k)
        for name in STATIC_PRESETS:
            for builder_name, builder in BUILDERS.items():
                groups = propagate._groups(space, ham.preset(name), builder)
                coef, mats = separable(groups, propagate._gauss_times(1), k, 1.0, -1.0)
                band = propagate._step_band([degree for _, _, degree, _ in groups])
                even = all(e for *_, e in groups)
                expected = propagate._expi_steps(coef, mats, band, -float(k), even)
                with monkeypatch.context() as patch:
                    patch.setattr(propagate, "_separable_steps", refuse)
                    u, phase, drop = propagate._magnus(space, groups, 16, -1.0)
                assert u.tobytes() == expected[0].tobytes(), (name, builder_name, k)
                assert np.float64(phase).tobytes() == np.float64(expected[1]).tobytes()
                assert drop is None
