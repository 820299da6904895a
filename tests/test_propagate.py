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
    for h in (ham.height(), ham.coordinate(0)):
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


def test_xi_path_advances_the_flow_three_steps_per_magnus_step(monkeypatch):
    # one RK4 step to each Gauss point and one to the end of every step
    # but the last, whose end no sample reads
    calls = []
    advance = flow.advance_state

    def counted(h, y, m, t0, t1, steps=1):
        calls.append((steps, len(y)))
        return advance(h, y, m, t0, t1, steps)

    monkeypatch.setattr(flow, "advance_state", counted)
    space = quantize.build_space(8)
    propagate.xi_path(space, ham.time_mixed(), steps=4)
    assert space.grid.size == 288
    assert calls == [(1, 288)] * 11


def test_xi_path_on_the_shared_grid_matches_each_levels_own_grid():
    # the pulled-back samples of the k = 64 grid serve the lower levels;
    # their phases move only by quadrature rounding
    h = ham.time_mixed()
    grid = quantize.sweep_grid((8, 16, 32, 64))
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
    other_grid = quantize.build_space(8, sphere.build_grid(12, 24))
    with pytest.raises(ValueError, match="their own grid"):
        propagate.xi_path(other_grid, pulled, steps=4)
    samples = propagate.product_samples(
        ham.height_squared(), ham.coordinate(0), space.grid, steps=4, flow_steps=8
    )
    with pytest.raises(ValueError, match="other Magnus steps"):
        propagate.propagate_ks(space, samples, steps=2)


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
    quantize.trace_residual(sp, ham.height_squared())
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
}

BUILDERS = {
    "toeplitz": quantize.toeplitz,
    "ks": lambda sp, p: quantize.kostant_souriau(sp, p.value(sp.grid.nodes)),
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
    # a generator without ``groups`` is read per step and exponentiated by
    # the dense eigh: the oracle of the structured tridiagonal route
    calls = _count_routes(monkeypatch)
    steps = 32
    grid = quantize.sweep_grid((8, 64))
    for k in (8, 64):
        space = quantize.build_space(k, grid)
        for name, h in TRIDIAGONAL_PATHS.items():
            for builder in BUILDERS.values():
                generator = propagate._separable_generator(space, h, builder)
                for sign in (-1.0, 1.0):
                    before = dict(calls)
                    u, phase = propagate._magnus(space, generator, steps, sign)
                    assert calls["tridiagonal"] - before["tridiagonal"] == steps, name
                    assert calls["dense"] == before["dense"], name
                    u_dense, phase_dense = propagate._magnus(
                        space, lambda t: generator(t), steps, sign
                    )
                    assert np.max(np.abs(u - u_dense)) <= 1e-12, (name, k)
                    assert abs(phase - phase_dense) <= 1e-12, (name, k)


def test_public_propagators_take_the_tridiagonal_route(monkeypatch):
    calls = _count_routes(monkeypatch)
    space = quantize.build_space(16)
    h = ham.time_mixed()
    toeplitz = propagate.propagate_toeplitz(space, h, steps=8)
    ks = propagate.propagate_ks(space, h, steps=8)
    assert calls == {"dense": 0, "tridiagonal": 16}
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
                generator = propagate._separable_generator(space, h, builder)
                degrees = [degree for _, _, degree in generator.groups]
                assert propagate._step_band(degrees) <= 1, name
                coef, mats = propagate._separable_steps(
                    generator.groups, gauss, k, 1.0 / steps, -1.0
                )
                for c in coef:
                    step = np.tensordot(c, mats, 1)
                    norm = np.linalg.norm(step, 2)
                    assert np.max(np.abs(step[off_band])) <= 1e-14 * norm, (name, k)


def test_band_two_paths_and_coarse_grids_take_the_dense_route(monkeypatch):
    calls = _count_routes(monkeypatch)
    m = ham.Monomial
    band_two = ham.Polynomial(
        [m((1, 0, 0), time_fn=ham.sin_pi_t), m((0, 1, 0), time_fn=ham.identity_t)]
    )
    propagate.propagate_toeplitz(quantize.build_space(8), band_two, steps=4)
    propagate.propagate_ks(quantize.build_space(8), band_two, steps=4)
    assert calls == {"dense": 8, "tridiagonal": 0}
    # n_phi = k + 1: a mode |j| <= 1 may alias into entries off the band
    coarse = quantize.build_space(23, sphere.build_grid(20, 24))
    propagate.propagate_toeplitz(coarse, ham.time_mixed(), steps=4)
    assert calls == {"dense": 12, "tridiagonal": 0}
    finer = quantize.build_space(22, sphere.build_grid(20, 24))
    propagate.propagate_toeplitz(finer, ham.time_mixed(), steps=4)
    assert calls == {"dense": 12, "tridiagonal": 4}


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
        generator = propagate._separable_generator(space, h, builder)
        assert len(generator.groups) == 3
        assert propagate._step_band([degree for _, _, degree in generator.groups]) == 2
        for sign in (-1.0, 1.0):
            coef, mats = propagate._separable_steps(generator.groups, gauss, k, dt, sign)
            for c, (t1, t2) in zip(coef, gauss):
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
            _space(), propagate.ks_generator(_space(), h), steps
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
