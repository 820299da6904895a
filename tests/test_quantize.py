import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from spherequant import flow, hamiltonians as ham, invariants, quantize, sphere


def test_dimension_law():
    for k in (1, 2, 5, 16):
        assert quantize.build_space(k).dim == k + 1


def test_basis_is_orthonormal_on_grid():
    for k in (4, 16, 48):
        sp = quantize.build_space(k)
        gram = sp.weighted_basis.conj().T @ sp.basis
        assert np.max(np.abs(gram - np.eye(k + 1))) < 1e-12


def test_monomial_norms_against_direct_quadrature():
    # independent radial integral: N_m = 2 pi Beta-type integral of
    # r^{2m} (1+r^2)^{-k-2} * 2 r dr equals 2 pi m! (k-m)! / (k+1)!
    k = 10
    for m in (0, 3, 7, 10):
        val, _ = quad(lambda r: r ** (2 * m + 1) * (1 + r**2) ** (-k - 2) * 2, 0, np.inf)
        closed = np.exp(
            gammaln(m + 1) + gammaln(k - m + 1) - gammaln(k + 2)
        )
        assert abs(2 * np.pi * val - 2 * np.pi * closed) < 1e-12


def test_toeplitz_height_is_exact_diagonal():
    for k in (8, 32):
        sp = quantize.build_space(k)
        t = quantize.toeplitz(sp, ham.height())
        m = np.arange(k + 1)
        assert np.max(np.abs(t - np.diag((k - 2 * m) / (k + 2)))) < 1e-12


def test_toeplitz_coordinates_are_scaled_spin_matrices():
    # T(x_i) = 2/(k+2) J_i with J_i the standard spin-k/2 matrices
    k = 12
    sp = quantize.build_space(k)
    j = k / 2
    m = np.arange(k + 1)
    lower = 0.5 * np.sqrt((m[1:]) * (k - m[1:] + 1))  # J_x off-diagonal
    jx = np.zeros((k + 1, k + 1))
    jx[m[1:], m[1:] - 1] = lower
    jx += jx.T
    t1 = quantize.toeplitz(sp, ham.coordinate(0))
    assert np.max(np.abs(t1 - 2 / (k + 2) * jx)) < 1e-12
    # su(2) commutator closes: [T(x1), T(x2)] = -i 2/(k+2) T(x3), matching
    # the bracket {x1, x2} = 2 x3 of the half-area symplectic form
    t2 = quantize.toeplitz(sp, ham.coordinate(1))
    t3 = quantize.toeplitz(sp, ham.height())
    comm = t1 @ t2 - t2 @ t1
    assert np.max(np.abs(comm + 1j * 2 / (k + 2) * t3)) < 1e-12


def test_toeplitz_spectrum_within_symbol_range():
    k = 20
    sp = quantize.build_space(k)
    h = ham.height_squared()
    vals = np.linalg.eigvalsh(quantize.toeplitz(sp, h))
    assert vals.min() > -1e-12
    assert vals.max() < 1.0 + 1e-12


def test_kostant_souriau_closed_forms():
    for k in (8, 32):
        sp = quantize.build_space(k)
        m = np.arange(k + 1)
        kh = quantize.kostant_souriau(sp, ham.height())
        assert np.max(np.abs(kh - np.diag((k - 2 * m) / k))) < 1e-11
        kc = quantize.kostant_souriau(sp, ham.constant(0.4))
        assert np.max(np.abs(kc - 0.4 * np.eye(k + 1))) < 1e-12


def test_kostant_souriau_hermitian_for_real_symbols():
    sp = quantize.build_space(16)
    for h in (ham.coordinate(0), ham.height_squared(), ham.time_mixed()):
        op = quantize.kostant_souriau(sp, h, t=0.3)
        assert np.max(np.abs(op - op.conj().T)) < 1e-10


def test_semiclassical_commutator_decay():
    # [T(f), T(g)] = O(1/k): k * commutator norm stays bounded
    norms = []
    for k in (16, 32, 64, 128):
        sp = quantize.build_space(k)
        tf = quantize.toeplitz(sp, ham.height_squared())
        tg = quantize.toeplitz(sp, ham.coordinate(0))
        norms.append(k * np.linalg.norm(tf @ tg - tg @ tf, 2))
    assert max(norms) < 2 * min(norms)
    assert norms[-1] - norms[-2] < norms[-2] - norms[-3]


def test_trace_identity_constant_symbol():
    for k in (8, 64):
        sp = quantize.build_space(k)
        r = quantize.trace_residual(sp, ham.constant(1.0))
        assert abs(r) < 1e-10


def test_trace_residuals_at_noise_floor():
    # the two-term expansion is exact for polynomial symbols here; the
    # residual of the compressed derivative part sums to zero
    for k in (16, 64):
        sp = quantize.build_space(k)
        for h in (ham.height(), ham.height_squared()):
            assert abs(quantize.trace_residual(sp, h)) * 2 * np.pi / k < 1e-10


def test_lambda_prime_is_one():
    # oracle: half the Liouville mean of the finite-difference scalar
    # curvature of the round structure
    grid = sphere.build_grid(24, 48)
    s = invariants.scalar_curvature(flow.RoundStructure(), grid)
    lam = 0.5 * sphere.integrate(s) / sphere.TOTAL_VOLUME
    assert abs(lam - quantize.ROUND_LAMBDA_PRIME) < 1e-6


def test_custom_grid_must_resolve_basis():
    # a grid exact only to low degree still reproduces low-m norms
    g = sphere.build_grid(40, 80)
    sp = quantize.build_space(12, grid=g)
    gram = sp.weighted_basis.conj().T @ sp.basis
    assert np.max(np.abs(gram - np.eye(13))) < 1e-12
