import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import betaln, gammaln

from spherequant import hamiltonians as ham, propagate, quantize, sphere

import oracles


def test_dimension_law():
    for k in (1, 2, 5, 16):
        assert quantize.build_space(k).dim == k + 1


def test_build_space_refuses_a_level_that_is_not_a_positive_integer():
    # True would build a k = True space, and 3.0 would fail inside leggauss
    for k in (True, 3.0, 0, -2, "4"):
        with pytest.raises(ValueError, match=f"level k must be a positive integer, got {k!r}"):
            quantize.build_space(k)
    assert quantize.build_space(np.int64(3)).dim == 4


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


def test_log_norms_from_the_lgamma_table_match_gammaln():
    # quantize reads math.lgamma from a table; scipy's gammaln is the oracle.
    # Terms up to lgamma(k + 2) cancel (log N_0 = log(2 pi / (k + 1))), so the
    # rounding of either route is relative to that largest term, not to the
    # value: at k = 231 gammaln's log N_0 is 4.8e-13 off, the table's 2.5e-14
    for k in range(1, 513):
        m = np.arange(k + 1)
        expected = np.log(2.0 * np.pi) + gammaln(m + 1.0) + gammaln(k - m + 1.0) - gammaln(k + 2.0)
        error = np.abs(quantize._log_norms(k) - expected) / max(1.0, gammaln(k + 2.0))
        assert np.max(error) <= 1e-13, k


def test_cold_start_imports_no_scipy_special():
    # a fresh interpreter: this test module's own scipy.special import does
    # not count, only what importing the command line loads
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, spherequant.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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
        kh = quantize.kostant_souriau(sp, ham.height().value(sp.grid.nodes))
        assert np.max(np.abs(kh - np.diag((k - 2 * m) / k))) < 1e-11
        kc = quantize.kostant_souriau(sp, ham.constant(0.4).value(sp.grid.nodes))
        assert np.max(np.abs(kc - 0.4 * np.eye(k + 1))) < 1e-12


def test_kostant_souriau_hermitian_for_real_symbols():
    sp = quantize.build_space(16)
    for h in (ham.coordinate(0), ham.height_squared(), ham.time_mixed()):
        op = quantize.kostant_souriau(sp, h.value(sp.grid.nodes, 0.3))
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
    s = oracles.scalar_curvature(oracles.RoundStructure(), grid)
    lam = 0.5 * sphere.integrate_values(grid, s) / sphere.TOTAL_VOLUME
    assert abs(lam - quantize.ROUND_LAMBDA_PRIME) < 1e-6


def test_custom_grid_must_resolve_basis():
    # a grid exact only to low degree still reproduces low-m norms
    g = sphere.build_grid(40, 80)
    sp = quantize.build_space(12, grid=g)
    gram = sp.weighted_basis.conj().T @ sp.basis
    assert np.max(np.abs(gram - np.eye(13))) < 1e-12


# ---------------------------------------------------------------------------
# closed-form oracle: Toeplitz entries of monomials as Beta integrals


def _toeplitz_monomial(k, a, b, c):
    """Closed-form Toeplitz matrix of x1^a x2^b x3^c at level k.

    With u = |z|^2 / (1 + |z|^2) the Liouville measure is du dphi, the
    basis sections satisfy |s_m|^2 = u^m (1-u)^(k-m) / B(m+1, k-m+1) / 2 pi,
    x1 +- i x2 = 2 sqrt(u (1-u)) e^{+-i phi} and x3 = (1-u) - u.  Expanding
    x1^a x2^b into w^p conj(w)^q (w = x1 + i x2) and x3^c binomially in u
    and 1-u, entry (n+p-q, n) is a signed sum of
    B(n+p+j+1, k-n+q+c-j+1) / sqrt(B(m+1, k-m+1) B(n+1, k-n+1)).
    """
    n = np.arange(k + 1)
    log_norm = betaln(n + 1.0, k - n + 1.0)
    out = np.zeros((k + 1, k + 1), dtype=complex)
    for j1 in range(a + 1):
        for l in range(b + 1):
            p = j1 + l
            q = a + b - p
            # x1^a x2^b sums C(a,j1) C(b,l) (-1)^(b-l) (-i)^b (w/2)^p (conj w/2)^q
            # over j1, l, and |w/2| = sqrt(u (1-u))
            coef = comb(a, j1) * comb(b, l) * (-1) ** (b - l) * (-1j) ** b
            m = n + p - q
            ok = (m >= 0) & (m <= k)
            for j in range(c + 1):
                log_beta = betaln(n[ok] + p + j + 1.0, k - n[ok] + q + c - j + 1.0)
                term = np.exp(log_beta - 0.5 * (log_norm[m[ok]] + log_norm[ok]))
                out[m[ok], n[ok]] += coef * comb(c, j) * (-1) ** j * term
    return out


def _monomials(max_degree):
    return [
        (a, b, c)
        for a in range(max_degree + 1)
        for b in range(max_degree + 1 - a)
        for c in range(max_degree + 1 - a - b)
    ]


def test_toeplitz_monomials_match_beta_integrals():
    for k in (1, 2, 8, 17, 64, 128):
        sp = quantize.build_space(k)
        for powers in _monomials(4):
            op = quantize.toeplitz(sp, ham.Monomial(powers))
            err = np.max(np.abs(op - _toeplitz_monomial(k, *powers)))
            assert err < 1e-12, (k, powers, err)


def _laplacian_terms(powers):
    """Delta_{S^2} x^alpha = sum_i alpha_i (alpha_i - 1) x^{alpha - 2 e_i}
    - |alpha| (|alpha| + 1) x^alpha, as (coefficient, powers) pairs."""
    d = sum(powers)
    terms = [(-d * (d + 1.0), tuple(powers))]
    for i, p in enumerate(powers):
        if p >= 2:
            lowered = list(powers)
            lowered[i] -= 2
            terms.append((p * (p - 1.0), tuple(lowered)))
    return terms


def test_kostant_souriau_is_toeplitz_of_laplacian_shift():
    # K(f) = T(f - Delta f / k) on the round sphere
    for k in (1, 4, 17, 64):
        sp = quantize.build_space(k)
        for powers in _monomials(4):
            expected = _toeplitz_monomial(k, *powers)
            for coef, lowered in _laplacian_terms(powers):
                expected -= coef / k * _toeplitz_monomial(k, *lowered)
            op = quantize.kostant_souriau(sp, ham.Monomial(powers).value(sp.grid.nodes))
            err = np.max(np.abs(op - expected))
            assert err < 1e-12, (k, powers, err)


def test_kostant_souriau_from_values_matches_the_one_form_route():
    # the Green's-identity assembly against the covariant-derivative
    # route, which needs the one-form dz(X) as well as the values
    h = ham.Polynomial(
        [
            ham.Monomial((1, 2, 1), 1.0),
            ham.Monomial((0, 3, 1), 0.4, time_fn=ham.sin_pi_t),
            ham.Monomial((2, 0, 2), -1.3, time_fn=ham.identity_t),
            ham.Monomial((0, 0, 1), 0.7),
        ]
    )
    for k in (4, 17, 64, 128):
        sp = quantize.build_space(k)
        nodes = sp.grid.nodes
        for t in (0.0, 0.3):
            values = h.value(nodes, t)
            a = oracles.chart_one_form(oracles.hamiltonian_vector_field(h, nodes, t), nodes)
            oracle = oracles.kostant_souriau_from_chart(sp, values, a)
            err = np.max(np.abs(quantize.kostant_souriau(sp, values) - oracle))
            assert err < 1e-11, (k, t, err)


# ---------------------------------------------------------------------------
# the ring-by-ring kernel against the node-by-node quadrature product


@settings(max_examples=60, deadline=None, derandomize=True)
@example(k=64, n_theta=8, n_phi=3, seed=0)
@example(k=20, n_theta=9, n_phi=5, seed=1)
@example(k=12, n_theta=40, n_phi=7, seed=2)
@given(
    k=st.integers(1, 64),
    n_theta=st.integers(1, 40),
    n_phi=st.integers(1, 140),
    seed=st.integers(0, 2**32 - 1),
)
def test_compress_matches_dense_quadrature(k, n_theta, n_phi, seed):
    # n_phi < 2k + 1 aliases azimuthal modes; both routes sum the same nodes
    sp = quantize.build_space(k, sphere.build_grid(n_theta, n_phi))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=sp.grid.size) + 1j * rng.normal(size=sp.grid.size)
    dense = sp.weighted_basis.conj().T @ (g[:, None] * sp.basis)
    assert np.max(np.abs(sp.compress(g) - dense)) <= 1e-13 * np.max(np.abs(g))


def _assembly_symbols(grid, rng):
    """(name, real node values): time-mixed at t = 0.3, x3^2 and a random
    smooth field, exp(a . x) for a random a."""
    nodes = grid.nodes
    a = rng.normal(size=3)
    return [
        ("time-mixed", ham.time_mixed().value(nodes, 0.3)),
        ("x3^2", ham.Monomial((0, 0, 2)).value(nodes)),
        ("smooth", np.exp(nodes @ a)),
    ]


@pytest.mark.parametrize("grid_level, levels", [(64, (1, 2, 8, 9, 64)), (9, (1, 2, 8, 9))])
def test_plan_assembly_matches_the_full_ring_product(grid_level, levels):
    # default_grid(64) is 40 x 80 (even n_phi: one parity's columns per
    # product), default_grid(9) 13 x 25 (odd n_phi: every column); both are
    # exact at these levels.  Bit-equal where the BLAS kernel sums in the
    # oracle's order; the bound admits another kernel's rounding
    grid = quantize.default_grid(grid_level)
    rng = np.random.default_rng(grid_level)
    symbols = _assembly_symbols(grid, rng)
    complex_field = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    for k in levels:
        sp = quantize.build_space(k, grid)
        for name, values in symbols + [("complex", complex_field)]:
            pairs = [(sp.compress(values), oracles.compress(sp, values))]
            if name != "complex":
                ks = quantize.kostant_souriau(sp, values)
                pairs.append((ks, oracles.kostant_souriau(sp, values)))
            for got, expected in pairs:
                bound = 4 * np.finfo(float).eps * np.max(np.abs(expected))
                assert np.max(np.abs(got - expected)) <= bound, (grid_level, k, name)


def test_chart_samples_assemble_each_sample_as_kostant_souriau():
    # the modes taken once for every sample give the operator of each sample
    grid = quantize.default_grid(9)
    steps = 3
    pulled = propagate.pull_back(ham.time_mixed(), grid, steps)
    static = propagate.pull_back(ham.height_squared(), grid, steps)
    for k in (2, 9):
        sp = quantize.build_space(k, grid)
        for samples in (pulled, static):
            for i, values in enumerate(samples.values):
                assert np.array_equal(
                    samples.operator(sp, i), quantize.kostant_souriau(sp, values)
                ), (k, i)


def _degree_combinations(nodes, rng, max_degree=15):
    """(max_degree + 1, nodes) node values: row d is a fixed random unit-scale
    combination of the monomials of degree exactly d, from power tables."""
    powers = nodes[None, :, :] ** np.arange(max_degree + 1)[:, None, None]
    rows = []
    for d in range(max_degree + 1):
        monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
        coeffs = rng.normal(size=len(monomials)) / np.sqrt(len(monomials))
        terms = (
            c * powers[a, :, 0] * powers[b, :, 1] * powers[e, :, 2]
            for c, (a, b, e) in zip(coeffs, monomials)
        )
        rows.append(sum(terms))
    return np.array(rows)


def test_default_grid_is_exact_for_every_symbol_of_degree_at_most_15():
    # assembly is linear in the symbol, so a generic combination of the
    # monomials of each degree stands for all of them; at odd k the grid
    # used to resolve degree 14 only, and x3^15 at k = 9 came out 2.3e-7 off
    fine_grid = sphere.build_grid(40, 80)
    x3_15 = ham.Monomial((0, 0, 15))
    for k in range(1, 34):
        sp, fine = quantize.build_space(k), quantize.build_space(k, fine_grid)
        coarse_rows = _degree_combinations(sp.grid.nodes, np.random.default_rng(k))
        fine_rows = _degree_combinations(fine_grid.nodes, np.random.default_rng(k))
        for d, (g, g_fine) in enumerate(zip(coarse_rows, fine_rows)):
            # toeplitz is the compression of the symbol's node values
            err_t = np.max(np.abs(sp.compress(g) - fine.compress(g_fine)))
            err_ks = np.max(
                np.abs(quantize.kostant_souriau(sp, g) - quantize.kostant_souriau(fine, g_fine))
            )
            assert max(err_t, err_ks) <= 1e-12, (k, d, err_t, err_ks)
        err = np.max(np.abs(quantize.toeplitz(sp, x3_15) - quantize.toeplitz(fine, x3_15)))
        assert err <= 1e-12, (k, err)


def _ks_groups(space, h):
    return propagate._groups(
        space, h, lambda sp, p: quantize.kostant_souriau(sp, p.value(sp.grid.nodes))
    )


def test_a_grid_one_ring_or_one_azimuth_below_the_rule_is_refused():
    # the rule: n_theta >= (k + d + 2) // 2 and n_phi >= k + b + 1.  It is
    # sufficient, not necessary (some grids below it are exact by parity), so
    # below it only the refusal is asserted
    for k in (1, 2, 9, 22, 23):
        for powers in ((0, 0, 15), (15, 0, 0), (1, 2, 4), (1, 0, 0), (0, 0, 0)):
            d, b = sum(powers), powers[0] + powers[1]
            n_theta, n_phi = (k + d + 2) // 2, k + b + 1
            h = ham.Polynomial([ham.Monomial(powers)])
            at_rule = quantize.build_space(k, sphere.build_grid(n_theta, n_phi))
            quantize.toeplitz(at_rule, h)
            assert [band for _, _, band, _ in _ks_groups(at_rule, h)] == [b]
            below = [(n_theta, n_phi - 1)] + ([(n_theta - 1, n_phi)] if n_theta > 1 else [])
            for grid in (sphere.build_grid(*counts) for counts in below):
                space = quantize.build_space(k, grid)
                message = (
                    f"a {grid.n_theta} x {grid.n_phi} grid is not certified exact for level "
                    f"{k} of degree {d} and azimuthal degree {b}; a {n_theta} x {n_phi} grid is"
                )
                for assemble in (quantize.toeplitz, _ks_groups):
                    with pytest.raises(ValueError, match=message):
                        assemble(space, h)


def test_default_grid_keeps_even_levels_and_adds_a_ring_at_odd_levels():
    # the rule at d = b = 15 gives the old (k // 2 + 8, k + 16) at even k;
    # odd k gains the ring that resolves degree 15
    for k in range(1, 257):
        grid = quantize.default_grid(k)
        assert (grid.n_theta, grid.n_phi) == (k // 2 + 8 + k % 2, k + 16), k
