"""Schrodinger propagation of quantized Hamiltonians with a phase lift.

The propagator solves d/dt u = -i k A(t) u with A(t) the quantized
generator (Toeplitz or Kostant-Souriau).  Steps are those of the
fourth-order Magnus scheme of :func:`_magnus`, exponentiated through a
Hermitian eigendecomposition, so every partial product is exactly
unitary, and the determinant of each step factor is exp(-i k dt tr A),
which accumulates the lifted phase without any angle unwrapping.

A path reaches :func:`_magnus`, the one driver, as data: :class:`ChartSamples`,
a symbol sampled at every Gauss time, or the separable groups (c_i, A_i) of a
polynomial path A(t) = sum_i c_i(t) A_i; a static path takes one step of
length 1.  Every step generator of the groups is a combination of the A_i and
their commutators, formed once per propagation, and exponentiated by the band
the powers certify: elementwise when diagonal (functions of the height x3), by
a real symmetric tridiagonal solver when tridiagonal (the rotations x1, x2 with
functions of x3), else, like every sampled step, in the dense loop
:func:`_dense_steps`.  When the powers also certify every group even in x3, each
tridiagonal step is centrosymmetric and takes two half-size solves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import flow, quantize, sphere
from .unitary_metric import Unitary, UnitaryWithPhase


# largest non-affine L2 remainder of a static Hamiltonian term that still
# counts as holomorphic in :func:`check_holomorphic`
HOLOMORPHY_TOL = 1e-6


class HolomorphyError(ValueError):
    """Raised when a path required to be holomorphic is not."""


@dataclass(frozen=True, eq=False)
class ChartSamples:
    """The k-independent stage of a time-dependent Kostant-Souriau
    propagation: a symbol's node values on ``grid`` at the Gauss times of
    every Magnus step, which :func:`quantize.kostant_souriau_modes` assembles.

    The samples depend on the grid and the steps but not on the level k,
    so one set, sampled once per sweep, stands in for its symbol at every
    level built on ``grid``: :func:`propagate_ks` takes the
    :func:`product_samples` of a product path and :func:`xi_path` the
    :func:`pull_back` of a path in place of the Hamiltonian.  Their
    azimuthal modes are k-independent too: the first level that needs them
    takes those of every sample in one :func:`quantize.azimuthal_modes`,
    with one finiteness check, and every later level reads them.
    ``flow_area_drift`` is the largest change in a sample's Liouville integral
    that the samples' flow made, as :func:`_flow_samples` reads it: 0.0 on the
    closed-form and identity routes, whose flows preserve the measure exactly.
    ``static`` samples are one symbol at every time, as :func:`pull_back`
    gives them for an autonomous path; :func:`_magnus` takes them in one step.
    """

    grid: sphere.SphereGrid
    data: dict  # Gauss time -> (grid.size,) real node values
    flow_area_drift: float
    static: bool = False

    @cached_property
    def _modes(self):
        """Gauss time -> the :func:`quantize.azimuthal_modes` of its sample, from
        one FFT of every sample (of the one sample when ``static``)."""
        times = list(self.data)[:1] if self.static else list(self.data)
        blocks = quantize.azimuthal_modes(self.grid, np.stack([self.data[t] for t in times]))
        modes = {t: tuple(b[i] for b in blocks) for i, t in enumerate(times)}
        return dict.fromkeys(self.data, modes[times[0]]) if self.static else modes

    def operator(self, space, t):
        """Kostant-Souriau operator on ``space`` of the sample at time t."""
        if space.grid != self.grid:
            raise ValueError("chart samples serve only the nodes of their own grid")
        if t not in self.data:
            raise ValueError(
                f"chart samples taken for {len(self.data) // 2} Magnus steps "
                "cannot serve other Magnus steps"
            )
        return quantize.kostant_souriau_modes(space, self._modes[t])


@dataclass(frozen=True)
class PropagationResult:
    unitary: np.ndarray
    phase: float

    def with_phase(self) -> UnitaryWithPhase:
        """Universal-cover element; validates the lift on construction."""
        return UnitaryWithPhase(Unitary(self.unitary), self.phase)


def _expi(a, scale):
    """exp(1j * scale * a) for Hermitian a, exactly unitary."""
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(1j * scale * vals)[None, :]) @ vecs.conj().T


def _expi_tridiagonal(d, e, scale, v):
    """exp(1j * scale * T) @ v for the real symmetric tridiagonal T with
    diagonal d and off-diagonal e, written into v; exp(1j * scale * T) itself,
    a new array, when v is None.

    T = Q diag(lam) Q^T is found by scipy's default symmetric tridiagonal
    driver (divide and conquer, ``?stevd``, where scipy offers it; MRRR,
    ``?stemr``, before).  The product runs as two real matrix products on the
    (re, im) interleaved rows of v, or as one, Q (exp(i scale lam) Q^T), from
    the identity.  :func:`_expi_steps` checks d and e finite.
    """
    vals, q = scipy.linalg.eigh_tridiagonal(d, e, check_finite=False)
    phases = np.exp(1j * scale * vals)[:, None]
    if v is None:
        return (q @ (phases * q.T).view(float)).view(complex)
    x = (q.T @ v.view(float)).view(complex)
    x *= phases
    np.matmul(q, x.view(float), out=v.view(float))
    return v


def _parity_blocks(d, e):
    """The two real symmetric tridiagonal blocks, (diagonals, off-diagonals) of
    sizes ceil(N/2) and floor(N/2) for every step, of the centrosymmetric
    tridiagonal steps with diagonals d (steps, N) and off-diagonals e (steps,
    N - 1), on the parity rows (u_j +- u_{N-1-j}) / sqrt(2), j < N // 2, and,
    for odd N, the middle row u_{N//2}, which joins the symmetric block.

    Centrosymmetry pairs entry j with N - 1 - j of d and N - 2 - j of e; the
    blocks are built from the centrosymmetric parts (d + reversed d) / 2 and
    (e + reversed e) / 2.  For even N the centre coupling e_{N/2-1} adds to
    the last diagonal entry of the symmetric block and subtracts from the
    antisymmetric one; for odd N it couples the middle row to the symmetric
    block as sqrt(2) e_{N//2-1} (Cantoni & Butler, Linear Algebra Appl. 13,
    1976).
    """
    n = d.shape[1]
    h = n // 2
    d = 0.5 * (d[:, : n - h] + d[:, ::-1][:, : n - h])
    e = 0.5 * (e[:, :h] + e[:, ::-1][:, :h])
    if n % 2:
        anti = (d[:, :h], e[:, : h - 1])
        e[:, -1] *= np.sqrt(2.0)
        return [(d, e), anti]
    sym = d.copy()
    sym[:, -1] += e[:, -1]
    d[:, -1] -= e[:, -1]
    return [(sym, e[:, : h - 1]), (d, e[:, : h - 1])]


# Gauss points of the fourth-order Magnus scheme
_GAUSS_LO = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + np.sqrt(3.0) / 6.0


def _gauss_times(steps):
    """The two Gauss times of each of ``steps`` equal Magnus steps on
    [0, 1]; :class:`ChartSamples` are keyed by these floats."""
    flow._check_steps(steps)
    dt = 1.0 / steps
    return [((n + _GAUSS_LO) * dt, (n + _GAUSS_HI) * dt) for n in range(steps)]


def _magnus_effective(a1, a2, k, dt, sign):
    """Effective Hermitian generator of one fourth-order Magnus step for
    d/dt u = sign * i k A(t) u; the commutator correction is traceless, so
    the determinant lift of the step is exp(sign i k dt tr A)."""
    comm = a1 @ a2 - a2 @ a1
    return 0.5 * (a1 + a2) - sign * 1j * (np.sqrt(3.0) * k * dt / 12.0) * comm


def _step_band(degrees):
    """Band of the Magnus step generators of a separable path whose groups
    have azimuthal degrees ``degrees``: a group of degree b vanishes off the
    diagonals |m - n| <= b, and the commutator of two groups off
    |m - n| <= b_i + b_j."""
    return max(degrees + [a + b for a, b in itertools.combinations(degrees, 2)])


def _separable_steps(groups, gauss, k, dt, sign):
    """Every Magnus step generator of a separable A(t) = sum_i c_i(t) A_i
    as one linear combination: step n's generator is coef[n] @ mats.

    [A(t1), A(t2)] = sum_{i<j} (c_i(t1) c_j(t2) - c_j(t1) c_i(t2)) [A_i, A_j],
    so with the commutators formed once, :func:`_magnus_effective` becomes
    sum_i (c_i(t1) + c_i(t2)) / 2 A_i - sign i (sqrt(3) k dt / 12) times
    that sum.  Returns (coef, mats); raises ``ValueError`` naming the group
    whose time function is not a finite real number at a Gauss time.
    """
    fns, mats, *_ = zip(*groups)
    # c[n, s, i] = c_i at Gauss time s of step n
    c = np.array([[[1.0 if fn is None else fn(t) for fn in fns] for t in pair] for pair in gauss])
    bad = ~np.isfinite(c) | (c.imag != 0)
    if bad.any():
        n, s, i = np.argwhere(bad)[0]
        raise ValueError(f"the time function of group {i} is {c[n, s, i]} at t = {gauss[n][s]}")
    i, j = np.array([*itertools.combinations(range(len(mats)), 2)], dtype=int).reshape(-1, 2).T
    # outer[n, i, j] = c_i(t1) c_j(t2), so the cross terms are its antisymmetric part
    outer = c[:, 0, :, None] * c[:, 1, None, :]
    cross = (outer - outer.transpose(0, 2, 1))[:, i, j]
    coef = np.concatenate(
        [0.5 * c.sum(axis=1), -sign * 1j * (np.sqrt(3.0) * k * dt / 12.0) * cross], axis=1
    )
    commutators = [mats[a] @ mats[b] - mats[b] @ mats[a] for a, b in zip(i, j)]
    return coef, np.array(mats + tuple(commutators))


def _dense_steps(generators, scale):
    """exp(i scale G_last) ... exp(i scale G_0) and scale * sum_n tr G_n for the Hermitian
    step generators G_n, in order, each exponentiated by the dense :func:`_expi`; u
    starts from the first step's exponential."""
    u, phase = None, 0.0
    for g in generators:
        step = _expi(g, scale)
        u = step if u is None else step @ u
        phase += scale * np.trace(g).real
    return u, phase


def _sample_steps(space, samples, gauss, k, dt, sign):
    """The Magnus step generators of :class:`ChartSamples`: :func:`_magnus_effective` of
    the operators at each step's two Gauss times, or the one operator when both are one."""
    for t1, t2 in gauss:
        a = samples.operator(space, t1)
        yield a if t1 == t2 else _magnus_effective(a, samples.operator(space, t2), k, dt, sign)


def _expi_steps(coef, mats, band, scale, even=False):
    """exp(i scale G_last) ... exp(i scale G_0) and scale * sum_n tr G_n for the Hermitian
    step generators G_n = coef[n] @ mats, which vanish off |m - n| <= band.  Band 0 is
    diagonal, so commuting: the elementwise exponential of the summed diagonals.  Both
    band routes first check every step's diagonals finite, once (``ValueError``); wider
    bands take :func:`_dense_steps`.

    Band 1: G_n = D_n T_n D_n* for the real symmetric tridiagonal T_n with the diagonal
    of G_n and off-diagonal |e| (e the superdiagonal of G_n), and D_n = diag(delta),
    delta_0 = 1, delta_{j+1} = delta_j conj(e_j) / |e_j| (1 where e_j = 0); the gauges
    of all steps are taken at once.  T_n splits into blocks by the orthogonal P, and
    the state is x_n = P D_n* u_n D_0 P^T: x_0 is the blocks of exp(i scale T_0), made
    from the identity, every later step turns x by P D_n* D_{n-1} P^T and takes one
    :func:`_expi_tridiagonal` per block, and u = D_last P^T x P D_0*.  When ``even``
    certifies every group even in x3 (:func:`_groups`), T_n is centrosymmetric, and P
    takes it to the two parity blocks of :func:`_parity_blocks`; else P = I and T_n is
    one block.
    """
    if band >= 2:
        return _dense_steps((np.tensordot(c, mats, 1) for c in coef), scale)
    diag = (coef @ np.diagonal(mats, axis1=1, axis2=2)).real
    phase = scale * float(np.sum(diag))
    off = coef @ np.diagonal(mats, 1, axis1=1, axis2=2)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ValueError(f"the band-{band} step generators are not finite")
    if band == 0:
        return np.diag(np.exp(1j * scale * diag.sum(axis=0))), phase
    gauge = np.ones(diag.shape, dtype=complex)
    gauge[:, 1:] = np.exp(-1j * np.cumsum(np.angle(off), axis=1))
    blocks = _parity_blocks(diag, np.abs(off)) if even else [(diag, np.abs(off))]
    # the turn D_n* D_{n-1} takes each pair of parity rows (s, a) to sqrt(2)
    # times its site rows, s + a and s - a, turns them by t_j / 2 and
    # t_{N-1-j} / 2 and takes them back; an unpaired row turns by its own t_j
    n = diag.shape[1]
    pairs = n // 2 if even else 0
    turn = gauge[1:].conj() * gauge[:-1]
    halves = 0.5 * np.concatenate([turn[:, :pairs], turn[:, ::-1][:, :pairs]], axis=1)
    x = np.zeros((n, n), dtype=complex)
    rows = [x[: n - pairs], x[n - pairs :]] if even else [x]
    for (d, e), v, lo in zip(blocks, rows, (0, n - pairs)):
        v[:, lo : lo + len(v)] = _expi_tridiagonal(d[0], e[0], scale, None)
    s, a, unpaired = x[:pairs], x[n - pairs :], x[pairs : n - pairs]
    site = np.empty((2 * pairs, n), dtype=complex)
    top, bottom = site[:pairs], site[pairs:]
    for step, (half, t) in enumerate(zip(halves[:, :, None], turn[:, pairs : n - pairs, None]), 1):
        np.add(s, a, out=top)
        np.subtract(s, a, out=bottom)
        site *= half
        np.add(top, bottom, out=s)
        np.subtract(top, bottom, out=a)
        unpaired *= t
        for (d, e), v in zip(blocks, rows):
            _expi_tridiagonal(d[step], e[step], scale, v)
    # P^T x P from sqrt(2) times the site rows and columns of each pair
    _unfold_pairs(x, pairs)
    _unfold_pairs(x.T, pairs)
    norm = np.full(n, np.sqrt(0.5))
    norm[pairs : n - pairs] = 1.0
    return (gauge[-1] * norm)[:, None] * x * (gauge[0].conj() * norm), phase


def _unfold_pairs(x, pairs):
    """Overwrite the parity rows s_j at j and a_j at N - pairs + j, j < ``pairs``,
    of x with s_j + a_j at j and s_j - a_j at N - 1 - j: sqrt(2) times the rows
    u_j and u_{N-1-j} that (u_j +- u_{N-1-j}) / sqrt(2) were taken from."""
    s, a = x[:pairs], x[len(x) - pairs :]
    total = s + a
    a[:] = (s - a)[::-1]
    s[:] = total


def _magnus(space, path, steps, sign):
    """Fourth-order Magnus integration on [0, 1] of d/dt u = sign * i k A(t) u
    from u = I (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009), over
    ``steps`` equal steps: the one driver of every propagation.  Returns u
    and its determinant lift, the sum of sign * k dt tr A over the steps.

    ``path`` is :class:`ChartSamples`, whose step generators :func:`_sample_steps`
    reads and :func:`_dense_steps` exponentiates, or the :func:`_groups` of a
    separable path, whose step generators :func:`_separable_steps` forms and
    :func:`_expi_steps` exponentiates at their :func:`_step_band`, exact up to
    rounding on the exact grids of :func:`_groups`.  A static path (static
    samples, or groups all static) has a constant A: both Gauss points see it
    and the commutators vanish, so the steps multiply to exp(sign i k A), one
    step of length 1 read at one time.
    """
    k = space.k
    gauss = _gauss_times(steps)
    samples = isinstance(path, ChartSamples)
    if path.static if samples else all(fn is None for fn, *_ in path):
        gauss, steps = [(gauss[0][0],) * 2], 1
    dt = 1.0 / steps
    scale = sign * k * dt
    if samples:
        return _dense_steps(_sample_steps(space, path, gauss, k, dt, sign), scale)
    coef, mats = _separable_steps(path, gauss, k, dt, sign)
    band = _step_band([degree for _, _, degree, _ in path])
    return _expi_steps(coef, mats, band, scale, all(even for *_, even in path))


def propagate_generic(space, path, steps):
    """Fourth-order Magnus propagation of d/dt u = -i k A(t) u on [0, 1],
    for ``path`` as :func:`_magnus` takes it."""
    u, phase = _magnus(space, path, steps, -1.0)
    return PropagationResult(unitary=u, phase=phase)


def _groups(space, h, builder):
    """The path A(t) = sum_i c_i(t) A_i as data: (c_i, A_i, b_i, e_i) over the groups
    c_i(t) poly_i of ``h.separable_terms()``, c_i None when static, A_i = builder(space,
    poly_i) on a grid exact for poly_i, b_i its azimuthal degree: A_i vanishes off
    |m - n| <= b_i, and e_i whether every power of x3 in poly_i is even, read from the
    powers, never tested numerically.  Quantization is equivariant under the half turn
    z -> 1/z about the x1 axis, which maps z^m to z^{k-m}, x2 to -x2 and x3 to -x3, so
    under e_i the diagonal of A_i and the moduli of its first off-diagonal are
    palindromic; :func:`_expi_steps` splits the band-1 steps of a path whose groups all
    have e_i in two.  The empty polynomial is one static group, zero."""
    terms = h.separable_terms() or [(None, h)]
    bands = [quantize._certified_band(space, poly) for _, poly in terms]
    return [
        (fn, builder(space, poly), b, all(term.powers[2] % 2 == 0 for term in poly.terms))
        for (fn, poly), b in zip(terms, bands)
    ]


def propagate_toeplitz(space, h, steps):
    if isinstance(h, ChartSamples):
        raise ValueError("Toeplitz propagation needs a polynomial path")
    return propagate_generic(space, _groups(space, h, quantize.toeplitz), steps)


def propagate_ks(space, h, steps):
    """Kostant-Souriau propagator of a polynomial path h, or of
    :class:`ChartSamples` on ``space.grid``."""
    if not isinstance(h, ChartSamples):
        h = _groups(
            space, h, lambda sp, p: quantize.kostant_souriau(sp, p.value(sp.grid.nodes))
        )
    return propagate_generic(space, h, steps)


def _flow_samples(h, grid, stops, rate, times, value):
    """:class:`ChartSamples` on ``grid`` of ``value(y, t)`` at the sample
    ``times``, y the nodes flowed by h to the stop t, or by its inverse flow
    at t to the stop -t, along monotone signed ``stops``.  The one route
    choice: a static axial h rotates the nodes in closed form
    (:func:`flow.axial_flow`); forward stops, or an autonomous h, whose
    inverse flow at t is its flow at -t, take one points-only
    :func:`flow.sweep` at ``rate`` steps per unit time; the inverse flow of
    a time-dependent h takes one :func:`flow.transport_backward` per stop.

    A Hamiltonian flow preserves the Liouville measure, so each sample
    integrates as ``value(nodes, t)`` does; ``flow_area_drift`` is the
    largest gap between the two integrals over the sample times, RK4's
    area error on its routes, and 0.0 by that identity on the closed-form
    one."""
    flow._check_rate(rate)
    nodes = grid.nodes
    points = flow.axial_flow(h, nodes, stops)
    rk4 = points is None
    if rk4 and (stops[-1] > 0 or h.autonomous):
        points = (y for y, _ in flow.sweep(h, nodes, stops, rate, jacobians=False))
    elif rk4:
        points = (
            flow.transport_backward(h, nodes, -s, flow.per_time_steps(rate, -s)) for s in stops
        )
    data = {abs(s): value(y, abs(s)) for s, y in zip(stops, points) if abs(s) in times}
    drift = 0.0
    if rk4:
        drift = max(
            abs(sphere.integrate_values(grid, v) - sphere.integrate_values(grid, value(nodes, t)))
            for t, v in data.items()
        )
    return ChartSamples(grid, data, drift)


def product_samples(f, g, grid, steps, flow_steps=256):
    """:class:`ChartSamples` on ``grid`` of the values of f_t + g_t o
    alpha_t^{-1}, the generator of the product of the paths of f and g
    (alpha the flow of f), at the Gauss times of :func:`propagate_generic`;
    :func:`_flow_samples` reads alpha_t^{-1} at the stop -t, and its area
    drift from int g_t o alpha_t^{-1} dmu = int g_t dmu."""
    times = [t for pair in _gauss_times(steps) for t in pair]
    nodes, stops = grid.nodes, [-t for t in times]
    return _flow_samples(
        f, grid, stops, flow_steps, times, lambda x, t: f.value(nodes, t) + g.value(x, t)
    )


def pull_back(h, grid, steps):
    """:class:`ChartSamples` of the pulled-back symbol H_t o phi_t at the
    Gauss times of :func:`xi_path`, its node values h(phi_t(node), t).  An
    autonomous h is conserved by its flow, dH(X_H) = omega(X_H, X_H) = 0, so
    these are its own node values, static samples with no flow and drift 0.0; a
    time-dependent h flows forward in :func:`_flow_samples`, one RK4 step to
    each Gauss time and to the end of every Magnus step but the last, and its
    area drift reads int H_t o phi_t dmu against int H_t dmu."""
    gauss = _gauss_times(steps)
    times = [t for pair in gauss for t in pair]
    if h.autonomous:
        return ChartSamples(grid, dict.fromkeys(times, h.value(grid.nodes)), 0.0, static=True)
    dt = 1.0 / steps
    stops = [t for n, pair in enumerate(gauss) for t in (*pair, (n + 1) * dt)][:-1]
    return _flow_samples(h, grid, stops, steps, times, h.value)


def xi_path(space, h, steps):
    """Propagator on [0, 1] via the inverse-path equation.

    Integrates x = u^{-1} through d/dt x = i k B(t) x with B the
    Kostant-Souriau operator of the pulled-back symbol H_t o phi_t, then
    returns u = x* with the negated phase lift.  h is the Hamiltonian, or
    its :func:`pull_back` samples on ``space.grid`` for the same steps,
    which the levels of a sweep share.
    """
    if not isinstance(h, ChartSamples):
        h = pull_back(h, space.grid, steps)
    x, phase = _magnus(space, h, steps, 1.0)
    return PropagationResult(unitary=x.conj().T, phase=-phase)


def check_holomorphic(h):
    """Largest L2 norm of a static term of h off span{1, x1, x2, x3}; raises
    :class:`HolomorphyError` above :data:`HOLOMORPHY_TOL`.

    Area-preserving holomorphic maps of the round sphere are rotations, so
    every phi_t is holomorphic when each static polynomial of
    ``h.separable_terms()`` is affine on the sphere.  That is sufficient,
    not necessary: groups with dependent time functions may cancel.  A
    degree-d term is projected on ``quantize._exact_grid(0, D, D)``, D = max(2d, 2),
    exact for its products with the affine basis and its squared remainder.
    """
    norms = [0.0]
    for _, poly in h.separable_terms():
        degree = max(2 * max(sum(term.powers) for term in poly.terms), 2)
        grid = sphere.build_grid(*quantize._exact_grid(0, degree, degree))
        basis = np.column_stack([np.ones(grid.size), grid.nodes])
        values = poly.value(grid.nodes)
        # the basis is orthogonal, with Liouville norms 2 pi and 2 pi / 3
        coeffs = (grid.weights * values) @ basis * [1, 3, 3, 3] / sphere.TOTAL_VOLUME
        remainder = values - basis @ coeffs
        norms.append(float(np.sqrt(sphere.integrate_values(grid, remainder**2))))
    worst = float(np.max(norms))  # NaN propagates, where max() would drop it
    if not worst <= HOLOMORPHY_TOL:
        raise HolomorphyError(
            "flow does not preserve the round complex structure "
            f"(non-affine remainder {worst:.2e})"
        )
    return worst
