"""Schrodinger propagation of quantized Hamiltonians with a phase lift.

The propagator solves d/dt u = -i k A(t) u with A(t) the quantized
generator (Toeplitz or Kostant-Souriau).  Steps are those of the
fourth-order Magnus scheme of :func:`_magnus`, exponentiated through a
Hermitian eigendecomposition, so every partial product is exactly
unitary, and the determinant of each step factor is exp(-i k dt tr A),
which accumulates the lifted phase without any angle unwrapping.

A polynomial path A(t) = sum_i c_i(t) A_i has every step generator in the
span of the A_i and their commutators.  When that span is tridiagonal in
the monomial basis (the rotations x1, x2 with functions of the height
x3), the commutators are formed once per propagation and each step is
diagonalised by a real symmetric tridiagonal solver instead of a dense
``eigh``; other generators are read per step and take the dense route.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

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
    propagation: a symbol at the Gauss times of every Magnus step, as node
    values or as north-chart data (values, dz(X)), on the nodes of ``grid``.

    The samples depend on the grid and the steps but not on the level k,
    so one set, sampled once per sweep, stands in for its symbol at every
    level built on ``grid``: :func:`propagate_ks` takes the
    :func:`product_samples` of a product path and :func:`xi_path` the
    :func:`pull_back` of a path in place of the Hamiltonian.
    ``flow_det_drift`` is max |det J - 1| of the frame Jacobian of the flow
    that produced the samples, at the last one.
    """

    grid: sphere.SphereGrid
    data: dict  # Gauss time -> values, or (values, a)
    flow_det_drift: float

    def operator(self, space, t):
        """Kostant-Souriau operator on ``space`` of the sample at time t."""
        if space.grid.nodes is not self.grid.nodes:
            raise ValueError("chart samples serve only the nodes of their own grid")
        try:
            sample = self.data[t]
        except KeyError:
            raise ValueError(
                f"no chart sample at t = {t!r}; the samples were taken for "
                "other Magnus steps"
            ) from None
        if isinstance(sample, tuple):
            return quantize.kostant_souriau_from_chart(space, *sample)
        return quantize.kostant_souriau(space, sample)


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


def _expi_tridiagonal(d, e, scale, u):
    """exp(1j * scale * H) @ u for the Hermitian tridiagonal H with real
    diagonal d and superdiagonal e.

    With D = diag(delta), delta_0 = 1 and delta_{j+1} = delta_j conj(e_j) /
    |e_j| (1 where e_j = 0), H = D T D* for the real symmetric T with
    diagonal d and off-diagonal |e|.  T = Q diag(lam) Q^T is found by
    scipy's default symmetric tridiagonal driver (divide and conquer,
    ``?stevd``, where scipy offers it; MRRR, ``?stemr``, before), and
    u <- D Q exp(i scale lam) Q^T D* u runs as two real matrix products on
    the (re, im) interleaved u.
    """
    delta = np.exp(-1j * np.concatenate(([0.0], np.cumsum(np.angle(e)))))
    vals, q = scipy.linalg.eigh_tridiagonal(d, np.abs(e))
    v = (q.T @ (delta.conj()[:, None] * u).view(float)).view(complex)
    v *= np.exp(1j * scale * vals)[:, None]
    return delta[:, None] * (q @ v.view(float)).view(complex)


# Gauss points of the fourth-order Magnus scheme
_GAUSS_LO = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + np.sqrt(3.0) / 6.0


def _check_steps(steps):
    """Raise unless the Magnus step count is a positive integer, not a bool."""
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")


def _gauss_times(steps):
    """The two Gauss times of each of ``steps`` equal Magnus steps on
    [0, 1]; :class:`ChartSamples` are keyed by these floats."""
    _check_steps(steps)
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
    that sum.  Returns (coef, mats).
    """
    fns, mats, _ = zip(*groups)
    # c[n, s, i] = c_i at Gauss time s of step n
    c = np.array(
        [[[1.0 if fn is None else fn(t) for fn in fns] for t in pair] for pair in gauss]
    )
    i, j = np.triu_indices(len(mats), 1)
    cross = c[:, 0, i] * c[:, 1, j] - c[:, 0, j] * c[:, 1, i]
    coef = np.concatenate(
        [0.5 * (c[:, 0] + c[:, 1]), -sign * 1j * (np.sqrt(3.0) * k * dt / 12.0) * cross],
        axis=1,
    )
    commutators = [mats[a] @ mats[b] - mats[b] @ mats[a] for a, b in zip(i, j)]
    return coef, np.stack(mats + tuple(commutators))


def _magnus(space, generator_fn, steps, sign):
    """Fourth-order Magnus integration on [0, 1] of d/dt u = sign * i k A(t) u
    from u = I (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009).

    ``generator_fn`` gives A(t), read at the two :func:`_gauss_times` of
    each of ``steps`` equal steps.  Returns u and its determinant lift, the
    sum of sign * k dt tr A over the steps.

    A generator carrying separable ``groups`` (see
    :func:`_separable_generator`) whose :func:`_step_band` is at most 1,
    on a grid with more than k + 1 azimuths, is not read per step: its
    step generators come from :func:`_separable_steps` and each is
    exponentiated by :func:`_expi_tridiagonal`.  That is exact up to
    quadrature rounding: entry (m, n) of a compressed symbol reads its
    azimuthal mode (m - n) mod n_phi, and a symbol of azimuthal degree
    b <= 1 has modes |j| <= 1 only; since |m - n - j| <= k + 1 < n_phi, an
    entry with |m - n| >= 2 meets none of them, so the entries off the
    band are rounding.  Other generators are read at both Gauss times of
    every step and go through the dense :func:`_expi`.
    """
    k = space.k
    gauss = _gauss_times(steps)
    dt = 1.0 / steps
    scale = sign * k * dt
    groups = getattr(generator_fn, "groups", None)
    if (
        groups is not None
        and _step_band([degree for _, _, degree in groups]) <= 1
        and space.grid.n_phi > k + 1
    ):
        coef, mats = _separable_steps(groups, gauss, k, dt, sign)
        diag = (coef @ np.diagonal(mats, axis1=1, axis2=2)).real
        upper = coef @ np.diagonal(mats, 1, axis1=1, axis2=2)
        u = np.eye(space.dim, dtype=complex)
        for d, e in zip(diag, upper):
            u = _expi_tridiagonal(d, e, scale, u)
        return u, scale * float(np.sum(diag))
    u = np.eye(space.dim, dtype=complex)
    phase = 0.0
    for t1, t2 in gauss:
        h_eff = _magnus_effective(generator_fn(t1), generator_fn(t2), k, dt, sign)
        u = _expi(h_eff, scale) @ u
        phase += scale * np.trace(h_eff).real
    return u, phase


def propagate_generic(space, generator_fn, steps):
    """Fourth-order Magnus propagation of d/dt u = -i k A(t) u on [0, 1].

    A generator marked ``autonomous`` (see :func:`_separable_generator`)
    is constant in time, so both Gauss points see the same matrix, the
    commutator vanishes and the steps multiply to exp(-i k A): one
    eigendecomposition replaces the loop.
    """
    k = space.k
    if getattr(generator_fn, "autonomous", False):
        _check_steps(steps)
        a = generator_fn(0.0)
        return PropagationResult(unitary=_expi(a, -k), phase=-k * np.trace(a).real)
    u, phase = _magnus(space, generator_fn, steps, -1.0)
    return PropagationResult(unitary=u, phase=phase)


def _azimuthal_degree(poly):
    """Largest a + b over the monomials x1^a x2^b x3^c of poly: its modes
    e^{i j phi} have |j| <= a + b, so its quantized operators vanish off
    the diagonals |m - n| <= a + b."""
    return max((term.powers[0] + term.powers[1] for term in poly.terms), default=0)


def _separable_generator(space, h, builder):
    """t -> sum_i c_i(t) A_i over the groups of ``h.separable_terms()``,
    A_i = builder(space, poly_i).  ``groups`` lists (c_i, A_i, azimuthal
    degree of poly_i), with c_i None for a static group."""
    groups = [
        (fn, builder(space, poly), _azimuthal_degree(poly))
        for fn, poly in h.separable_terms()
    ]

    def generator(t):
        a = np.zeros((space.dim, space.dim), dtype=complex)
        for fn, mat, _ in groups:
            a += (1.0 if fn is None else fn(t)) * mat
        return a

    generator.autonomous = h.autonomous
    generator.groups = groups
    return generator


def ks_generator(space, h):
    """Kostant-Souriau generator t -> K(t) of a polynomial path h, or of
    :class:`ChartSamples` on ``space.grid``."""
    if isinstance(h, ChartSamples):
        return lambda t: h.operator(space, t)
    return _separable_generator(
        space, h, lambda sp, p: quantize.kostant_souriau(sp, p.value(sp.grid.nodes))
    )


def propagate_toeplitz(space, h, steps):
    generator = _separable_generator(space, h, quantize.toeplitz)
    return propagate_generic(space, generator, steps)


def propagate_ks(space, h, steps):
    return propagate_generic(space, ks_generator(space, h), steps)


def product_samples(f, g, grid, steps, flow_steps=256):
    """:class:`ChartSamples` on ``grid`` of the values of f_t + g_t o
    alpha_t^{-1}, the generator of the product of the paths of f and g
    (alpha the flow of f), at the Gauss times of :func:`propagate_generic`.

    The inverse flow of an autonomous f is its flow at time -t, so one
    :func:`flow.sweep` at negative times maps the nodes back for every
    sample; a time-dependent f is transported backward afresh at each
    time.  Only a 6 x 12 grid's nodes carry the variational equation, for
    ``flow_det_drift``.
    """
    nodes = grid.nodes
    sentinel = sphere.build_grid(6, 12).nodes
    times = [t for pair in _gauss_times(steps) for t in pair]
    if f.autonomous:
        back = [-t for t in times]
        inverse = flow.sweep(f, nodes, back, flow_steps, jacobian=False)
        *_, (y, m) = flow.sweep(f, sentinel, back, flow_steps)
    else:
        counts = [flow.per_time_steps(flow_steps, t) for t in times]
        inverse = (
            flow.transport_backward(f, nodes, t, n, jacobian=False)
            for t, n in zip(times, counts)
        )
        y, m = flow.transport_backward(f, sentinel, times[-1], counts[-1])
    drift = flow.jacobian_det_drift(flow.frame_jacobian(m, sentinel, y))
    data = {t: f.value(nodes, t) + g.value(x, t) for t, (x, _) in zip(times, inverse)}
    return ChartSamples(grid, data, drift)


def pull_back(h, grid, steps):
    """:class:`ChartSamples` of the pulled-back symbol H_t o phi_t at the
    Gauss times of :func:`xi_path`.

    The forward flow phi_t of h runs from the grid nodes in one
    :func:`flow.sweep`, which stops at each Gauss time and at the end of
    every Magnus step but the last: one RK4 step to each stop.  Values are
    taken at phi_t(node) and the vector field is mapped back by the
    forward tangent map.
    """
    gauss = _gauss_times(steps)
    dt = 1.0 / steps
    nodes = grid.nodes
    samples = {t for pair in gauss for t in pair}
    stops = [t for n, pair in enumerate(gauss) for t in (*pair, (n + 1) * dt)][:-1]
    data = {}
    for t, (y, m) in zip(stops, flow.sweep(h, nodes, stops, steps)):
        if t in samples:
            # dz of m^{-1} X_h(y), the Hamiltonian vector field of h_t o phi_t
            x = np.linalg.solve(m, flow.hamiltonian_vector_field(h, y, t)[..., None])
            data[t] = h.value(y, t), flow.chart_one_form(x[..., 0], nodes)
    drift = flow.jacobian_det_drift(flow.frame_jacobian(m, nodes, y))
    return ChartSamples(grid, data, drift)


def xi_path(space, h, steps):
    """Propagator on [0, 1] via the inverse-path equation.

    Integrates x = u^{-1} through d/dt x = i k B(t) x with B the
    Kostant-Souriau operator of the pulled-back symbol H_t o phi_t, then
    returns u = x* with the negated phase lift.  h is the Hamiltonian, or
    its :func:`pull_back` samples on ``space.grid`` for the same steps,
    which the levels of a sweep share.
    """
    pulled = h
    if not isinstance(h, ChartSamples):
        pulled = pull_back(h, space.grid, steps)
    x, phase = _magnus(space, ks_generator(space, pulled), steps, 1.0)
    return PropagationResult(unitary=x.conj().T, phase=-phase)


def check_holomorphic(h):
    """Largest L2 norm of a static term of h off span{1, x1, x2, x3}; raises
    :class:`HolomorphyError` above :data:`HOLOMORPHY_TOL`.

    Area-preserving holomorphic maps of the round sphere are rotations, so
    every phi_t is holomorphic when each static polynomial of
    ``h.separable_terms()`` is affine on the sphere.  That is sufficient,
    not necessary: groups with dependent time functions may cancel.  A
    degree-d term is projected exactly on ``build_grid(d + 2, 2d + 4)``.
    """
    worst = 0.0
    for _, poly in h.separable_terms():
        d = max(sum(term.powers) for term in poly.terms)
        grid = sphere.build_grid(d + 2, 2 * d + 4)
        basis = np.column_stack([np.ones(grid.size), grid.nodes])
        values = poly.value(grid.nodes)
        # the basis is orthogonal, with Liouville norms 2 pi and 2 pi / 3
        coeffs = (grid.weights * values) @ basis * [1, 3, 3, 3] / sphere.TOTAL_VOLUME
        remainder = values - basis @ coeffs
        worst = max(worst, float(np.sqrt(grid.weights @ remainder**2)))
    if worst > HOLOMORPHY_TOL:
        raise HolomorphyError(
            "flow does not preserve the round complex structure "
            f"(non-affine remainder {worst:.2e})"
        )
    return worst
