"""Classical invariants: scalar curvature, the disc-area quasimorphism,
and the quantum homomorphism defect at one level.

The quasimorphism is a disc term plus a curvature pairing.  The pairing is
0 for the round structure, and the disc term is 0 on every path the
holomorphy gate admits.  The finite-difference scalar curvature below
(Brioschi formula, each node's 5x5 stencil in its hemisphere chart) and
:func:`shelukhin`, which integrates the disc flux, are their oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow, propagate, siegel, sphere
from .unitary_metric import Unitary, UnitaryWithPhase, cover_distance

# ---------------------------------------------------------------------------
# scalar curvature

CURVATURE_STEP = 1e-2


def _metric_components(field, z, chart):
    """Chart metric (E, F, G) of g = omega(., j.) at chart coordinates z.

    The frame metric is Omega j; the chart coordinate frame is the
    symplectic frame scaled by (1 + |z|^2)/sqrt(2), so the coordinate
    metric carries the factor 2/(1+|z|^2)^2.
    """
    points = flow.chart_points(z, chart)
    j = field.evaluate(points, chart)
    g = np.einsum("ij,...jk->...ik", siegel.OMEGA, j)
    scale = 2.0 / (1.0 + np.abs(z) ** 2) ** 2
    return scale * g[..., 0, 0], scale * g[..., 0, 1], scale * g[..., 1, 1]


def scalar_curvature_at(field, points):
    """Gauss curvature of omega(., j.) at the given points (Brioschi).

    Fourth-order central differences on a 5x5 chart stencil of step
    :data:`CURVATURE_STEP` keep the truncation error well below the
    targeted 1e-4 while staying far from the roundoff floor of second
    derivatives.
    """
    h = CURVATURE_STEP
    points = np.asarray(points, dtype=float)
    chart = flow.chart_of(points)
    z0 = flow.chart_coords(points, chart)
    span = (-2, -1, 0, 1, 2)
    offsets = [(du, dv) for dv in span for du in span]
    zz = np.stack([z0 + h * (du + 1j * dv) for du, dv in offsets])
    comp = _metric_components(
        field,
        zz.reshape(-1),
        np.broadcast_to(chart, zz.shape).reshape(-1),
    )
    e, f, g = (c.reshape(zz.shape) for c in comp)
    idx = {off: i for i, off in enumerate(offsets)}
    c1 = {-2: 1.0, -1: -8.0, 0: 0.0, 1: 8.0, 2: -1.0}
    c2 = {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0}

    def d_u(c):
        return sum(c1[i] * c[idx[(i, 0)]] for i in span) / (12 * h)

    def d_v(c):
        return sum(c1[j] * c[idx[(0, j)]] for j in span) / (12 * h)

    def d_uu(c):
        return sum(c2[i] * c[idx[(i, 0)]] for i in span) / (12 * h**2)

    def d_vv(c):
        return sum(c2[j] * c[idx[(0, j)]] for j in span) / (12 * h**2)

    def d_uv(c):
        return sum(
            c1[i] * c1[j] * c[idx[(i, j)]]
            for i in span
            for j in span
            if i and j
        ) / (144 * h**2)

    e0, f0, g0 = e[idx[(0, 0)]], f[idx[(0, 0)]], g[idx[(0, 0)]]
    m1 = np.stack(
        [
            np.stack(
                [-0.5 * d_vv(e) + d_uv(f) - 0.5 * d_uu(g), 0.5 * d_u(e), d_u(f) - 0.5 * d_v(e)],
                axis=-1,
            ),
            np.stack([d_v(f) - 0.5 * d_u(g), e0, f0], axis=-1),
            np.stack([0.5 * d_v(g), f0, g0], axis=-1),
        ],
        axis=-2,
    )
    zero = np.zeros_like(e0)
    m2 = np.stack(
        [
            np.stack([zero, 0.5 * d_v(e), 0.5 * d_u(g)], axis=-1),
            np.stack([0.5 * d_v(e), e0, f0], axis=-1),
            np.stack([0.5 * d_u(g), f0, g0], axis=-1),
        ],
        axis=-2,
    )
    det = e0 * g0 - f0**2
    return (np.linalg.det(m1) - np.linalg.det(m2)) / det**2


def scalar_curvature(field, grid) -> sphere.ScalarField:
    return sphere.ScalarField(scalar_curvature_at(field, grid.nodes), grid)


# ---------------------------------------------------------------------------
# quasimorphism


# The curvature pairing int_0^1 int S(j_t) H_t dmu dt of the round j_0 is 0:
# naturality S(phi_* j) = S(j) o phi^{-1} and mu-invariance give
# int S(j_t) H_t dmu = int S(j_0) (H_t o phi_t) dmu = 2 int H_t dmu = 0,
# since S(j_0) = 2 and the normalized H_t has mean zero (Shelukhin 2014).
ROUND_CURVATURE_PAIRING = 0.0

# The disc term of every path :func:`propagate.check_holomorphic` admits is
# 0: the gate admits only paths whose static groups are affine on S^2, so
# every phi_t is a rotation.  In the orthonormal, oriented chart frames a
# rotation's reduced Jacobian J lies in SO(2) and commutes with j0, so
# phi_t^* j0 = J^{-1} j0 J = j0 at every node and time: the loop is
# constant and bounds zero sigma-area.  :func:`shelukhin` is the oracle.
HOLOMORPHIC_DISC_TERM = 0.0


@dataclass(frozen=True)
class ShelukhinValue:
    disc_term: float
    curvature_term: float

    @property
    def total(self):
        return self.disc_term + self.curvature_term


def extrapolated_loop_flux(taus):
    """sigma-area of tau-paths (n, samples + 1) at equispaced times, each
    closed by the geodesic back to its start.  The polygonal flux converges
    at second order in even powers, so two Romberg levels over the nested
    samplings (full, half, quarter) give sixth order."""
    levels = [
        siegel.loop_flux(np.concatenate([taus[:, ::s], taus[:, :1]], axis=1))
        for s in (1, 2, 4)
    ]
    fine = (4.0 * levels[0] - levels[1]) / 3.0
    coarse = (4.0 * levels[1] - levels[2]) / 3.0
    return (16.0 * fine - coarse) / 15.0


def _disc_flux(h, nodes, time_samples, flow_steps):
    """Per-node disc flux of the path of h.

    The round curvature pairing vanishes, so the disc term depends only on
    the homotopy class and equals -int area_y(t -> phi_t^* j0) dmu(y), with
    phi_t^* j0 = J^{-1} j0 J and J = dphi_t(y) at the fixed nodes y, all
    read from one forward :func:`flow.sweep`."""
    chart = flow.chart_of(nodes)
    taus = np.empty((len(nodes), time_samples + 1), dtype=complex)
    times = np.linspace(0.0, 1.0, time_samples + 1)
    for i, (y, m) in enumerate(flow.sweep(h, nodes, times, flow_steps)):
        jac = flow.frame_jacobian(m, nodes, y, x_chart=chart)
        taus[:, i] = siegel.to_upper_half_plane(
            np.linalg.solve(jac, flow.J_STANDARD @ jac)
        )
    return -extrapolated_loop_flux(taus)


def shelukhin(h, grid, time_samples=32, flow_steps=256) -> ShelukhinValue:
    """Disc-area term plus curvature pairing of the path generated by the
    (normalized) Hamiltonian h for the round structure; the pairing is
    :data:`ROUND_CURVATURE_PAIRING`.

    The disc term only depends on the underlying path of diffeomorphisms,
    not on the normalization of its generating Hamiltonian.
    """
    if time_samples < 4 or time_samples % 4:
        raise ValueError(
            f"time_samples must be a positive multiple of 4, got {time_samples!r}"
        )
    flux = _disc_flux(h, grid.nodes, time_samples, flow_steps)
    return ShelukhinValue(sphere.integrate_values(grid, flux), ROUND_CURVATURE_PAIRING)


# ---------------------------------------------------------------------------
# quantum homomorphism defect


def cover_product(a: UnitaryWithPhase, b: UnitaryWithPhase) -> UnitaryWithPhase:
    return UnitaryWithPhase(Unitary(a.u.mat @ b.u.mat), a.phase + b.phase)


def level_defect(space, h_a, h_b, product, steps):
    """Cover distance at one level between the product of the quantized
    paths of h_a and h_b and the quantized product path, whose
    :func:`propagate.product_samples` were taken on ``space.grid``, and the
    three cover elements (a, b, product) it was measured from."""
    ua = propagate.propagate_ks(space, h_a, steps).with_phase()
    ub = propagate.propagate_ks(space, h_b, steps).with_phase()
    uab = propagate.propagate_ks(space, product, steps).with_phase()
    return cover_distance(cover_product(ua, ub), uab), (ua, ub, uab)
