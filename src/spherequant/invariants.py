"""Classical invariants: scalar curvature, the disc-area quasimorphism,
and the quantum homomorphism defect.

The quasimorphism is the disc-area term plus a curvature pairing that is
exactly 0 for the round structure (:data:`ROUND_CURVATURE_PAIRING`), so
the scalar curvature below serves only as a test oracle.  It is computed
as the Gauss curvature of g = omega(., j.), by the Brioschi formula with
central finite differences of the chart metric components; the stencil
for each node is evaluated in a single chart (the node's hemisphere
chart) even when it crosses the equator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow, propagate, quantize, siegel, sphere
from .unitary_metric import Unitary, UnitaryWithPhase, cover_distance

# ---------------------------------------------------------------------------
# scalar curvature


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


def scalar_curvature_at(field, points, h=1e-2):
    """Gauss curvature of omega(., j.) at the given points (Brioschi).

    Fourth-order central differences on a 5x5 chart stencil keep the
    truncation error well below the targeted 1e-4 while staying far from
    the roundoff floor of second derivatives.
    """
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


def scalar_curvature(field, grid, h=1e-2) -> sphere.ScalarField:
    values = scalar_curvature_at(field, grid.nodes, h=h)
    return sphere.ScalarField(values, grid)


# ---------------------------------------------------------------------------
# quasimorphism


# The curvature pairing int_0^1 int S(j_t) H_t dmu dt of the round j_0 is 0:
# naturality S(phi_* j) = S(j) o phi^{-1} and mu-invariance give
# int S(j_t) H_t dmu = int S(j_0) (H_t o phi_t) dmu = 2 int H_t dmu = 0,
# since S(j_0) = 2 and the normalized H_t has mean zero (Shelukhin 2014).
ROUND_CURVATURE_PAIRING = 0.0


@dataclass(frozen=True)
class ShelukhinValue:
    disc_term: float
    curvature_term: float

    @property
    def total(self):
        return self.disc_term + self.curvature_term


def _disc_flux(h, nodes, time_samples, flow_steps):
    """Per-node sigma-area of the loop traced by the transported structure,
    closed by the geodesic back to the start (exact geodesic-polygon flux).

    The samples share one backward sweep of the flow (see
    :class:`flow.BackwardSweep`)."""
    j0 = flow.RoundStructure()
    chart = flow.chart_of(nodes)
    sweep = flow.BackwardSweep(h, flow_steps)
    taus = np.empty((len(nodes), time_samples + 2), dtype=complex)
    for i, t in enumerate(np.linspace(0.0, 1.0, time_samples + 1)):
        if t == 0.0:
            mats = j0.evaluate(nodes, chart)
        else:
            y, m3 = sweep.transport(nodes, t)
            mats = flow.pushforward_matrices(j0, nodes, y, m3, chart)
        taus[:, i] = siegel.to_upper_half_plane(mats)
    taus[:, -1] = taus[:, 0]
    # Romberg in the time sampling: the polygonal flux converges at second
    # order with an even-power error expansion, so two extrapolation levels
    # over the nested samplings (full, half, quarter) give sixth order.
    levels = []
    for stride in (1, 2, 4):
        samples = np.concatenate([taus[:, 0:-1:stride], taus[:, :1]], axis=1)
        levels.append(siegel.loop_flux(samples))
    fine = (4.0 * levels[0] - levels[1]) / 3.0
    coarse = (4.0 * levels[1] - levels[2]) / 3.0
    return (16.0 * fine - coarse) / 15.0


def shelukhin(h, grid, time_samples=32, flow_steps=256) -> ShelukhinValue:
    """Disc-area term plus curvature pairing of the path generated by the
    (normalized) Hamiltonian h for the round structure; the pairing is
    :data:`ROUND_CURVATURE_PAIRING`.

    The disc term only depends on the underlying path of diffeomorphisms,
    not on the normalization of its generating Hamiltonian.
    """
    if time_samples % 4:
        raise ValueError("time_samples must be divisible by 4 (nested refinement)")
    flux = _disc_flux(h, grid.nodes, time_samples, flow_steps)
    disc = sphere.integrate_values(grid, flux)
    return ShelukhinValue(disc_term=disc, curvature_term=ROUND_CURVATURE_PAIRING)


# ---------------------------------------------------------------------------
# quantum homomorphism defect


def cover_product(a: UnitaryWithPhase, b: UnitaryWithPhase) -> UnitaryWithPhase:
    return UnitaryWithPhase(Unitary(a.u.mat @ b.u.mat), a.phase + b.phase)


def defect(h_a, h_b, ks, steps=128, flow_steps=256):
    """Cover distance between the product of the quantized paths of h_a
    and h_b and the quantization of the product path, for each level k."""
    combined = sphere.star_product(h_a, h_b, flow_steps=flow_steps)
    out = []
    for k in ks:
        space = quantize.build_space(k)
        ua = propagate.propagate_ks(space, h_a, steps).with_phase()
        ub = propagate.propagate_ks(space, h_b, steps).with_phase()
        uab = propagate.propagate_ks(space, combined, steps).with_phase()
        out.append(cover_distance(cover_product(ua, ub), uab))
    return np.array(out)
