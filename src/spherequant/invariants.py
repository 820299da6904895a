"""Classical invariants: the disc-area quasimorphism and the quantum
homomorphism defect at one level.

The quasimorphism is a disc term plus a curvature pairing.  The pairing is
0 for the round structure, and the disc term is 0 on every path the
holomorphy gate admits.  :func:`shelukhin`, which integrates the disc flux,
is the oracle of the second; the finite-difference scalar curvature behind
the first lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow, propagate, siegel, sphere
from .hamiltonians import _is_count
from .unitary_metric import Unitary, UnitaryWithPhase, _relative, cover_distance, cover_radius

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
    for i, (y, m) in enumerate(flow.sweep(h, nodes, times, flow_steps, jacobians=True)):
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
    if not _is_count(time_samples, least=4) or time_samples % 4:
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
    :func:`propagate.product_samples` were taken on ``space.grid``, the
    three cover elements (a, b, product) it was measured from, and the
    largest part of a matrix that the parity fold dropped (None off it).

    When the samples carry a half-turn ``axis``, h_a and h_b keep that half
    turn too, so b.u a.u^H commutes with it: its eigenvalues are those of its
    two :func:`propagate._fold_pairs` blocks, framed as the product path's
    propagator was, and their union takes the one lattice step,
    :func:`unitary_metric.cover_radius`."""
    ua = propagate.propagate_ks(space, h_a, steps).with_phase()
    ub = propagate.propagate_ks(space, h_b, steps).with_phase()
    result = propagate.propagate_ks(space, product, steps)
    uab = result.with_phase()
    covers = (ua, ub, uab)
    a = cover_product(ua, ub)
    if product.axis is None:
        return cover_distance(a, uab), covers, None
    frame = propagate._half_turn_frame(product.axis, space.dim)
    blocks, drop = propagate._fold_pairs(_relative(a, uab), frame)
    h = space.dim // 2
    lam = np.concatenate([np.linalg.eigvals(blocks[0]), np.linalg.eigvals(blocks[1, :h, :h])])
    drop = float(np.max([drop, result.parity_drop]))
    return cover_radius(lam, uab.phase - a.phase), covers, drop
