"""Pointwise geometry of compatible linear complex structures of the plane.

A compatible complex structure of (R^2, omega0) is a real 2x2 matrix j with
j^2 = -Id, j^T Omega j = Omega and Omega.j symmetric positive definite,
where Omega is the matrix of the standard symplectic form.  The space of
such structures carries the symplectic form sigma_j(a,b) = tr(j a b)/4 and
the Riemannian metric g(a,b) = sigma(a, jb); it is isometric to the
hyperbolic upper half-plane.  All matrix-level helpers below are batched
over leading axes so that fields of structures can be processed at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# omega0(X, Y) = X^T OMEGA Y
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])
J_STANDARD = np.array([[0.0, -1.0], [1.0, 0.0]])

STRUCTURE_TOL = 1e-10


class SiegelError(ValueError):
    """Raised on invalid complex structures, tangents or loops."""


# ---------------------------------------------------------------------------
# batched matrix-level routines


def structure_defect(j):
    """Max violation of j^2 = -Id and of omega0-compatibility, batched."""
    j = np.asarray(j, dtype=float)
    sq = np.einsum("...ij,...jk->...ik", j, j) + np.eye(2)
    comp = np.einsum("...ji,jk,...kl->...il", j, OMEGA, j) - OMEGA
    metric = np.einsum("ij,...jk->...ik", OMEGA, j)
    asym = metric - np.swapaxes(metric, -1, -2)
    err = np.max(np.abs(sq), axis=(-2, -1))
    err = np.maximum(err, np.max(np.abs(comp), axis=(-2, -1)))
    err = np.maximum(err, np.max(np.abs(asym), axis=(-2, -1)))
    # positivity of the induced metric: both diagonal entries and det
    neg = np.minimum(metric[..., 0, 0], metric[..., 1, 1])
    det = metric[..., 0, 0] * metric[..., 1, 1] - metric[..., 0, 1] ** 2
    err = np.maximum(err, np.maximum(-neg, -det) + 0.0)
    return err


def tangent_defect(j, a):
    """Max violation of the tangency equations at j, batched."""
    j = np.asarray(j, dtype=float)
    a = np.asarray(a, dtype=float)
    anti = np.einsum("...ij,...jk->...ik", j, a) + np.einsum(
        "...ij,...jk->...ik", a, j
    )
    sym = np.einsum("...ji,jk,...kl->...il", a, OMEGA, j) + np.einsum(
        "...ji,jk,...kl->...il", j, OMEGA, a
    )
    return np.maximum(
        np.max(np.abs(anti), axis=(-2, -1)), np.max(np.abs(sym), axis=(-2, -1))
    )


def sigma_matrices(j, a, b):
    """sigma_j(a, b) = tr(j a b) / 4, batched over leading axes."""
    return 0.25 * np.einsum("...ij,...jk,...ki->...", j, a, b)


def geodesic_matrices(j0, j1, t):
    """Point at parameter t of the geodesic from j0 to j1, batched.

    Uses A = -j0 j1, which is conjugate to diag(s, 1/s) with s > 0, and
    j_t = j0 A^t.  A^t is evaluated through the spectral projectors of A,
    with a Taylor fallback when A is close to the identity.
    """
    j0 = np.asarray(j0, dtype=float)
    j1 = np.asarray(j1, dtype=float)
    a = -np.einsum("...ij,...jk->...ik", j0, j1)
    at = _power_unit_det(a, t)
    return np.einsum("...ij,...jk->...ik", j0, at)


def _power_unit_det(a, t):
    """A^t for 2x2 matrices with det A = 1 and positive real spectrum."""
    a = np.asarray(a, dtype=float)
    eye = np.broadcast_to(np.eye(2), a.shape).copy()
    half_tr = np.clip(0.5 * (a[..., 0, 0] + a[..., 1, 1]), 1.0, None)
    s = half_tr + np.sqrt(np.maximum(half_tr**2 - 1.0, 0.0))
    gap = s - 1.0 / s

    out = np.empty_like(a)
    near = gap < 1e-5
    if np.any(near):
        # (I + X)^t by a fourth-order Taylor series; X is O(gap) here
        x = a[near] - eye[near]
        x2 = np.einsum("...ij,...jk->...ik", x, x)
        x3 = np.einsum("...ij,...jk->...ik", x2, x)
        tt = np.asarray(t, dtype=float)
        tn = tt[near] if tt.shape == gap.shape else tt
        c1 = np.asarray(tn)[..., None, None]
        c2 = np.asarray(tn * (tn - 1.0) / 2.0)[..., None, None]
        c3 = np.asarray(tn * (tn - 1.0) * (tn - 2.0) / 6.0)[..., None, None]
        out[near] = eye[near] + c1 * x + c2 * x2 + c3 * x3
    far = ~near
    if np.any(far):
        sf = s[far]
        gf = gap[far][..., None, None]
        af = a[far]
        tt = np.asarray(t, dtype=float)
        tf = tt[far] if tt.shape == gap.shape else tt
        p_plus = (af - (1.0 / sf)[..., None, None] * eye[far]) / gf
        p_minus = (sf[..., None, None] * eye[far] - af) / gf
        out[far] = (sf**tf)[..., None, None] * p_plus + (
            sf ** (-np.asarray(tf))
        )[..., None, None] * p_minus
    return out


def to_upper_half_plane(j):
    """Map a compatible structure to its upper half-plane coordinate.

    The induced metric is G = Omega.j = (1/y) [[1, x], [x, x^2+y^2]],
    so y = 1/G00 and x = G01/G00.
    """
    j = np.asarray(j, dtype=float)
    g = np.einsum("ij,...jk->...ik", OMEGA, j)
    y = 1.0 / g[..., 0, 0]
    x = g[..., 0, 1] * y
    return x + 1j * y


def from_upper_half_plane(tau):
    """Inverse of :func:`to_upper_half_plane`."""
    tau = np.asarray(tau, dtype=complex)
    x, y = tau.real, tau.imag
    if np.any(y <= 0):
        raise SiegelError("point not in the upper half-plane")
    j = np.empty(tau.shape + (2, 2))
    j[..., 0, 0] = -x / y
    j[..., 0, 1] = -(x**2 + y**2) / y
    j[..., 1, 0] = 1.0 / y
    j[..., 1, 1] = x / y
    return j


def geodesic_arc_flux(tau0, tau1):
    """Integral of the primitive dx/y along the hyperbolic geodesic arc.

    The primitive satisfies d(dx/y) = dx dy / y^2 (the hyperbolic area
    form), and the integral has a closed form: it vanishes on vertical
    segments and equals the angle swept on circular arcs centered on the
    real axis.  Batched over leading axes.
    """
    tau0 = np.asarray(tau0, dtype=complex)
    tau1 = np.asarray(tau1, dtype=complex)
    x0, y0 = tau0.real, tau0.imag
    x1, y1 = tau1.real, tau1.imag
    dx = x1 - x0
    vertical = np.abs(dx) < 1e-14 * (1.0 + np.abs(x0) + np.abs(x1))
    dxs = np.where(vertical, 1.0, dx)
    center = (np.abs(tau1) ** 2 - np.abs(tau0) ** 2) / (2.0 * dxs)
    t0 = np.arctan2(y0, x0 - center)
    t1 = np.arctan2(y1, x1 - center)
    return np.where(vertical, 0.0, t0 - t1)


def _sigma_area_constant():
    """Ratio of sigma to the hyperbolic area form, measured numerically."""
    h = 1e-6
    j = from_upper_half_plane(1j)
    ax = (from_upper_half_plane(h + 1j) - from_upper_half_plane(-h + 1j)) / (2 * h)
    ay = (from_upper_half_plane(1j * (1 + h)) - from_upper_half_plane(1j * (1 - h))) / (
        2 * h
    )
    # hyperbolic area form evaluated on (d/dx, d/dy) at i is 1
    return float(sigma_matrices(j, ax, ay))


SIGMA_AREA_CONSTANT = _sigma_area_constant()


def loop_flux(tau_samples):
    """Signed integral of sigma over a disc bounded by a closed tau-loop.

    The loop is the geodesic interpolation of the samples; each segment
    contributes its exact primitive integral, so the result is the exact
    sigma-area of the geodesic polygon through the samples.
    """
    tau = np.asarray(tau_samples, dtype=complex)
    arcs = geodesic_arc_flux(tau[..., :-1], tau[..., 1:])
    return SIGMA_AREA_CONSTANT * np.sum(arcs, axis=-1)


# ---------------------------------------------------------------------------
# typed single-point API


@dataclass(frozen=True)
class LinearComplexStructure:
    """A single omega0-compatible complex structure of the plane."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=float)
        if m.shape != (2, 2):
            raise SiegelError("expected a 2x2 matrix")
        object.__setattr__(self, "mat", m)
        if structure_defect(m) > 1e-12:
            raise SiegelError("matrix is not a compatible complex structure")


@dataclass(frozen=True)
class SiegelLoop:
    """Closed sampled loop of compatible structures (last sample = first)."""

    samples: tuple
    reversed_orientation: bool = field(default=False)

    def __post_init__(self):
        samples = tuple(self.samples)
        if len(samples) < 2:
            raise SiegelError("a loop needs at least two samples")
        object.__setattr__(self, "samples", samples)
        first, last = samples[0].mat, samples[-1].mat
        if np.max(np.abs(first - last)) > 1e-9:
            raise SiegelError("loop is not closed")


def geodesic(
    j0: LinearComplexStructure, j1: LinearComplexStructure, t: float
) -> LinearComplexStructure:
    """Point at parameter t of the unique geodesic from j0 to j1."""
    return LinearComplexStructure(geodesic_matrices(j0.mat, j1.mat, float(t)))


def loop_area(loop: SiegelLoop) -> float:
    """Integral of sigma over any disc bounded by the loop."""
    tau = to_upper_half_plane(np.stack([s.mat for s in loop.samples]))
    area = float(loop_flux(tau))
    return -area if loop.reversed_orientation else area
