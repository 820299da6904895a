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

import numpy as np

# omega0(X, Y) = X^T OMEGA Y
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])
J_STANDARD = np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# batched matrix-level routines


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


# sigma = SIGMA_AREA_CONSTANT * (hyperbolic area form dx dy / y^2): at
# tau = i the coordinate tangents are d/dx = [[-1, 0], [0, 1]] and
# d/dy = [[0, -1], [-1, 0]], j = J_STANDARD, and tr(j a b) / 4 = 1/2
SIGMA_AREA_CONSTANT = 0.5


def loop_flux(tau_samples):
    """Signed integral of sigma over a disc bounded by a closed tau-loop.

    The loop is the geodesic interpolation of the samples; each segment
    contributes its exact primitive integral, so the result is the exact
    sigma-area of the geodesic polygon through the samples.
    """
    tau = np.asarray(tau_samples, dtype=complex)
    arcs = geodesic_arc_flux(tau[..., :-1], tau[..., 1:])
    return SIGMA_AREA_CONSTANT * np.sum(arcs, axis=-1)
