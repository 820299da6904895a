"""Known-answer routes that the pipeline no longer runs, kept as test oracles."""

import numpy as np

from spherequant import flow, siegel, sphere


def rk4_holomorphy(h):
    """(det drift, structure defect) of the time-1 flow of h, from RK4.

    phi_* j0 = j0 exactly when J^{-1} j0 J = j0 for J = dphi, so the probe
    reads the forward flow of a 6 x 12 grid at t = 1 from one
    :func:`flow.sweep` (256 RK4 steps with the variational equation).  The
    drift is max |det J - 1|, which says whether the steps resolve the flow;
    the defect is the largest entry of J^{-1} j0 J - j0.  It sees phi_1
    alone, not the path.
    """
    nodes = sphere.build_grid(6, 12).nodes
    ((y, m),) = flow.sweep(h, nodes, [1.0], 256)
    jac = flow.frame_jacobian(m, nodes, y)
    mats = np.linalg.solve(jac, flow.J_STANDARD @ jac)
    return flow.jacobian_det_drift(jac), float(np.max(np.abs(mats - flow.J_STANDARD)))


# ---------------------------------------------------------------------------
# compatible complex structures of the plane, batched over leading axes


def structure_defect(j):
    """Max violation of j^2 = -Id and of omega0-compatibility, batched."""
    j = np.asarray(j, dtype=float)
    omega = siegel.OMEGA
    sq = np.einsum("...ij,...jk->...ik", j, j) + np.eye(2)
    comp = np.einsum("...ji,jk,...kl->...il", j, omega, j) - omega
    metric = np.einsum("ij,...jk->...ik", omega, j)
    asym = metric - np.swapaxes(metric, -1, -2)
    err = np.max(np.abs(sq), axis=(-2, -1))
    err = np.maximum(err, np.max(np.abs(comp), axis=(-2, -1)))
    err = np.maximum(err, np.max(np.abs(asym), axis=(-2, -1)))
    # positivity of the induced metric: both diagonal entries and det
    neg = np.minimum(metric[..., 0, 0], metric[..., 1, 1])
    det = metric[..., 0, 0] * metric[..., 1, 1] - metric[..., 0, 1] ** 2
    err = np.maximum(err, np.maximum(-neg, -det) + 0.0)
    return err


def sigma_matrices(j, a, b):
    """sigma_j(a, b) = tr(j a b) / 4, batched over leading axes."""
    return 0.25 * np.einsum("...ij,...jk,...ki->...", j, a, b)


def from_upper_half_plane(tau):
    """Inverse of :func:`siegel.to_upper_half_plane`."""
    tau = np.asarray(tau, dtype=complex)
    x, y = tau.real, tau.imag
    if np.any(y <= 0):
        raise ValueError("point not in the upper half-plane")
    j = np.empty(tau.shape + (2, 2))
    j[..., 0, 0] = -x / y
    j[..., 0, 1] = -(x**2 + y**2) / y
    j[..., 1, 0] = 1.0 / y
    j[..., 1, 1] = x / y
    return j
