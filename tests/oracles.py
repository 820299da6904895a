"""Known-answer routes that the pipeline no longer runs, kept as test oracles."""

import numpy as np

from spherequant import flow, sphere


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
