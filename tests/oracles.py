"""Known-answer routes that the pipeline no longer runs, kept as test oracles."""

import numpy as np
import scipy.linalg

from spherequant import flow, siegel, sphere
from spherequant.unitary_metric import TWO_PI, LatticeInvariantError, LatticeProblem


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
# complex-structure fields: ``evaluate(points, chart)`` gives the 2x2 frame
# matrices in the given charts (per-point hemisphere charts for None).  The
# flow is read through the ``flow`` module, so a test that replaces
# ``flow.transport_backward`` sees every call.


def chart_points(z, chart):
    """Embedded point of a chart coordinate."""
    z = np.asarray(z, dtype=complex)
    chart = np.broadcast_to(chart, z.shape)
    d = 1.0 + np.abs(z) ** 2
    x1 = 2.0 * z.real / d
    x2 = np.where(chart == flow.NORTH, 2.0 * z.imag / d, -2.0 * z.imag / d)
    x3 = np.where(chart == flow.NORTH, (2.0 - d) / d, (d - 2.0) / d)
    return np.stack([x1, x2, x3], axis=-1)


class RoundStructure:
    """The integrable round structure; standard matrix in either frame."""

    def evaluate(self, points, chart=None):
        points = np.asarray(points, dtype=float)
        return np.broadcast_to(siegel.J_STANDARD, points.shape[:-1] + (2, 2)).copy()


class PushforwardStructure:
    """Pushforward of a structure field by the time-t Hamiltonian flow,
    transported backward afresh at each evaluation."""

    def __init__(self, inner, h, t, steps_per_unit_time=256):
        self.inner = inner
        self.h = h
        self.t = float(t)
        self.steps_per_unit_time = steps_per_unit_time

    def evaluate(self, points, chart=None):
        points = np.asarray(points, dtype=float)
        if chart is None:
            chart = flow.chart_of(points)
        if self.t == 0.0:
            return self.inner.evaluate(points, chart)
        steps = flow.per_time_steps(self.steps_per_unit_time, self.t)
        y, m3 = flow.transport_backward(self.h, points, self.t, steps)
        b = flow.frame_jacobian(m3, points, y, x_chart=chart)
        return np.linalg.solve(b, self.inner.evaluate(y) @ b)


# ---------------------------------------------------------------------------
# scalar curvature: the oracle of the closed forms S(j0) = 2 and
# invariants.ROUND_CURVATURE_PAIRING = 0

CURVATURE_STEP = 1e-2


def _metric_components(field, z, chart):
    """Chart metric (E, F, G) of g = omega(., j.) at chart coordinates z.

    The frame metric is Omega j; the chart coordinate frame is the
    symplectic frame scaled by (1 + |z|^2)/sqrt(2), so the coordinate
    metric carries the factor 2/(1+|z|^2)^2.
    """
    points = chart_points(z, chart)
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


# ---------------------------------------------------------------------------
# the spin-k/2 representation: the Kostant-Souriau operators of the
# coordinates are J_i = (k/2) K_k(x_i), with [J1, J2] = -i J3 and cyclic


def spin_matrices(k):
    """(J1, J2, J3) of spin k/2 in the monomial basis z^m, m = 0..k, from
    closed-form ladder entries: J3 = diag(k/2 - m), and J1 + i J2 has the
    entries sqrt((m + 1)(k - m)) at (m + 1, m).  At k = 1 these are the
    spin-1/2 matrices s_i = (sigma_1, -sigma_2, sigma_3) / 2."""
    m = np.arange(k)
    plus = np.diag(np.sqrt((m + 1.0) * (k - m)), -1).astype(complex)
    minus = plus.conj().T
    j3 = np.diag(k / 2.0 - np.arange(k + 1)).astype(complex)
    return np.stack([0.5 * (plus + minus), (plus - minus) / 2j, j3])


def su2_propagator(c, steps=2048):
    """The g in SU(2) with dg/dt = -2i sum_i c_i(t) s_i g, g(0) = 1, at
    t = 1, from ``steps`` RK4 steps of the 2 x 2 equation.

    ``c(t)`` gives (c1, c2, c3), the coefficients of x1, x2 and x3 in a path
    h_t = c0(t) + sum_i c_i(t) x_i, whose Kostant-Souriau propagator at
    level k is exp(-i k int c0 dt) D^{k/2}(g).
    """
    s = spin_matrices(1)

    def field(t, g):
        return -2j * np.tensordot(c(t), s, 1) @ g

    g = np.eye(2, dtype=complex)
    dt = 1.0 / steps
    for n in range(steps):
        t = n * dt
        k1 = field(t, g)
        k2 = field(t + dt / 2, g + dt / 2 * k1)
        k3 = field(t + dt / 2, g + dt / 2 * k2)
        k4 = field(t + dt, g + dt * k3)
        g = g + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return g


def spin_representation(k, g):
    """D^{k/2}(g) in the monomial basis for g in SU(2), not through
    ``compress``: the logarithm X = sum_i a_i s_i of g (a_i = 2 tr(X s_i),
    as tr(s_i s_j) = delta_ij / 2) goes to sum_i a_i J_i of
    :func:`spin_matrices`, which is exponentiated by its Hermitian
    eigendecomposition."""
    s = spin_matrices(1)
    a = 2.0 * np.einsum("ij,nji->n", scipy.linalg.logm(g), s)
    vals, vecs = np.linalg.eigh(1j * np.tensordot(a, spin_matrices(k), 1))
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


# ---------------------------------------------------------------------------
# the cover-distance lattice problem by a search over radii: the route
# ``unitary_metric.solve_lattice`` replaced by its closed form


def _feasible(problem: LatticeProblem, radius: float):
    """Offset bounds per coordinate for |theta_i| <= radius, or None."""
    b = problem.base_args
    lo = np.ceil((-radius - b) / TWO_PI - 1e-12).astype(np.int64)
    hi = np.floor((radius - b) / TWO_PI + 1e-12).astype(np.int64)
    if np.any(lo > hi):
        return None
    k = problem.offset_sum
    if not (lo.sum() <= k <= hi.sum()):
        return None
    return lo, hi


def bisect_lattice(problem: LatticeProblem):
    """(radius, theta) minimising max_i |theta_i| over the constrained lattice.

    The optimum radius equals |base_args_i + 2 pi n| for some coordinate,
    so it is found by scanning the sorted finite candidate set; for each
    radius feasibility amounts to interval conditions on the integer
    offsets and their sum.
    """
    b = problem.base_args
    k = problem.offset_sum
    n_max = abs(k) + b.size + 2
    offsets = TWO_PI * np.arange(-n_max, n_max + 1)
    candidates = np.unique(np.abs(b[:, None] + offsets[None, :]))

    lo_idx, hi_idx = 0, candidates.size - 1
    if _feasible(problem, candidates[hi_idx]) is None:
        raise LatticeInvariantError("lattice problem is infeasible")
    # feasibility is monotone in the radius: bisect for the smallest one
    while lo_idx < hi_idx:
        mid = (lo_idx + hi_idx) // 2
        if _feasible(problem, candidates[mid]) is None:
            lo_idx = mid + 1
        else:
            hi_idx = mid
    radius = float(candidates[lo_idx])
    lo, hi = _feasible(problem, radius)

    offsets = lo.copy()
    deficit = k - lo.sum()
    for i in range(b.size):
        if deficit == 0:
            break
        step = min(deficit, hi[i] - lo[i])
        offsets[i] += step
        deficit -= step
    theta = b + TWO_PI * offsets
    return radius, theta
