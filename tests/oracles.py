"""Known-answer routes that the pipeline no longer runs, kept as test oracles."""

import numpy as np
import scipy.linalg

from spherequant import flow, propagate, quantize, siegel, sphere
from spherequant.unitary_metric import (
    TWO_PI,
    DimensionMismatchError,
    LatticeInvariantError,
    LatticeProblem,
    principal_args,
    solve_lattice,
)


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
    return jacobian_det_drift(jac), float(np.max(np.abs(mats - flow.J_STANDARD)))


def jacobian_det_drift(jac):
    """max |det J - 1| over frame Jacobians J; 0 for an exactly symplectic
    map, so it measures how far an integrated flow has drifted."""
    return float(np.max(np.abs(np.linalg.det(jac) - 1.0)))


def sentinel_det_drift(h, stops, rate):
    """The det drift that ``propagate._flow_samples`` recorded before it read
    the area identity: :func:`jacobian_det_drift` of a 6 x 12 sentinel grid
    at the last of the signed ``stops``, flowed with its Jacobians as the
    samples' nodes are, by one sweep at ``rate`` along every stop when the
    stops run forward or h is autonomous, else by one backward transport
    from the last stop's time."""
    nodes = sphere.build_grid(6, 12).nodes
    if stops[-1] > 0 or h.autonomous:
        *_, (y, m) = flow.sweep(h, nodes, stops, rate)
    else:
        t = -stops[-1]
        eye = np.broadcast_to(np.eye(3), (len(nodes), 3, 3))
        y, m = flow.advance_state(h, nodes, eye, t, 0.0, flow.per_time_steps(rate, t))
    return jacobian_det_drift(flow.frame_jacobian(m, nodes, y))


# ---------------------------------------------------------------------------
# RK4 on (n, 3) points through the public grad and hess: the loop
# ``flow.advance_state`` ran before it held the points as coordinate rows,
# kept as the bit-for-bit oracle of the row loop


def _cross(a, b):
    """a x b over the last axis: the bits of np.cross at a lower cost."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _cross_matrix(v):
    m = np.zeros(v.shape[:-1] + (3, 3))
    m[..., 0, 1] = -v[..., 2]
    m[..., 0, 2] = v[..., 1]
    m[..., 1, 0] = v[..., 2]
    m[..., 1, 2] = -v[..., 0]
    m[..., 2, 0] = -v[..., 1]
    m[..., 2, 1] = v[..., 0]
    return m


def advance_state(h, y, m, t0, t1, steps=1):
    """Classical RK4 on the trajectory and variational equations.

    Continues an (points, Jacobian) integration from t0 to t1 (either
    direction) in ``steps`` equal steps; points are renormalized to the
    unit sphere after every step, and ``m=None`` skips the variational
    equation, on which the points do not depend.
    """
    dt = (t1 - t0) / steps
    for i in range(steps):
        y, m = _rk4_step(h, y, m, t0 + i * dt, dt)
        y = y / np.linalg.norm(y, axis=-1, keepdims=True)
    return y, m


def _rk4_step(h, y, m, t, dt):
    """One RK4 step of the points and, unless m is None, of the Jacobian;
    each stage reads grad H once for the field 2 p x grad H and for its
    Jacobian 2(-[grad H]_x + [p]_x Hess H)."""
    ks, js = [], []
    for c in (0.0, dt / 2, dt / 2, dt):
        yy = y + c * ks[-1] if ks else y
        grad = h.grad(yy, t + c)
        ks.append(2.0 * _cross(yy, grad))
        if m is not None:
            jac = 2.0 * (_cross_matrix(yy) @ h.hess(yy, t + c) - _cross_matrix(grad))
            js.append(jac @ (m + c * js[-1] if js else m))
    m_new = None if m is None else m + dt / 6 * (js[0] + 2 * js[1] + 2 * js[2] + js[3])
    return y + dt / 6 * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3]), m_new


# ---------------------------------------------------------------------------
# Kostant-Souriau assembly from north-chart data (values, dz(X)): the route
# ``propagate.pull_back``'s samples took before they became node values,
# the oracle of the Green's-identity assembly ``quantize.kostant_souriau``


def hamiltonian_vector_field(h, points, t):
    """X = 2 x cross grad H; sign fixed by omega(X, .) + dH = 0."""
    points = np.asarray(points, dtype=float)
    return 2.0 * _cross(points, h.grad(points, t))


def chart_one_form(vectors, points):
    """dz(X) in the north chart for ambient tangent vectors X."""
    points = np.asarray(points, dtype=float)
    z = flow.chart_coords(points, flow.NORTH)
    vectors = np.asarray(vectors, dtype=float)
    return (vectors[..., 0] + 1j * vectors[..., 1] - z * vectors[..., 2]) / (
        1.0 + points[..., 2]
    )


def kostant_souriau_from_chart(space, values, a):
    """Kostant-Souriau operator from north-chart data (f, dz(X_f)).

    K = f + (1/ik) covariant derivative along X_f, compressed back to the
    holomorphic space.  The derivative multiplies basis section n by
    n a / z - k conj(z) a / (1 + |z|^2), so column n of K is the
    compression of f - conj(z) a / ((1 + |z|^2) i) plus n times the
    compression of a / (i k z).
    """
    z = space.z
    k = space.k
    drift = values - np.conj(z) * a / ((1.0 + np.abs(z) ** 2) * 1j)
    return space.compress(drift) + space.compress(a / (1j * k * z)) * np.arange(k + 1)


def trace_sum_phase(k, samples, steps):
    """The det-phase of ``propagate.xi_path`` at level k and ``steps`` Magnus
    steps on the ``ChartSamples`` ``samples``, from the samples alone.

    The round sphere's Bergman density is constant, so tr K_k(g) =
    ((k + 1) / 2 pi) times the grid integral of g, and the commutator term
    of a Magnus step is traceless: the phase is -k (k + 1) / (2 pi) (dt / 2)
    times the sum over the 2 ``steps`` Gauss times of ``sphere.integrate_values``.
    A one-row sample is its symbol at every Gauss time.
    """
    rows = samples.values
    if len(rows) == 1:
        rows = np.repeat(rows, 2 * steps, axis=0)
    assert len(rows) == 2 * steps
    dt = 1.0 / steps
    total = sum(sphere.integrate_values(samples.grid, g) for g in rows)
    return -k * (k + 1) / (2.0 * np.pi) * (dt / 2.0) * total


# ---------------------------------------------------------------------------
# operator assembly as it ran before the per-level assembly plan: the full
# (2k + 1) x n_phi ring product of every stack and one FFT per assembly, the
# oracle of ``QuantumSpace.compress`` and ``quantize.kostant_souriau``


def ring_pairs(space):
    """Ring products regrouped by s = m + n.

    rings[i, m] rings[i, n] = kappa[m, n] * pairs[s, i] with pairs[s, i]
    = rings[i, s//2] rings[i, s - s//2] and the ring-independent kappa =
    sqrt(N_{s//2} N_{s-s//2} / (N_m N_n)), which is at most 1 because
    log N_m is convex in m.  Returns (pairs, kappa, index) with index the
    flat position of (s, (m - n) mod n_phi) in an (2k+1, n_phi) array.
    """
    k, n_phi = space.k, space.grid.n_phi
    s = np.arange(2 * k + 1)
    pairs = space.rings[:, s // 2].T * space.rings[:, s - s // 2].T
    log_n = quantize._log_norms(k)
    m = np.arange(k + 1)
    total = m[:, None] + m[None, :]
    kappa = np.exp(
        0.5 * (log_n[total // 2] + log_n[total - total // 2])
        - 0.5 * (log_n[:, None] + log_n[None, :])
    )
    index = total * n_phi + (m[:, None] - m[None, :]) % n_phi
    return pairs, kappa, index


def ring_modes(space, g):
    """Azimuthal modes of node values g: one FFT along phi per ring."""
    if not np.all(np.isfinite(g)):
        raise ValueError("node values must be finite")
    return np.fft.fft(np.reshape(g, (space.grid.n_theta, space.grid.n_phi)), axis=1)


def compress(space, g):
    """Matrix [sum_nodes w conj(s_m) g s_n]_{mn} of node values g.

    One FFT along phi per ring gives the azimuthal modes of g; entry
    (m, n) sums rings[i, m] rings[i, n] modes[i, (m - n) mod n_phi]
    over the rings, done as one product over s = m + n (see
    ``ring_pairs``).
    """
    pairs, kappa, index = ring_pairs(space)
    return kappa * np.take(pairs @ ring_modes(space, g), index)


def kostant_souriau(space, values):
    """Kostant-Souriau operator of the symbol g with the given node values,
    K_mn = (m+n+2 - 2mn/k) C[g] - (mn/k) C[g/u] - ((k-m)(k-n)/k) C[g u]
    with u = |z|^2 and C the compression, from three full ring products."""
    if np.iscomplexobj(values):
        raise ValueError("node values of a Kostant-Souriau symbol must be real")
    u = space.radii**2
    pairs, kappa, index = ring_pairs(space)
    # (re, im) interleaved, so the ring sums are real matrix products
    modes = ring_modes(space, values).view(float)
    stack = (pairs, pairs / u, pairs * u)
    c, c_u, cu = (kappa * np.take((p @ modes).view(complex), index) for p in stack)
    k, m = space.k, np.arange(space.dim)[:, None]
    mn, rest = m * m.T / k, (k - m) * (k - m.T) / k
    return (m + m.T + 2.0 - 2.0 * mn) * c - mn * c_u - rest * cu


# ---------------------------------------------------------------------------
# complex-structure fields: ``evaluate(points, chart)`` gives the 2x2 frame
# matrices in the given charts (per-point hemisphere charts for None).  The
# flow is read through the ``flow`` module, so a test that replaces
# ``flow.advance_state`` sees every call.


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
        eye = np.broadcast_to(np.eye(3), (len(points), 3, 3))
        y, m3 = flow.advance_state(self.h, points, eye, self.t, 0.0, steps)
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


def scalar_curvature(field, grid):
    """Scalar curvature of ``field`` at the nodes of ``grid``."""
    return scalar_curvature_at(field, grid.nodes)


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
# Magnus propagation read per step: the route every time-dependent path took
# before separable paths reached ``propagate._magnus`` as groups, and the
# oracle of its tridiagonal and dense group routes


def group_generator(groups):
    """t -> A(t) = sum_i c_i(t) A_i for ``propagate._groups``, summed from a
    zero matrix in the order of the groups."""

    def generator(t):
        a = np.zeros(groups[0][1].shape, dtype=complex)
        for fn, mat, *_ in groups:
            a += (1.0 if fn is None else fn(t)) * mat
        return a

    return generator


def dense_magnus(space, generator, steps, sign):
    """(u, phase) of the fourth-order Magnus integration of
    d/dt u = sign * i k A(t) u on [0, 1] with A(t) = generator(t) read at
    both Gauss times of every step: each step generator is
    ``propagate._magnus_effective`` of the two readings, exponentiated by
    the dense ``propagate._expi``, and the phase sums sign * k dt times its
    trace."""
    k = space.k
    dt = 1.0 / steps
    scale = sign * k * dt
    u = np.eye(space.dim, dtype=complex)
    phase = 0.0
    times = propagate._gauss_times(steps)
    for t1, t2 in zip(times[::2], times[1::2]):
        h_eff = propagate._magnus_effective(generator(t1), generator(t2), k, dt, sign)
        u = propagate._expi(h_eff, scale) @ u
        phase += scale * np.trace(h_eff).real
    return u, phase


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


# ---------------------------------------------------------------------------
# the cover distance read from a Schur form: the route
# ``unitary_metric.cover_distance`` took before it read the eigenvalues alone


def schur_cover_distance(a, b):
    """Cover distance from a to b by the diagonal of the complex Schur form of
    b.u a.u^H, a normal matrix, whose vectors the radius never reads."""
    if a.dim != b.dim:
        raise DimensionMismatchError("elements of different sizes")
    w = b.u.mat @ a.u.mat.conj().T
    t, _ = scipy.linalg.schur(w, output="complex")
    radius, _ = solve_lattice(LatticeProblem(principal_args(np.diag(t)), b.phase - a.phase))
    return radius
