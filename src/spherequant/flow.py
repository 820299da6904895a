"""Hamiltonian flows on the sphere with tangent-map propagation.

The Hamiltonian vector field of H for omega = (1/2) dA is X = 2 x on grad H
(cross product), which is tangent to every sphere around the origin, so
trajectories stay on the unit sphere up to integrator error and are
renormalized each step.  Jacobians are propagated through the variational
equation in ambient coordinates and reduced to 2x2 matrices in symplectic
chart frames when complex structures are involved.

Chart conventions: the north chart is z = (x1 + i x2)/(1 + x3), the south
chart w = (x1 - i x2)/(1 - x3) = 1/z; both are holomorphic, and the frames
below are scaled coordinate frames in which omega is the standard
symplectic form of the plane, so the round complex structure is the
standard 2x2 rotation matrix in either frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import is_autonomous
# flow does not call geodesic_matrices; perfbench/selftest.py asserts that
# tracing rebinds this imported copy
from .siegel import J_STANDARD, geodesic_matrices  # noqa: F401

NORTH, SOUTH = 0, 1


class FlowAccuracyError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# charts and frames


def chart_of(points):
    """Hemisphere chart assignment: north chart for x3 >= 0."""
    points = np.asarray(points, dtype=float)
    return np.where(points[..., 2] >= 0.0, NORTH, SOUTH)


def chart_coords(points, chart):
    points = np.asarray(points, dtype=float)
    chart = np.broadcast_to(chart, points.shape[:-1])
    num = np.where(
        chart == NORTH,
        points[..., 0] + 1j * points[..., 1],
        points[..., 0] - 1j * points[..., 1],
    )
    den = np.where(chart == NORTH, 1.0 + points[..., 2], 1.0 - points[..., 2])
    return num / den


def chart_points(z, chart):
    """Embedded point of a chart coordinate."""
    z = np.asarray(z, dtype=complex)
    chart = np.broadcast_to(chart, z.shape)
    d = 1.0 + np.abs(z) ** 2
    x1 = 2.0 * z.real / d
    x2 = np.where(chart == NORTH, 2.0 * z.imag / d, -2.0 * z.imag / d)
    x3 = np.where(chart == NORTH, (2.0 - d) / d, (d - 2.0) / d)
    return np.stack([x1, x2, x3], axis=-1)


def frames(points, chart):
    """Symplectic frame (n, 3, 2): columns span the tangent plane and
    omega(e1, e2) = 1; both columns have squared length 2."""
    z = chart_coords(points, chart)
    u, v = z.real, z.imag
    d = 1.0 + u**2 + v**2
    c = np.sqrt(2.0) / d
    chart = np.broadcast_to(chart, z.shape)
    north = chart == NORTH
    e1 = np.stack(
        [
            c * (1.0 + v**2 - u**2),
            np.where(north, -2.0 * c * u * v, 2.0 * c * u * v),
            np.where(north, -2.0 * c * u, 2.0 * c * u),
        ],
        axis=-1,
    )
    e2 = np.stack(
        [
            -2.0 * c * u * v,
            np.where(north, c * (1.0 + u**2 - v**2), -c * (1.0 + u**2 - v**2)),
            np.where(north, -2.0 * c * v, 2.0 * c * v),
        ],
        axis=-1,
    )
    return np.stack([e1, e2], axis=-1)


def frame_jacobian(m3, x_points, y_points, x_chart=None, y_chart=None):
    """Reduce an ambient tangent map T_x -> T_y to chart frames.

    The frame columns are orthogonal with squared length 2, so the frame
    pseudo-inverse is half the transpose.
    """
    if x_chart is None:
        x_chart = chart_of(x_points)
    if y_chart is None:
        y_chart = chart_of(y_points)
    fx = frames(x_points, x_chart)
    fy = frames(y_points, y_chart)
    return 0.5 * np.einsum("...ai,...ab,...bj->...ij", fy, m3, fx)


def chart_one_form(vectors, points):
    """dz(X) in the north chart for ambient tangent vectors X."""
    points = np.asarray(points, dtype=float)
    z = chart_coords(points, np.full(points.shape[:-1], NORTH))
    vectors = np.asarray(vectors, dtype=float)
    return (vectors[..., 0] + 1j * vectors[..., 1] - z * vectors[..., 2]) / (
        1.0 + points[..., 2]
    )


# ---------------------------------------------------------------------------
# vector field and integrator


def hamiltonian_vector_field(h, points, t):
    """X = 2 x cross grad H; sign fixed by omega(X, .) + dH = 0."""
    points = np.asarray(points, dtype=float)
    return 2.0 * np.cross(points, h.grad(points, t))


def _field_jacobian(h, points, t):
    """Ambient Jacobian of the vector field: 2(-[grad H]_x + [p]_x Hess H)."""
    points = np.asarray(points, dtype=float)
    g = h.grad(points, t)
    hess = h.hess(points, t)
    out = _cross_matrix(points) @ hess
    out -= _cross_matrix(g)
    return 2.0 * out


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
    unit sphere after every step.  This is the package's one RK4 loop.
    """
    dt = (t1 - t0) / steps
    for i in range(steps):
        y, m = _rk4_step(h, y, m, t0 + i * dt, dt)
        y = y / np.linalg.norm(y, axis=-1, keepdims=True)
    return y, m


def _rk4_step(h, y, m, t, dt):
    def rhs(tt, yy, mm):
        return hamiltonian_vector_field(h, yy, tt), _field_jacobian(h, yy, tt) @ mm

    k1, K1 = rhs(t, y, m)
    k2, K2 = rhs(t + dt / 2, y + dt / 2 * k1, m + dt / 2 * K1)
    k3, K3 = rhs(t + dt / 2, y + dt / 2 * k2, m + dt / 2 * K2)
    k4, K4 = rhs(t + dt, y + dt * k3, m + dt * K3)
    y_new = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    m_new = m + dt / 6 * (K1 + 2 * K2 + 2 * K3 + K4)
    return y_new, m_new


@dataclass(frozen=True)
class FlowMap:
    """Time-t flow map sampled at a fixed point set."""

    forward: np.ndarray  # (n, 3)
    jacobian: np.ndarray  # (n, 2, 2) frame-to-frame tangent map
    jacobian3: np.ndarray  # (n, 3, 3) ambient tangent map


def integrate_flow(h, points, steps, t_final=1.0):
    """Forward flow map of the Hamiltonian h at time t_final.

    Raises :class:`FlowAccuracyError` when the frame Jacobian determinant
    drifts beyond 1e-6 from 1 (symplecticity check).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    points = np.asarray(points, dtype=float)
    eye = np.broadcast_to(np.eye(3), points.shape[:-1] + (3, 3))
    y, m = advance_state(h, points, eye, 0.0, t_final, steps)
    jac = frame_jacobian(m, points, y)
    if np.max(np.abs(np.linalg.det(jac) - 1.0)) > 1e-6:
        raise FlowAccuracyError(
            "flow Jacobian determinant drifted beyond 1e-6; "
            "increase the step count"
        )
    return FlowMap(forward=y, jacobian=jac, jacobian3=m)


def transport_backward(h, points, t, steps):
    """Backward transport (y, M) with y = flow_t^{-1}(points) and M the
    ambient Jacobian of the inverse flow at the given points."""
    points = np.asarray(points, dtype=float)
    eye = np.broadcast_to(np.eye(3), points.shape[:-1] + (3, 3))
    if t == 0.0:
        return points.copy(), eye.copy()
    return advance_state(h, points, eye, t, 0.0, steps)


def per_time_steps(steps_per_unit_time, t):
    """RK4 steps of a stand-alone transport over [0, t]: at least 8."""
    return max(8, int(round(steps_per_unit_time * abs(t))))


class BackwardSweep:
    """Inverse flow maps of h at one point set for increasing times.

    ``transport(points, t)`` returns (flow_t^{-1}(points), M) like
    :func:`transport_backward`.  For an autonomous h the inverse flow is
    the flow at time -t, so one backward integration serves every sample:
    each call continues from the previous sample with
    ceil(steps_per_unit_time * gap) RK4 steps, which keeps every step at
    most 1/steps_per_unit_time.  A new point set or an earlier time
    restarts from the identity at t = 0.  A time-dependent h is
    transported afresh at every t, with :func:`per_time_steps` steps.
    """

    def __init__(self, h, steps_per_unit_time):
        self.h = h
        self.steps_per_unit_time = steps_per_unit_time
        self.autonomous = is_autonomous(h)
        self._points = None
        self._state = None  # (t, y, m) of the last sample

    def transport(self, points, t):
        points = np.asarray(points, dtype=float)
        t = float(t)
        if not self.autonomous:
            return transport_backward(
                self.h, points, t, per_time_steps(self.steps_per_unit_time, t)
            )
        if (
            self._state is None
            or t < self._state[0]
            or not np.array_equal(self._points, points)
        ):
            eye = np.broadcast_to(np.eye(3), points.shape[:-1] + (3, 3))
            self._points = points.copy()
            self._state = (0.0, self._points, eye)
        t0, y, m = self._state
        if t > t0:
            # the tolerance keeps a gap that is a whole number of steps
            # up to rounding from taking one extra step
            steps = max(1, math.ceil(self.steps_per_unit_time * (t - t0) - 1e-9))
            y, m = advance_state(self.h, y, m, -t0, -t, steps)
            self._state = (t, y, m)
        return y.copy(), m.copy()


def chart_symbol(h, points, t):
    """North-chart data (values, dz(X_H)) of a closed-form Hamiltonian."""
    values = h.value(points, t)
    a = chart_one_form(hamiltonian_vector_field(h, points, t), points)
    return values, a


# ---------------------------------------------------------------------------
# complex-structure fields


class ComplexStructureField:
    """A compatible almost complex structure sampled through chart frames.

    ``evaluate(points, chart)`` returns the pointwise 2x2 matrices in the
    symplectic frame of the requested chart (per-point hemisphere charts
    when ``chart`` is None).
    """

    def evaluate(self, points, chart=None):
        raise NotImplementedError


class RoundStructure(ComplexStructureField):
    """The integrable round structure; standard matrix in either frame."""

    def evaluate(self, points, chart=None):
        points = np.asarray(points, dtype=float)
        return np.broadcast_to(J_STANDARD, points.shape[:-1] + (2, 2)).copy()


class PushforwardStructure(ComplexStructureField):
    """Pushforward of a structure field by the time-t Hamiltonian flow."""

    def __init__(self, inner, h, t, steps_per_unit_time=256):
        self.inner = inner
        self.h = h
        self.t = float(t)
        self.steps_per_unit_time = steps_per_unit_time

    def evaluate(self, points, chart=None):
        points = np.asarray(points, dtype=float)
        if chart is None:
            chart = chart_of(points)
        if self.t == 0.0:
            return self.inner.evaluate(points, chart)
        steps = per_time_steps(self.steps_per_unit_time, self.t)
        y, m3 = transport_backward(self.h, points, self.t, steps)
        return pushforward_matrices(self.inner, points, y, m3, chart)


def pushforward_matrices(inner, points, y, m3, chart):
    """Frame matrices at ``points`` of the pushforward of the field
    ``inner`` by a flow map phi, given y = phi^{-1}(points) and the ambient
    Jacobian m3 of phi^{-1} at the points (from :func:`transport_backward`
    or :class:`BackwardSweep`)."""
    b = frame_jacobian(m3, points, y, x_chart=chart)
    return np.linalg.solve(b, inner.evaluate(y) @ b)
