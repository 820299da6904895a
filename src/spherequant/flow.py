"""Hamiltonian flows on the sphere with tangent-map propagation.

The Hamiltonian vector field of H for omega = (1/2) dA is X = 2 x on grad H
(cross product), which is tangent to every sphere around the origin, so
trajectories stay on the unit sphere up to integrator error and are
renormalized each step.  RK4 holds the points as three coordinate rows, on
which grad H is read term by term.  Jacobians, of every point or of none,
are propagated through the variational equation in ambient coordinates,
with the same steps, and reduced to 2x2 matrices in symplectic chart frames
when complex structures are involved.  The flow of a static axial
polynomial, a function of x3 alone or an affine function, is a
rotation about a fixed axis by an angle constant on each trajectory;
:func:`axial_flow` gives its points in closed form, and RK4 serves every
other path.

Chart conventions: the north chart is z = (x1 + i x2)/(1 + x3), the south
chart w = (x1 - i x2)/(1 - x3) = 1/z; both are holomorphic, and the frames
below are scaled coordinate frames in which omega is the standard
symplectic form of the plane, so the round complex structure is the
standard 2x2 rotation matrix in either frame.
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonians import _is_count, _is_finite_real

# flow does not call geodesic_matrices; perfbench/selftest.py asserts that
# tracing rebinds this imported copy
from .siegel import J_STANDARD, geodesic_matrices  # noqa: F401

NORTH, SOUTH = 0, 1


# ---------------------------------------------------------------------------
# charts and frames


def chart_of(points):
    """Hemisphere chart assignment: north chart for x3 >= 0."""
    points = np.asarray(points, dtype=float)
    return np.where(points[..., 2] >= 0.0, NORTH, SOUTH)


def _reflection(chart, shape):
    """diag(1, f, f) per point, f = -1 in the south chart, which is the north
    chart of the reflected point; its frames are the north ones reflected back."""
    north = np.broadcast_to(chart, shape)[..., None] == NORTH
    return np.where(north, 1.0, [1.0, -1.0, -1.0])


def chart_coords(points, chart):
    points = np.asarray(points, dtype=float)
    p = points * _reflection(chart, points.shape[:-1])
    return (p[..., 0] + 1j * p[..., 1]) / (1.0 + p[..., 2])


def frames(points, chart):
    """Symplectic frame (n, 3, 2): columns span the tangent plane and
    omega(e1, e2) = 1; both columns have squared length 2."""
    z = chart_coords(points, chart)
    u, v = z.real, z.imag
    d = 1.0 + u**2 + v**2
    c = np.sqrt(2.0) / d
    e1 = np.stack([c * (1.0 + v**2 - u**2), -2.0 * c * u * v, -2.0 * c * u], axis=-1)
    e2 = np.stack([-2.0 * c * u * v, c * (1.0 + u**2 - v**2), -2.0 * c * v], axis=-1)
    return np.stack([e1, e2], axis=-1) * _reflection(chart, z.shape)[..., None]


def frame_jacobian(m3, x_points, y_points, x_chart=None):
    """Reduce an ambient tangent map T_x -> T_y to chart frames, the
    hemisphere chart at y.

    The frame columns are orthogonal with squared length 2, so the frame
    pseudo-inverse is half the transpose.
    """
    if x_chart is None:
        x_chart = chart_of(x_points)
    fx = frames(x_points, x_chart)
    fy = frames(y_points, chart_of(y_points))
    return 0.5 * np.einsum("...ai,...ab,...bj->...ij", fy, m3, fx)


# ---------------------------------------------------------------------------
# vector field and integrator


def _cross(a, b):
    """a x b on coordinate rows, a[i] and b[i] the i-th components (rows or
    floats): the bits of np.cross, stacked as rows."""
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _cross_matrix(v, n):
    """[v]_x at n points for coordinate rows v (rows of length n or floats)."""
    m = np.zeros((n, 3, 3))
    m[:, 0, 1] = -v[2]
    m[:, 0, 2] = v[1]
    m[:, 1, 0] = v[2]
    m[:, 1, 2] = -v[0]
    m[:, 2, 0] = -v[1]
    m[:, 2, 1] = v[0]
    return m


def advance_state(h, y, m, t0, t1, steps=1):
    """Classical RK4 on the trajectory and variational equations.

    Continues an integration of the points ``y`` (n, 3) and of their
    ambient Jacobians ``m`` (n, 3, 3) from t0 to t1 (either direction) in
    ``steps`` equal steps; ``m=None`` skips the variational equation, on
    which the points do not depend, and an ``m`` of another shape raises
    ``ValueError``.  The points are held as three contiguous coordinate
    rows, on which grad H is read term by term and the field 2 y x grad H
    formed; they are renormalized to the unit sphere after every step.
    Returns (y, m), y an (n, 3) view of the rows.  The package's one RK4
    loop.
    """
    _check_steps(steps)
    _check_time(t0, "t0")
    _check_time(t1, "t1")
    rows = np.ascontiguousarray(np.asarray(y, dtype=float).T)
    if m is not None and np.shape(m) != (rows.shape[1], 3, 3):
        raise ValueError(f"m must be one 3 x 3 Jacobian per point, got shape {np.shape(m)}")
    dt = (t1 - t0) / steps
    for i in range(steps):
        rows, m = _rk4_step(h, rows, m, t0 + i * dt, dt)
        rows = rows / np.linalg.norm(rows, axis=0)
    return rows.T, m


def _rk4_step(h, y, m, t, dt):
    """One RK4 step of the coordinate rows y (3, n) and, unless m is None, of
    their Jacobians; each stage reads grad H once for the field 2 y x grad H
    and for its Jacobian 2([y]_x Hess H - [grad H]_x)."""
    ks, js = [], []
    for c in (0.0, dt / 2, dt / 2, dt):
        yy = y + c * ks[-1] if ks else y
        d = h._derivatives(yy, t + c, 1)
        grad = [d.get((axis,), 0.0) for axis in range(3)]
        ks.append(2.0 * _cross(yy, grad))
        if m is not None:
            n = len(m)
            jac = 2.0 * (_cross_matrix(yy, n) @ h._tensor(yy, t + c, 2) - _cross_matrix(grad, n))
            js.append(jac @ (m + c * js[-1] if js else m))
    m_new = None if m is None else m + dt / 6 * (js[0] + 2 * js[1] + 2 * js[2] + js[3])
    return y + dt / 6 * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3]), m_new


def sweep(h, points, times, steps_per_unit_time, jacobians=True):
    """Flow states (y, M) of h out of ``points`` at each time of the
    monotone list ``times``; M holds the Jacobians of every point when
    ``jacobians`` is True, and is None when it is False.

    One :func:`advance_state` integration from the identity at t = 0
    serves every sample: each continues from the previous one with
    ceil(steps_per_unit_time * |gap|) RK4 steps, which keeps every step at
    most 1/steps_per_unit_time.  Times may be negative.  The points do not
    read the Jacobians, so both settings give them bit for bit.  The rate,
    the times and ``jacobians`` (a bool) are checked on the call
    (``ValueError``); the states come from the returned iterator, which
    integrates lazily.
    """
    _check_rate(steps_per_unit_time)
    times = list(times)
    for t in times:
        _check_time(t, "each of times")
    if not isinstance(jacobians, bool):
        raise ValueError(f"jacobians must be True or False, got {jacobians!r}")
    y = np.asarray(points, dtype=float)
    m = np.broadcast_to(np.eye(3), (len(y), 3, 3)) if jacobians else None
    return _sweep_states(h, y, m, times, steps_per_unit_time)


def _sweep_states(h, y, m, times, steps_per_unit_time):
    """The states of :func:`sweep`, integrated one gap at a time."""
    t_prev = 0.0
    for t in times:
        if t != t_prev:
            # the tolerance keeps a gap that is a whole number of steps
            # up to rounding from taking one extra step
            steps = max(1, math.ceil(steps_per_unit_time * abs(t - t_prev) - 1e-9))
            y, m = advance_state(h, y, m, t_prev, t, steps)
            t_prev = t
        yield y, m


def axial_flow(h, points, times):
    """Points of the flow of h out of ``points`` at each of ``times`` in closed
    form, as :func:`sweep` approximates them, when h is a static axial
    polynomial; None for any other path.

    The form is read from the powers alone: every term a power of x3 (axis
    n = e3), or every term of degree at most 1, h = c + a.x (n = a / |a|; a
    constant is the identity).  Then grad H is (n . grad H) n, so the field
    2 x cross grad H is -2 (n . grad H) n cross x, and n . grad H is constant
    along each trajectory: phi_t rotates x about n by
    theta(x) = -2 t n . grad H(x), y = R_n(theta) x by Rodrigues' formula.
    Returns a list of point arrays and forms no Jacobian: the map is a
    Hamiltonian flow, so it preserves area exactly.
    """
    powers = [term.powers for term in h.terms]
    if not h.autonomous or not (
        all(p[:2] == (0, 0) for p in powers) or all(sum(p) <= 1 for p in powers)
    ):
        return None
    x = np.asarray(points, dtype=float)
    a = h.grad(np.zeros(3))
    n = np.array([0.0, 0.0, 1.0]) if a[0] == a[1] == 0.0 else a / np.linalg.norm(a)
    rate = -2.0 * (h.grad(x) @ n)
    curl = _cross(n, x.T).T
    along = (x @ n)[..., None] * n
    states = []
    for t in times:
        cos, sin = np.cos(t * rate)[..., None], np.sin(t * rate)[..., None]
        states.append(cos * x + sin * curl + (1.0 - cos) * along)
    return states


def transport_backward(h, points, t, steps):
    """flow_t^{-1}(points), the points transported back from t to 0 in
    ``steps`` RK4 steps, without the variational equation."""
    _check_time(t, "t")
    _check_steps(steps)
    return advance_state(h, points, None, t, 0.0, steps)[0]


def _check_steps(steps):
    """Raise unless a step count (RK4 or Magnus) is a positive integer, not a bool."""
    if not _is_count(steps):
        raise ValueError(f"steps must be a positive integer, got {steps!r}")


def _check_time(t, name):
    if not _is_finite_real(t):
        raise ValueError(f"{name} must be a finite real number, got {t!r}")


def _check_rate(steps_per_unit_time):
    if not (_is_finite_real(steps_per_unit_time) and steps_per_unit_time > 0):
        raise ValueError(
            f"steps_per_unit_time must be positive and finite, got {steps_per_unit_time!r}"
        )


def per_time_steps(steps_per_unit_time, t):
    """RK4 steps of a stand-alone transport over [0, t], a finite real: at least 8."""
    _check_rate(steps_per_unit_time)
    _check_time(t, "t")
    return max(8, int(round(steps_per_unit_time * abs(t))))
