import numpy as np

from spherequant import flow, hamiltonians as ham, quantize, siegel, sphere

import oracles


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _flow_at(h, pts, t, steps):
    """Flow state (y, M) of h at time t after ``steps`` RK4 steps."""
    ((y, m),) = flow.sweep(h, pts, [t], steps / t)
    return y, m


def test_vector_field_direction_at_equator():
    # H = x3: the field at (1,0,0) points along -y with speed 2
    h = ham.height()
    x = np.array([[1.0, 0.0, 0.0]])
    v = oracles.hamiltonian_vector_field(h, x, 0.0)
    assert np.max(np.abs(v - np.array([[0.0, -2.0, 0.0]]))) < 1e-14


def test_cross_gives_the_bits_of_numpy_cross():
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(2, 50, 3))
    assert np.array_equal(flow._cross(a.T, b.T).T, np.cross(a, b))
    # the 3200 nodes of the sweep grid of levels 8 to 64, with gradients
    nodes = quantize.default_grid(64).nodes
    grad = ham.time_mixed().grad(nodes, 0.3)
    assert nodes.shape == (3200, 3)
    assert np.array_equal(flow._cross(nodes.T, grad.T).T, np.cross(nodes, grad))


def test_height_flow_is_clockwise_rotation():
    h = ham.height()
    rng = np.random.default_rng(20)
    pts = rng.normal(size=(40, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    t = 0.6
    y, _ = _flow_at(h, pts, t, steps=300)
    expected = pts @ rotation_z(-2 * t).T
    assert np.max(np.abs(y - expected)) < 1e-10


def test_flow_jacobian_matches_finite_differences():
    h = ham.height_squared()
    pts = np.array([[0.6, 0.0, 0.8], [0.0, -0.8, -0.6], [0.5, 0.5, np.sqrt(0.5)]])
    t = 0.5
    _, m = _flow_at(h, pts, t, steps=400)
    eps = 1e-6
    for axis in range(3):
        bump = np.zeros(3)
        bump[axis] = eps
        plus = (pts + bump) / np.linalg.norm(pts + bump, axis=1, keepdims=True)
        minus = (pts - bump) / np.linalg.norm(pts - bump, axis=1, keepdims=True)
        fp, _ = _flow_at(h, plus, t, steps=400)
        fmn, _ = _flow_at(h, minus, t, steps=400)
        fd = (fp - fmn) / (2 * eps)
        # the ambient Jacobian acts on tangent vectors; the normalized bump
        # direction differs from e_axis by a radial component
        radial = pts[:, axis:axis + 1] * pts
        tangent_bump = np.eye(3)[axis] - radial
        applied = (m @ tangent_bump[..., None])[..., 0]
        assert np.max(np.abs(fd - applied)) < 2e-4


def test_frame_jacobian_symplectic():
    h = ham.height_squared()
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(30, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    y, m = _flow_at(h, pts, 1.0, steps=300)
    det = np.linalg.det(flow.frame_jacobian(m, pts, y))
    assert np.max(np.abs(det - 1.0)) < 1e-8


def test_transport_backward_inverts_flow():
    h = ham.height_squared()
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(25, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    t = 0.8
    forward, forward_m = _flow_at(h, pts, t, steps=400)
    y = flow.transport_backward(h, forward, t, steps=400)
    assert np.max(np.abs(y - pts)) < 1e-10
    # backward Jacobian inverts the forward one on tangent vectors
    eye = np.broadcast_to(np.eye(3), (25, 3, 3))
    y_with_m, m = flow.advance_state(h, forward, eye, t, 0.0, steps=400)
    assert np.array_equal(y_with_m, y)
    prod = m @ forward_m
    tangent = np.cross(pts, np.cross(pts, rng.normal(size=(25, 3))))
    applied = (prod @ tangent[..., None])[..., 0]
    assert np.max(np.abs(applied - tangent)) < 1e-7


def _random_points(seed, n):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_backward_sweep_matches_closed_form_flow():
    # the flow of s x3^2 rotates x1 + i x2 by exp(-4 i s x3 t), so the
    # inverse flow rotates it by exp(4 i s x3 t) and leaves x3 fixed
    s = 0.5
    pts = _random_points(25, 50)
    x1, x2, x3 = pts.T
    times = (0.0, 0.1, 0.35, 0.6, 1.0)
    states = flow.sweep(ham.height_squared(s), pts, [-t for t in times], 256)
    for t, (y, m) in zip(times, states):
        theta = 4.0 * s * x3 * t
        c, sn = np.cos(theta), np.sin(theta)
        expected = np.stack([c * x1 - sn * x2, sn * x1 + c * x2, x3], axis=-1)
        jac = np.zeros((len(pts), 3, 3))
        jac[:, 0, 0] = jac[:, 1, 1] = c
        jac[:, 0, 1] = -sn
        jac[:, 1, 0] = sn
        jac[:, 2, 2] = 1.0
        jac[:, 0, 2] = 4.0 * s * t * (-sn * x1 - c * x2)
        jac[:, 1, 2] = 4.0 * s * t * (c * x1 - sn * x2)
        assert np.max(np.abs(y - expected)) < 1e-10
        assert np.max(np.abs(m - jac)) < 1e-10


def test_backward_sweep_matches_per_time_transport():
    # at whole multiples of the step the shared sweep takes the same steps
    # as a stand-alone backward integration
    pts = _random_points(26, 30)
    h = ham.height_squared()
    multiples = (8, 13, 40, 64)
    eye = np.broadcast_to(np.eye(3), (30, 3, 3))
    states = flow.sweep(h, pts, [-i / 64 for i in multiples], 64)
    for i, (y, m) in zip(multiples, states):
        y_ref, m_ref = flow.advance_state(h, pts, eye, i / 64, 0.0, steps=i)
        assert np.max(np.abs(y - y_ref)) < 1e-13
        assert np.max(np.abs(m - m_ref)) < 1e-13


def test_points_only_sweep_gives_the_same_points():
    # the point update never reads the Jacobian, so dropping the
    # variational equation leaves the points bit for bit, for an
    # autonomous and a time-dependent path, forward and backward
    pts = _random_points(27, 40)
    for h, times in (
        (ham.height_squared(2.0), [-0.1, -0.35, -1.0]),
        (ham.time_mixed(), [0.2, 0.5, 0.91]),
    ):
        full = flow.sweep(h, pts, times, 32, jacobians=True)
        points_only = flow.sweep(h, pts, times, 32, jacobians=False)
        for (y, m), (y_only, m_only) in zip(full, points_only):
            assert m.shape == (40, 3, 3) and m_only is None
            assert np.array_equal(y, y_only)
    h = ham.time_mixed()
    eye = np.broadcast_to(np.eye(3), (40, 3, 3))
    y, m = flow.advance_state(h, pts, eye, 0.7, 0.0, 16)
    assert m.shape == (40, 3, 3)
    assert np.array_equal(y, flow.transport_backward(h, pts, 0.7, 16))


# a time-dependent path, a static one that is not axial, and a degree-3
# monomial whose Hessian has diagonal and off-diagonal entries
BIT_PATHS = {
    "time-mixed": ham.time_mixed(),
    "2 x1 + 2 x3^2": ham.Polynomial([ham.Monomial((1, 0, 0), 2.0), ham.Monomial((0, 0, 2), 2.0)]),
    "-1.3 x1^2 x3": ham.Polynomial([ham.Monomial((2, 0, 1), -1.3)]),
}


def test_rk4_on_coordinate_rows_keeps_the_bits_of_the_point_loop():
    # flow.advance_state holds the points as coordinate rows and reads grad H
    # term by term; the (n, 3) loop through the public grad and hess must
    # give the same bits, with Jacobians on every point and on none, forward
    # and backward, and the points-only per-time transport those of the loop
    pts = _random_points(29, 30)
    eye = np.broadcast_to(np.eye(3), (30, 3, 3))
    for name, h in BIT_PATHS.items():
        for times in ([0.25, 0.5], [-0.25, -0.5]):
            # 32 steps per unit time take 8 steps to each time
            y_ref, m_ref, states = pts, eye, []
            for t0, t1 in zip([0.0] + times, times):
                y_ref, m_ref = oracles.advance_state(h, y_ref, m_ref, t0, t1, 8)
                states.append((y_ref, m_ref))
            for jacobians in (True, False):
                sweep = flow.sweep(h, pts, times, 32, jacobians)
                for (y_ref, m_ref), (y, m) in zip(states, sweep):
                    assert np.array_equal(y, y_ref), (name, times, jacobians)
                    if jacobians:
                        assert np.array_equal(m, m_ref), (name, times)
                    else:
                        assert m is None
        y_ref, _ = oracles.advance_state(h, pts, None, 0.6, 0.0, 7)
        assert np.array_equal(flow.transport_backward(h, pts, 0.6, 7), y_ref), name


AXIAL_PATHS = {
    "x3^2": ham.height_squared(),
    "x3^3 - x3": ham.Polynomial([ham.Monomial((0, 0, 3)), ham.Monomial((0, 0, 1), -1.0)]),
    "x1": ham.coordinate(0),
    "x2": ham.coordinate(1),
    "tilted height": ham.tilted_height(0.5),
    "tilted axis": ham.Polynomial(
        [ham.Monomial((1, 0, 0), 0.3), ham.Monomial((0, 1, 0), -0.7), ham.Monomial((0, 0, 1), 0.5)]
    ),
    "constant": ham.constant(1.0),
}


def test_axial_flow_matches_the_rk4_sweep():
    # RK4 at 1024 steps per unit time is within 1e-9 of the exact flow on
    # these paths; every 17th node of the 40 x 80 sweep grid visits all 40
    # rings at shifting azimuths, at a twentieth of the grid's RK4 cost
    nodes = quantize.default_grid(64).nodes[::17]
    for name, h in AXIAL_PATHS.items():
        for t in (-0.97, 0.97):
            (y,) = flow.axial_flow(h, nodes, [t])
            ((y_rk4, _),) = flow.sweep(h, nodes, [t], 1024, jacobians=False)
            assert np.max(np.abs(y - y_rk4)) < 1e-9, name


def test_axial_flow_is_none_for_paths_that_are_not_static_and_axial():
    # read from the powers and the time functions, never from values
    nodes = _random_points(28, 10)
    for name, h in {
        "time-mixed": ham.time_mixed(),
        "x1 + x3^2": ham.Polynomial([ham.Monomial((1, 0, 0)), ham.Monomial((0, 0, 2))]),
        "x1 x3": ham.Polynomial([ham.Monomial((1, 0, 1))]),
        "reparametrized height": ham.Reparametrized(ham.height(), ham.identity_t, lambda t: 1.0),
    }.items():
        assert flow.axial_flow(h, nodes, [0.5]) is None, name


def test_frames_are_symplectic_in_both_charts():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for chart in (flow.NORTH, flow.SOUTH):
        fr = flow.frames(pts, np.full(len(pts), chart))
        e1, e2 = fr[..., 0], fr[..., 1]
        # omega(e1, e2) = (1/2) x . (e1 x e2) = 1
        omega = 0.5 * np.sum(pts * np.cross(e1, e2), axis=1)
        assert np.max(np.abs(omega - 1.0)) < 1e-12
        # frame vectors are tangent
        assert np.max(np.abs(np.sum(pts * e1, axis=1))) < 1e-12
        assert np.max(np.abs(np.sum(pts * e2, axis=1))) < 1e-12
    # the south chart is w = 1/z away from the poles
    away = pts[np.abs(pts[:, 2]) < 0.9]
    w_z = flow.chart_coords(away, flow.SOUTH) * flow.chart_coords(away, flow.NORTH)
    assert np.max(np.abs(w_z - 1.0)) < 1e-12


def test_chart_points_round_trip():
    rng = np.random.default_rng(24)
    pts = rng.normal(size=(40, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    chart = flow.chart_of(pts)
    z = flow.chart_coords(pts, chart)
    back = oracles.chart_points(z, chart)
    assert np.max(np.abs(back - pts)) < 1e-12


def test_round_structure_preserved_by_rotation():
    h = ham.coordinate(0)  # rotation about the x1 axis
    ps = oracles.PushforwardStructure(oracles.RoundStructure(), h, 0.9)
    g = sphere.build_grid(8, 16)
    mats = ps.evaluate(g.nodes)
    assert np.max(np.abs(mats - siegel.J_STANDARD)) < 1e-9


def test_pushforward_structure_stays_compatible():
    h = ham.height_squared()
    ps = oracles.PushforwardStructure(oracles.RoundStructure(), h, 0.7)
    g = sphere.build_grid(8, 16)
    mats = ps.evaluate(g.nodes)
    assert np.max(oracles.structure_defect(mats)) < 1e-8
    assert np.max(np.abs(mats - siegel.J_STANDARD)) > 1e-2  # genuinely moved


def test_pushforward_chart_override_conjugation():
    # the two chart representations of the same structure are conjugate by
    # the chart-change tangent map, so their traces and dets agree
    h = ham.height_squared()
    ps = oracles.PushforwardStructure(oracles.RoundStructure(), h, 0.6)
    pts = np.array([[0.8, 0.0, 0.6], [0.0, 0.6, 0.8]])
    north = ps.evaluate(pts, np.full(2, flow.NORTH))
    south = ps.evaluate(pts, np.full(2, flow.SOUTH))
    assert np.max(np.abs(np.trace(north, axis1=-2, axis2=-1))) < 1e-8
    assert np.max(np.abs(np.linalg.det(south) - np.linalg.det(north))) < 1e-8
