import numpy as np

from spherequant import flow, hamiltonians as ham, siegel, sphere


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_vector_field_direction_at_equator():
    # H = x3: the field at (1,0,0) points along -y with speed 2
    h = ham.height()
    x = np.array([[1.0, 0.0, 0.0]])
    v = flow.hamiltonian_vector_field(h, x, 0.0)
    assert np.max(np.abs(v - np.array([[0.0, -2.0, 0.0]]))) < 1e-14


def test_height_flow_is_clockwise_rotation():
    h = ham.height()
    rng = np.random.default_rng(20)
    pts = rng.normal(size=(40, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    t = 0.6
    fm = flow.integrate_flow(h, pts, steps=300, t_final=t)
    expected = pts @ rotation_z(-2 * t).T
    assert np.max(np.abs(fm.forward - expected)) < 1e-10


def test_flow_jacobian_matches_finite_differences():
    h = ham.height_squared()
    pts = np.array([[0.6, 0.0, 0.8], [0.0, -0.8, -0.6], [0.5, 0.5, np.sqrt(0.5)]])
    t = 0.5
    fm = flow.integrate_flow(h, pts, steps=400, t_final=t)
    eps = 1e-6
    for axis in range(3):
        bump = np.zeros(3)
        bump[axis] = eps
        plus = (pts + bump) / np.linalg.norm(pts + bump, axis=1, keepdims=True)
        minus = (pts - bump) / np.linalg.norm(pts - bump, axis=1, keepdims=True)
        fp = flow.integrate_flow(h, plus, steps=400, t_final=t).forward
        fmn = flow.integrate_flow(h, minus, steps=400, t_final=t).forward
        fd = (fp - fmn) / (2 * eps)
        # the ambient Jacobian acts on tangent vectors; the normalized bump
        # direction differs from e_axis by a radial component
        radial = pts[:, axis:axis + 1] * pts
        tangent_bump = np.eye(3)[axis] - radial
        applied = (fm.jacobian3 @ tangent_bump[..., None])[..., 0]
        assert np.max(np.abs(fd - applied)) < 2e-4


def test_frame_jacobian_symplectic():
    h = ham.height_squared()
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(30, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    fm = flow.integrate_flow(h, pts, steps=300, t_final=1.0)
    det = np.linalg.det(fm.jacobian)
    assert np.max(np.abs(det - 1.0)) < 1e-8


def test_transport_backward_inverts_flow():
    h = ham.height_squared()
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(25, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    t = 0.8
    fm = flow.integrate_flow(h, pts, steps=400, t_final=t)
    y, m = flow.transport_backward(h, fm.forward, t, steps=400)
    assert np.max(np.abs(y - pts)) < 1e-10
    # backward Jacobian inverts the forward one on tangent vectors
    prod = m @ fm.jacobian3
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
    sweep = flow.BackwardSweep(ham.height_squared(s), 256)
    for t in (0.1, 0.35, 0.6, 1.0):
        y, m = sweep.transport(pts, t)
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
    pts = _random_points(26, 30)
    # autonomous: at whole multiples of the step the shared sweep takes the
    # same steps as a stand-alone transport
    h = ham.height_squared()
    sweep = flow.BackwardSweep(h, 64)
    for i in (8, 13, 40, 64):
        y, m = sweep.transport(pts, i / 64)
        y_ref, m_ref = flow.transport_backward(h, pts, i / 64, steps=i)
        assert np.max(np.abs(y - y_ref)) < 1e-13
        assert np.max(np.abs(m - m_ref)) < 1e-13
    # time-dependent: every sample is a stand-alone transport
    h = ham.time_mixed()
    sweep = flow.BackwardSweep(h, 64)
    for t in (0.05, 0.3, 0.7):
        y, m = sweep.transport(pts, t)
        steps = flow.per_time_steps(64, t)
        y_ref, m_ref = flow.transport_backward(h, pts, t, steps=steps)
        assert np.array_equal(y, y_ref) and np.array_equal(m, m_ref)


def test_backward_sweep_restarts():
    h = ham.height_squared()
    pts = _random_points(27, 20)
    other = _random_points(28, 20)
    sweep = flow.BackwardSweep(h, 32)
    sweep.transport(pts, 0.2)
    sweep.transport(pts, 0.8)
    # an earlier time restarts from t = 0
    y, m = sweep.transport(pts, 0.3)
    y_ref, m_ref = flow.BackwardSweep(h, 32).transport(pts, 0.3)
    assert np.array_equal(y, y_ref) and np.array_equal(m, m_ref)
    # so does a new point set, even at a later time
    y, m = sweep.transport(other, 0.5)
    y_ref, m_ref = flow.BackwardSweep(h, 32).transport(other, 0.5)
    assert np.array_equal(y, y_ref) and np.array_equal(m, m_ref)
    # repeating a time returns the same sample; t = 0 is the identity
    y2, m2 = sweep.transport(other, 0.5)
    assert np.array_equal(y, y2) and np.array_equal(m, m2)
    y0, m0 = sweep.transport(other, 0.0)
    assert np.array_equal(y0, other)
    assert np.array_equal(m0, np.broadcast_to(np.eye(3), m0.shape))


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


def test_chart_points_round_trip():
    rng = np.random.default_rng(24)
    pts = rng.normal(size=(40, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    chart = flow.chart_of(pts)
    z = flow.chart_coords(pts, chart)
    back = flow.chart_points(z, chart)
    assert np.max(np.abs(back - pts)) < 1e-12


def test_round_structure_preserved_by_rotation():
    h = ham.coordinate(0)  # rotation about the x1 axis
    ps = flow.PushforwardStructure(flow.RoundStructure(), h, 0.9)
    g = sphere.build_grid(8, 16)
    mats = ps.evaluate(g.nodes)
    assert np.max(np.abs(mats - siegel.J_STANDARD)) < 1e-9


def test_pushforward_structure_stays_compatible():
    h = ham.height_squared()
    ps = flow.PushforwardStructure(flow.RoundStructure(), h, 0.7)
    g = sphere.build_grid(8, 16)
    mats = ps.evaluate(g.nodes)
    assert np.max(siegel.structure_defect(mats)) < 1e-8
    assert np.max(np.abs(mats - siegel.J_STANDARD)) > 1e-2  # genuinely moved


def test_pushforward_chart_override_conjugation():
    # the two chart representations of the same structure are conjugate by
    # the chart-change tangent map, so their traces and dets agree
    h = ham.height_squared()
    ps = flow.PushforwardStructure(flow.RoundStructure(), h, 0.6)
    pts = np.array([[0.8, 0.0, 0.6], [0.0, 0.6, 0.8]])
    north = ps.evaluate(pts, np.full(2, flow.NORTH))
    south = ps.evaluate(pts, np.full(2, flow.SOUTH))
    assert np.max(np.abs(np.trace(north, axis1=-2, axis2=-1))) < 1e-8
    assert np.max(np.abs(np.linalg.det(south) - np.linalg.det(north))) < 1e-8
