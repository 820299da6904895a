import numpy as np

from spherequant import siegel


def random_structures(rng, n):
    tau = rng.normal(size=n) + 1j * np.exp(rng.normal(size=n))
    return siegel.from_upper_half_plane(tau), tau


def test_round_trip_upper_half_plane():
    rng = np.random.default_rng(1)
    j, tau = random_structures(rng, 50)
    assert np.max(siegel.structure_defect(j)) < 1e-12
    back = siegel.to_upper_half_plane(j)
    assert np.max(np.abs(back - tau)) < 1e-12


def test_structure_defect_flags_bad_matrices():
    bad = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert siegel.structure_defect(bad) > 0.5


def fd_tangent(tau, dtau, h=1e-6):
    """Tangent vector at j(tau) from a finite difference of structures."""
    jp = siegel.from_upper_half_plane(tau + h * dtau)
    jm = siegel.from_upper_half_plane(tau - h * dtau)
    return (jp - jm) / (2 * h)


def test_sigma_antisymmetric_and_bilinear():
    rng = np.random.default_rng(3)
    j, tau = random_structures(rng, 20)
    a = fd_tangent(tau, rng.normal(size=20) + 1j * rng.normal(size=20))
    b = fd_tangent(tau, rng.normal(size=20) + 1j * rng.normal(size=20))
    sab = siegel.sigma_matrices(j, a, b)
    sba = siegel.sigma_matrices(j, b, a)
    scale = 1.0 + np.abs(sab)
    assert np.max(np.abs(sab + sba) / scale) < 1e-12
    s2 = siegel.sigma_matrices(j, 2.5 * a, b)
    assert np.max(np.abs(s2 - 2.5 * sab) / scale) < 1e-10


def test_sigma_constant_is_half():
    # sigma = c * (hyperbolic area form), and the area form is 1 on
    # (d/dx, d/dy) at tau = i: measure c from finite-difference tangents
    assert siegel.SIGMA_AREA_CONSTANT == 0.5
    j = siegel.from_upper_half_plane(1j)
    ax = fd_tangent(1j, 1.0, h=1e-6)
    ay = fd_tangent(1j, 1j, h=1e-6)
    assert np.max(np.abs(ax - [[-1.0, 0.0], [0.0, 1.0]])) < 1e-8
    assert np.max(np.abs(ay - [[0.0, -1.0], [-1.0, 0.0]])) < 1e-8
    assert abs(siegel.sigma_matrices(j, ax, ay) - 0.5) < 1e-8


def test_geodesic_endpoints_and_vertical_line():
    j0 = siegel.from_upper_half_plane(1j)
    j1 = siegel.from_upper_half_plane(3j)
    assert np.max(np.abs(siegel.geodesic_matrices(j0, j1, 0.0) - j0)) < 1e-12
    assert np.max(np.abs(siegel.geodesic_matrices(j0, j1, 1.0) - j1)) < 1e-9
    # one-parameter subgroup: the geodesic from i to i y runs through i y^t
    for t in (0.25, 0.5, 0.8):
        jt = siegel.geodesic_matrices(j0, j1, t)
        assert abs(siegel.to_upper_half_plane(jt) - 1j * 3**t) < 1e-9


def test_geodesic_near_identity_uses_taylor_branch():
    j0 = siegel.from_upper_half_plane(1j)
    j1 = siegel.from_upper_half_plane(1e-7 + 1j * (1 + 1e-7))
    jt = siegel.geodesic_matrices(j0, j1, 0.5)
    assert np.max(siegel.structure_defect(jt)) < 1e-10


def test_geodesic_batched_compatibility():
    rng = np.random.default_rng(4)
    j0, _ = random_structures(rng, 30)
    j1, _ = random_structures(rng, 30)
    for t in (0.3, 0.7):
        jt = siegel.geodesic_matrices(j0, j1, t)
        assert np.max(siegel.structure_defect(jt)) < 1e-9


def test_arc_flux_additive_along_geodesic():
    # points on the circle centered at 1 with radius sqrt(2)
    angles = np.array([2.2, 1.7, 1.1])
    pts = 1.0 + np.sqrt(2.0) * np.exp(1j * angles)
    whole = siegel.geodesic_arc_flux(pts[0], pts[2])
    split = siegel.geodesic_arc_flux(pts[0], pts[1]) + siegel.geodesic_arc_flux(
        pts[1], pts[2]
    )
    assert abs(whole - split) < 1e-12
    assert abs(whole - (angles[0] - angles[2])) < 1e-12


def test_arc_flux_vertical_is_zero():
    assert siegel.geodesic_arc_flux(0.7 + 1j, 0.7 + 5j) == 0.0


def hyperbolic_triangle_area_gauss_bonnet(v0, v1, v2):
    """pi minus the interior angle sum, angles from circle tangents."""

    def tangent_dir(a, b):
        # direction at a of the geodesic from a to b
        if abs(a.real - b.real) < 1e-14:
            d = 1j * np.sign(b.imag - a.imag)
        else:
            c = (abs(b) ** 2 - abs(a) ** 2) / (2 * (b.real - a.real))
            # tangent to circle centered c, oriented toward b
            rad = a - c
            d = 1j * rad
            if (d.real * (b - a).real + d.imag * (b - a).imag) < 0:
                d = -d
        return d / abs(d)

    total = 0.0
    for a, b, c in ((v0, v1, v2), (v1, v2, v0), (v2, v0, v1)):
        d1 = tangent_dir(a, b)
        d2 = tangent_dir(a, c)
        total += np.arccos(np.clip(d1.real * d2.real + d1.imag * d2.imag, -1, 1))
    return np.pi - total


def test_triangle_flux_matches_gauss_bonnet_area():
    v = np.array([1j, 2j, 1 + 1j])
    area = hyperbolic_triangle_area_gauss_bonnet(*v)
    loop = np.concatenate([v, v[:1]])
    flux = siegel.loop_flux(loop)
    assert abs(abs(flux) - siegel.SIGMA_AREA_CONSTANT * area) < 1e-10


def test_loop_flux_invariant_under_cyclic_shift():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=6) + 1j * np.exp(rng.normal(size=6))
    loop = np.concatenate([pts, pts[:1]])
    base = siegel.loop_flux(loop)
    rolled = np.concatenate([pts[2:], pts[:2], pts[2:3]])
    assert abs(siegel.loop_flux(rolled) - base) < 1e-10


def test_typed_loop_area_orientation():
    # reversing the samples of a closed loop negates its flux
    v = np.array([1j, 2j, 1 + 1j, 1j])
    fwd = siegel.loop_flux(v)
    rev = siegel.loop_flux(v[::-1])
    assert abs(fwd) > 0.1
    assert abs(fwd + rev) < 1e-12
