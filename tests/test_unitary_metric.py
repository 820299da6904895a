import itertools

import numpy as np
import pytest
from scipy.stats import unitary_group

import oracles
from spherequant import unitary_metric as um


def random_pair(rng, n):
    u = um.Unitary(unitary_group.rvs(n, random_state=rng))
    v = um.Unitary(unitary_group.rvs(n, random_state=rng))
    return u, v


def test_distance_metric_axioms():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        u, v = random_pair(rng, n)
        w = um.Unitary(unitary_group.rvs(n, random_state=rng))
        assert um.distance(u, u) < 1e-12
        assert abs(um.distance(u, v) - um.distance(v, u)) < 1e-12
        assert um.distance(u, w) <= um.distance(u, v) + um.distance(v, w) + 1e-10


def test_distance_bi_invariance():
    rng = np.random.default_rng(11)
    u, v = random_pair(rng, 4)
    g = um.Unitary(unitary_group.rvs(4, random_state=rng))
    d = um.distance(u, v)
    left = um.distance(um.Unitary(g.mat @ u.mat), um.Unitary(g.mat @ v.mat))
    right = um.distance(um.Unitary(u.mat @ g.mat), um.Unitary(v.mat @ g.mat))
    assert abs(left - d) < 1e-12
    assert abs(right - d) < 1e-12


def test_distance_operator_norm_bounds():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        u, v = random_pair(rng, n)
        d = um.distance(u, v)
        gap = np.linalg.norm(u.mat - v.mat, ord=2)
        assert gap <= d + 1e-10
        assert d <= np.pi / 2 * gap + 1e-10


def brute_force_min(base_args, target_sum, span=4):
    """Independent exhaustive search over integer offsets: every choice of
    the first n - 1 offsets in [-span, span] at once, the last one fixed by
    the sum."""
    b = np.asarray(base_args)
    n = len(b)
    k_total = int(round((target_sum - b.sum()) / (2 * np.pi)))
    free = np.indices((2 * span + 1,) * (n - 1)).reshape(n - 1, -1).T - span
    last = k_total - free.sum(axis=1)
    combos = np.column_stack([free, last])[np.abs(last) <= span]
    if not len(combos):
        return np.inf
    theta = b + 2 * np.pi * combos
    return np.min(np.max(np.abs(theta), axis=1))


def _brute_force_min_loop(base_args, target_sum, span=4):
    """The same search one offset tuple at a time."""
    b = np.asarray(base_args)
    n = len(b)
    k_total = int(round((target_sum - b.sum()) / (2 * np.pi)))
    best = np.inf
    for combo in itertools.product(range(-span, span + 1), repeat=n - 1):
        last = k_total - sum(combo)
        if abs(last) > span:
            continue
        theta = b + 2 * np.pi * np.array(combo + (last,))
        best = min(best, np.max(np.abs(theta)))
    return best


def test_vectorised_brute_force_matches_the_loop():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        b = rng.uniform(-np.pi, np.pi, size=n)
        target = b.sum() + 2 * np.pi * int(rng.integers(-8, 9))
        for span in (1, 4):
            loop = _brute_force_min_loop(b, target, span)
            assert brute_force_min(b, target, span) == loop


def test_solve_lattice_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        b = rng.uniform(-np.pi, np.pi, size=n)
        shift = 2 * np.pi * int(rng.integers(-3, 4))
        target = b.sum() + shift
        problem = um.LatticeProblem(b, target)
        radius, theta = um.solve_lattice(problem)
        assert abs(radius - brute_force_min(b, target)) < 1e-10
        # returned point is feasible and attains the radius
        assert abs(theta.sum() - target) < 1e-8
        assert np.max(np.abs((theta - b) / (2 * np.pi) - np.round((theta - b) / (2 * np.pi)))) < 1e-8
        assert abs(np.max(np.abs(theta)) - radius) < 1e-10


def test_solve_lattice_matches_the_bisection_oracle_at_workload_sizes():
    # brute force stops at n = 6; the radius search it checks reaches every
    # size the sweeps make (n = k + 1 up to 129), ties and arg pi included
    rng = np.random.default_rng(17)
    for n in range(2, 130):
        distinct = rng.uniform(-np.pi, np.pi, size=n)
        tied = rng.choice(distinct[: max(1, n // 3)], size=n)
        tied[0] = np.pi
        for b in (distinct, tied):
            for k in (-3 * n, int(rng.integers(-3 * n, 3 * n + 1)), 3 * n):
                target = b.sum() + 2 * np.pi * k
                problem = um.LatticeProblem(b, target)
                radius, theta = um.solve_lattice(problem)
                assert radius == oracles.bisect_lattice(problem)[0]
                assert np.max(np.abs(theta)) == radius
                units = (theta - b) / (2 * np.pi)
                assert np.max(np.abs(units - np.round(units))) < 1e-9
                assert int(np.round(units).sum()) == k
                assert abs(theta.sum() - target) < 1e-9 * max(1.0, abs(target))


def test_lattice_rejects_inconsistent_sum():
    with pytest.raises(um.LatticeInvariantError):
        um.LatticeProblem(np.array([0.1, 0.2]), 1.0)


def test_lattice_sum_tolerance_is_the_bound_the_check_applies():
    # about 1.063e-7 rad off a multiple of 2 pi, on either side
    assert abs(um.LATTICE_SUM_TOL - 1.0628e-7) < 1e-11
    b = np.array([0.1, 0.2])
    for sign in (1.0, -1.0):
        target = b.sum() + 2 * np.pi + sign * um.LATTICE_SUM_TOL
        um.LatticeProblem(b, target - sign * 1e-10)
        with pytest.raises(um.LatticeInvariantError):
            um.LatticeProblem(b, target + sign * 1e-10)


def random_cover_element(rng, n):
    u = unitary_group.rvs(n, random_state=rng)
    phase = float(np.angle(np.linalg.det(u))) + 2 * np.pi * int(rng.integers(-2, 3))
    return um.UnitaryWithPhase(um.Unitary(u), phase)


def test_cover_distance_bounds():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = random_cover_element(rng, n)
        b = random_cover_element(rng, n)
        d = um.cover_distance(a, b)
        gap = abs(b.phase - a.phase)
        assert gap / n <= d + 1e-10
        assert d <= gap / n + 2 * np.pi + 1e-10


def test_cover_distance_collapses_to_base_distance_when_small():
    rng = np.random.default_rng(15)
    hits = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = random_cover_element(rng, n)
        # nearby second point: exponential of a small Hermitian matrix
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        hmat = (x + x.conj().T) / 2
        hmat *= 0.2 / max(1.0, np.linalg.norm(hmat, 2))
        vals, vecs = np.linalg.eigh(hmat)
        step = (vecs * np.exp(1j * vals)) @ vecs.conj().T
        b = um.UnitaryWithPhase(
            um.Unitary(step @ a.u.mat), a.phase + float(vals.sum())
        )
        d_cover = um.cover_distance(a, b)
        if d_cover <= np.pi / (2 * n):
            hits += 1
            assert abs(d_cover - um.distance(a.u, b.u)) < 1e-9
    assert hits > 50


def test_minimizing_curve_postconditions():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_cover_element(rng, n)
        b = random_cover_element(rng, n)
        hmat = um.minimizing_curve(a, b)
        assert np.max(np.abs(hmat - hmat.conj().T)) < 1e-9
        vals, vecs = np.linalg.eigh(hmat)
        end = (vecs * np.exp(1j * vals)) @ vecs.conj().T @ a.u.mat
        assert np.max(np.abs(end - b.u.mat)) < 1e-8
        assert abs(vals.sum() - (b.phase - a.phase)) < 1e-8
        assert abs(np.max(np.abs(vals)) - um.cover_distance(a, b)) < 1e-9


def test_lift_path_winding():
    # loop of diagonal unitaries winding once: endpoint phase 2 pi
    ts = np.linspace(0.0, 1.0, 200)
    samples = [um.Unitary(np.diag(np.exp(1j * 2 * np.pi * np.array([t, 0.0])))) for t in ts]
    lifted = um.lift_path(samples)
    assert np.max(np.abs(lifted.u.mat - np.eye(2))) < 1e-12
    assert abs(lifted.phase - 2 * np.pi) < 1e-10


def test_lift_path_rejects_coarse_sampling():
    samples = [
        um.Unitary(np.eye(2)),
        um.Unitary(np.diag(np.exp(1j * np.array([3.0, 0.0])))),
    ]
    with pytest.raises(ValueError):
        um.lift_path(samples)
