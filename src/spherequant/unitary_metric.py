"""Geodesic distance of U(N) and of its universal cover for the operator norm.

The distance between unitaries u, v is max_i |arg lambda_i| over the
eigenvalues of u^{-1} v, with arg taken in (-pi, pi].  On the universal
cover, realised as pairs (u, phi) with det u = e^{i phi}, the distance is
the minimum of max_i |theta_i| over the affine lattice of angle vectors
theta with e^{i theta_i} = lambda_i and sum theta_i = psi - phi.  The
minimum takes the eigenvalues and one sort (:func:`solve_lattice`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * math.pi
# how far, in radians, from a multiple of 2pi LatticeProblem admits target
# minus arg sum: 1e-7 rad plus 1e-9 turn, about 1.063e-7 rad.  Not tighter:
# two det-lift residuals of up to 1e-8 each already put a valid pair about
# 2e-8 off.
LATTICE_SUM_TOL = 1e-7 + TWO_PI * 1e-9


class DimensionMismatchError(ValueError):
    pass


class LatticeInvariantError(ValueError):
    pass


@dataclass(frozen=True)
class Unitary:
    mat: np.ndarray
    # max |u^H u - I|, the residual the constructor checks
    unitarity: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("expected a square matrix")
        residual = float(np.max(np.abs(m.conj().T @ m - np.eye(n))))
        if not residual <= 1e-10:  # NaN included
            raise ValueError("matrix is not unitary to 1e-10")
        object.__setattr__(self, "unitarity", residual)

    @property
    def dim(self):
        return self.mat.shape[0]


@dataclass(frozen=True)
class UnitaryWithPhase:
    """Element of the universal cover: unitary u with det u = e^{i phase}."""

    u: Unitary
    phase: float
    # |det u - e^{i phase}|, the residual the constructor checks
    det_lift: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        with np.errstate(invalid="ignore"):  # an infinite phase gives NaN
            residual = float(abs(np.linalg.det(self.u.mat) - np.exp(1j * self.phase)))
        if not residual <= 1e-8:
            raise ValueError("phase is not a lift of arg det u")
        object.__setattr__(self, "det_lift", residual)

    @property
    def dim(self):
        return self.u.dim


@dataclass(frozen=True)
class LatticeProblem:
    """Minimise max_i |theta_i| with theta_i = base_args_i mod 2pi and
    fixed sum target_sum."""

    base_args: np.ndarray
    target_sum: float

    def __post_init__(self):
        b = np.asarray(self.base_args, dtype=float)
        object.__setattr__(self, "base_args", b)
        if not (np.all(np.isfinite(b)) and np.isfinite(self.target_sum)):
            raise LatticeInvariantError("base args and target sum must be finite")
        if np.any(b <= -math.pi - 1e-12) or np.any(b > math.pi + 1e-12):
            raise LatticeInvariantError("base args must lie in (-pi, pi]")
        k = (self.target_sum - b.sum()) / TWO_PI
        if abs(k - round(k)) > LATTICE_SUM_TOL / TWO_PI:
            raise LatticeInvariantError(
                "target sum minus the arg sum is not a multiple of 2pi"
            )

    @property
    def offset_sum(self):
        """The integer K with sum(theta) = sum(base_args) + 2 pi K."""
        return int(round((self.target_sum - self.base_args.sum()) / TWO_PI))


def principal_args(eigenvalues):
    """Arguments in (-pi, pi]; np.angle already resolves -pi to +pi."""
    args = np.angle(np.asarray(eigenvalues, dtype=complex))
    return np.where(args <= -math.pi, math.pi, args)


def distance(u: Unitary, v: Unitary) -> float:
    """Operator-norm geodesic distance on U(N)."""
    if u.dim != v.dim:
        raise DimensionMismatchError("unitaries of different sizes")
    lam = np.linalg.eigvals(u.mat.conj().T @ v.mat)
    return float(np.max(np.abs(principal_args(lam))))


def solve_lattice(problem: LatticeProblem):
    """Exact minimiser of max_i |theta_i| over the constrained lattice.

    With q, r = divmod(K, N) for K = offset_sum, the offsets n_i = q + 1 on
    the r smallest base args (a stable sort breaks ties) and n_i = q on the
    rest attain the minimum.  Two exchanges take any minimiser there, and
    neither raises the maximum: if n_i >= n_j + 2, then theta_i - theta_j >
    2 pi, and moving one unit from i to j leaves both new values inside
    [theta_j, theta_i]; if b_i < b_j and n_i < n_j, swapping their units
    leaves both inside [theta_i, theta_j].  The first lowers sum n_i^2 and
    the second the number of inversions, so both stop.
    """
    b = problem.base_args
    q, r = divmod(problem.offset_sum, b.size)
    offsets = np.full(b.size, q)
    offsets[np.argsort(b, kind="stable")[:r]] += 1
    theta = b + TWO_PI * offsets
    return float(np.max(np.abs(theta))), theta


def _relative(a: UnitaryWithPhase, b: UnitaryWithPhase):
    """b.u a.u^H, whose eigenvalues the cover distance from a to b reads."""
    if a.dim != b.dim:
        raise DimensionMismatchError("elements of different sizes")
    return b.u.mat @ a.u.mat.conj().T


def cover_distance(a: UnitaryWithPhase, b: UnitaryWithPhase) -> float:
    """Operator-norm geodesic distance on the universal cover of U(N), from the
    eigenvalues of b.u a.u^H alone, read as :func:`distance` reads them."""
    lam = np.linalg.eigvals(_relative(a, b))
    radius, _ = solve_lattice(LatticeProblem(principal_args(lam), b.phase - a.phase))
    return radius


def minimizing_curve(a: UnitaryWithPhase, b: UnitaryWithPhase) -> np.ndarray:
    """Hermitian H with e^{iH} a.u = b.u, tr H = phase gap, |H| = distance.

    The curve t -> (e^{itH} a.u, a.phase + t tr H) is a minimizing geodesic
    from a to b.
    """
    # Schur form of a normal matrix: diagonal with orthonormal eigenbasis,
    # which only the curve needs
    t, vecs = scipy.linalg.schur(_relative(a, b), output="complex")
    _, theta = solve_lattice(LatticeProblem(principal_args(np.diag(t)), b.phase - a.phase))
    h = (vecs * theta) @ vecs.conj().T
    return 0.5 * (h + h.conj().T)


def lift_path(samples, start_phase: float = 0.0) -> UnitaryWithPhase:
    """Endpoint of the lift of a sampled unitary path to the cover.

    The determinant argument is accumulated as the sum of the principal
    eigenvalue arguments of u_i^{-1} u_{i+1}, which is the exact increment
    along the minimizing interpolation; consecutive samples must be closer
    than pi/2 in distance.
    """
    mats = [u.mat if isinstance(u, Unitary) else np.asarray(u) for u in samples]
    phase = float(start_phase)
    for prev, cur in zip(mats[:-1], mats[1:]):
        args = principal_args(np.linalg.eigvals(prev.conj().T @ cur))
        if np.max(np.abs(args)) >= 0.5 * math.pi:
            raise ValueError("path samples too far apart to lift the phase")
        phase += float(args.sum())
    return UnitaryWithPhase(Unitary(mats[-1]), phase)
