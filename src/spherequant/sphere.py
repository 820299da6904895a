"""The prequantized two-sphere: quadrature grid, fields, Calabi integral.

The symplectic form is half the round area form of the unit sphere, so the
total Liouville volume is 2*pi and the class [omega / 2 pi] generates the
integral cohomology, as required for a degree-one prequantum line bundle.
Quadrature uses Gauss-Legendre nodes in the height coordinate crossed with
uniform azimuthal nodes, which integrates spherical polynomials exactly up
to a degree set by the resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOTAL_VOLUME = 2.0 * np.pi


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes on the unit sphere with Liouville weights."""

    nodes: np.ndarray  # (n, 3) unit vectors
    weights: np.ndarray  # (n,) positive, summing to 2*pi
    n_theta: int
    n_phi: int

    @property
    def size(self):
        return self.nodes.shape[0]


def build_grid(n_theta: int = 24, n_phi: int = 48) -> SphereGrid:
    if n_theta < 1 or n_phi < 1:
        raise ValueError("grid resolution must be positive")
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    s = np.sqrt(1.0 - u**2)
    nodes = np.empty((n_theta * n_phi, 3))
    nodes[:, 0] = np.outer(s, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(s, np.sin(phi)).ravel()
    nodes[:, 2] = np.outer(u, np.ones(n_phi)).ravel()
    # omega = (1/2) dA, so weights carry an extra factor 1/2
    weights = 0.5 * np.outer(wu, np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
    return SphereGrid(nodes, weights, n_theta, n_phi)


@dataclass(frozen=True)
class ScalarField:
    """Real function sampled on the nodes of a grid."""

    values: np.ndarray
    grid: SphereGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise ValueError("values do not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("field has non-finite values")
        object.__setattr__(self, "values", v)


def integrate(f: ScalarField) -> float:
    """Integral of f against the Liouville measure."""
    return float(f.grid.weights @ f.values)


def integrate_values(grid: SphereGrid, values) -> float:
    return float(grid.weights @ np.asarray(values, dtype=float))


def _time_gauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


CALABI_TIME_NODES = 24


def calabi(h, grid: SphereGrid) -> float:
    """Time-space integral of the Hamiltonian h_t on [0, 1] (a closed-form
    generator, see :mod:`spherequant.hamiltonians`)."""
    ts, ws = _time_gauss(CALABI_TIME_NODES)
    total = 0.0
    for t, w in zip(ts, ws):
        total += w * integrate(ScalarField(h.value(grid.nodes, t), grid))
    return total
