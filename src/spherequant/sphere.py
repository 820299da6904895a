"""The prequantized two-sphere: quadrature grid, its one integral, Calabi.

The symplectic form is half the round area form of the unit sphere, so the
total Liouville volume is 2*pi and the class [omega / 2 pi] generates the
integral cohomology, as required for a degree-one prequantum line bundle.
Quadrature uses Gauss-Legendre nodes in the height coordinate crossed with
uniform azimuthal nodes, which integrates spherical polynomials exactly up
to a degree set by the resolution.  Grids are ring-major by construction,
and :func:`integrate_values`, which refuses non-finite values, is the one
quadrature sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import _is_count

TOTAL_VOLUME = 2.0 * np.pi


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes on the unit sphere with Liouville weights, built
    from the two counts alone: node i * n_phi + j sits on Gauss-Legendre
    ring i at phi = 2 pi j / n_phi, and the nodes of a ring share a weight."""

    n_theta: int
    n_phi: int
    nodes: np.ndarray = field(init=False, compare=False, repr=False)  # (n, 3) unit vectors
    weights: np.ndarray = field(init=False, compare=False, repr=False)  # (n,) summing to 2*pi

    def __post_init__(self):
        n_theta, n_phi = self.n_theta, self.n_phi
        for name, n in (("n_theta", n_theta), ("n_phi", n_phi)):
            if not _is_count(n):
                raise ValueError(f"{name} must be a positive integer, got {n!r}")
        u, wu = np.polynomial.legendre.leggauss(n_theta)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        s = np.sqrt(1.0 - u**2)
        nodes = np.empty((n_theta * n_phi, 3))
        nodes[:, 0] = np.outer(s, np.cos(phi)).ravel()
        nodes[:, 1] = np.outer(s, np.sin(phi)).ravel()
        nodes[:, 2] = np.outer(u, np.ones(n_phi)).ravel()
        object.__setattr__(self, "nodes", nodes)
        # omega = (1/2) dA, so weights carry an extra factor 1/2
        weights = 0.5 * np.outer(wu, np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
        object.__setattr__(self, "weights", weights)

    @property
    def size(self):
        return self.nodes.shape[0]


def build_grid(n_theta: int = 24, n_phi: int = 48) -> SphereGrid:
    return SphereGrid(n_theta, n_phi)


def integrate_values(grid: SphereGrid, values) -> float:
    """Integral against the Liouville measure of the function with the
    given node values: the package's one quadrature sum.  Raises
    ``ValueError`` unless there is one finite real value per node."""
    if np.iscomplexobj(values):
        raise ValueError("field has complex values")
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.size,):
        raise ValueError("values do not match the grid")
    if not np.all(np.isfinite(v)):
        raise ValueError("field has non-finite values")
    return float(grid.weights @ v)


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
        total += w * integrate_values(grid, h.value(grid.nodes, t))
    return total
