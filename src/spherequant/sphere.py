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

from . import flow

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
    """Real function sampled on a grid, optionally with its evaluator."""

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


def calabi(h, grid: SphereGrid, time_nodes: int = 24) -> float:
    """Time-space integral of the Hamiltonian h_t on [0, 1] (a closed-form
    generator, see :mod:`spherequant.hamiltonians`)."""
    ts, ws = _time_gauss(time_nodes)
    total = 0.0
    for t, w in zip(ts, ws):
        total += w * integrate(ScalarField(h.value(grid.nodes, t), grid))
    return total


class StarProductHamiltonian:
    """Generating Hamiltonian of a pointwise product of prequantum paths.

    The product of the path generated by f with the path generated by g is
    generated by f_t + g_t o alpha_t^{-1}, where alpha is the Hamiltonian
    flow of f.  Values (and chart symbols, needed for quantization) are
    obtained by transporting evaluation points backward along that flow;
    a propagation samples increasing times at one point set, so for an
    autonomous f one backward sweep serves all of them.
    """

    def __init__(self, f, g, flow_steps: int = 256):
        self.f = f
        self.g = g
        self._sweep = flow.BackwardSweep(f, flow_steps)

    def value(self, points, t):
        if t == 0.0:
            return self.f.value(points, t) + self.g.value(points, t)
        y, _ = self._sweep.transport(points, t)
        return self.f.value(points, t) + self.g.value(y, t)

    def chart_symbol(self, points, t):
        """Values and chart one-form components of the composed symbol."""
        vals_f, a_f = flow.chart_symbol(self.f, points, t)
        if t == 0.0:
            vals_g, a_g = flow.chart_symbol(self.g, points, t)
            return vals_f + vals_g, a_f + a_g
        y, back = self._sweep.transport(points, t)
        vals_g = self.g.value(y, t)
        # X_{g o alpha^{-1}}(x) = d alpha|_y X_g(y) with y = alpha^{-1}(x),
        # and back = d(alpha^{-1})|_x is the inverse of d alpha|_y
        xg = flow.hamiltonian_vector_field(self.g, y, t)
        xx = np.linalg.solve(back, xg[..., None])[..., 0]
        a_g = flow.chart_one_form(xx, points)
        return vals_f + vals_g, a_f + a_g


def star_product(f, g, flow_steps: int = 256) -> StarProductHamiltonian:
    """Generating Hamiltonian of the product of the paths generated by f
    and g (flow of f implied)."""
    return StarProductHamiltonian(f, g, flow_steps)
