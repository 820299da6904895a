"""Quantization of the sphere: spaces of degree-k holomorphic sections.

For the total symplectic volume 2*pi the space at level k has dimension
k + 1 and a monomial orthogonal basis z^m (m = 0..k) in the north chart,
with squared norms 2*pi * m! (k-m)! / (k+1)!.  Everything is represented
on a quadrature grid tight enough that polynomial symbols are integrated
exactly, so the basis Gram matrix is the identity to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import flow, sphere

TOTAL_VOLUME = sphere.TOTAL_VOLUME
# lambda' = half the Liouville mean of the scalar curvature; the round
# structure has scalar curvature 2 everywhere
ROUND_LAMBDA_PRIME = 1.0


def dimension(k):
    return k + 1


@dataclass(frozen=True)
class QuantumSpace:
    """Level-k quantization sampled on a quadrature grid.

    ``basis`` has one column per monomial: z^m (1+|z|^2)^{-k/2} / sqrt(N_m)
    evaluated at the grid nodes (north chart), assembled in log space so
    high levels do not overflow.
    """

    k: int
    grid: sphere.SphereGrid
    basis: np.ndarray  # (n_nodes, k + 1), complex
    z: np.ndarray  # (n_nodes,) north chart coordinates
    weighted_basis: np.ndarray  # weights[:, None] * basis

    @property
    def dim(self):
        return self.k + 1


def default_grid(k):
    """Grid exact for Toeplitz entries of polynomial symbols up to
    moderate degree at level k."""
    return sphere.build_grid(k // 2 + 8, k + 16)


def build_space(k, grid=None):
    if k < 1:
        raise ValueError("level k must be a positive integer")
    if grid is None:
        grid = default_grid(k)
    z = flow.chart_coords(grid.nodes, np.zeros(len(grid.nodes), dtype=int))
    r2 = np.abs(z) ** 2
    m = np.arange(k + 1)
    # log N_m = log(2 pi) + lgamma(m+1) + lgamma(k-m+1) - lgamma(k+2)
    log_norms = (
        np.log(2.0 * np.pi) + gammaln(m + 1.0) + gammaln(k - m + 1.0) - gammaln(k + 2.0)
    )
    log_r = np.log(np.abs(z))
    log_mag = (
        m[None, :] * log_r[:, None]
        - 0.5 * k * np.log1p(r2)[:, None]
        - 0.5 * log_norms[None, :]
    )
    phase = np.exp(1j * m[None, :] * np.angle(z)[:, None])
    basis = np.exp(log_mag) * phase
    return QuantumSpace(
        k=k,
        grid=grid,
        basis=basis,
        z=z,
        weighted_basis=grid.weights[:, None] * basis,
    )


def _node_values(space, symbol, t=0.0):
    if isinstance(symbol, np.ndarray):
        return symbol
    if callable(getattr(symbol, "value", None)):
        return symbol.value(space.grid.nodes, t)
    return np.asarray(symbol, dtype=float)


def toeplitz(space, symbol, t=0.0):
    """Toeplitz operator: compress multiplication by the symbol."""
    values = _node_values(space, symbol, t)
    return space.weighted_basis.conj().T @ (values[:, None] * space.basis)


def kostant_souriau_from_chart(space, values, a):
    """Kostant-Souriau operator from north-chart data (f, dz(X_f)).

    K = f + (1/ik) covariant derivative along X_f, compressed back to the
    holomorphic space; column m of the derivative acts on z^m as
    m a / z - k conj(z) a / (1 + |z|^2) times the basis section.
    """
    k = space.k
    z = space.z
    r2 = np.abs(z) ** 2
    m = np.arange(k + 1)
    radial = a[:, None] * (m[None, :] / z[:, None]) - (
        k * np.conj(z) * a / (1.0 + r2)
    )[:, None]
    cols = (values[:, None] + radial / (1j * k)) * space.basis
    return space.weighted_basis.conj().T @ cols


def kostant_souriau(space, h, t=0.0):
    """Kostant-Souriau operator of a closed-form Hamiltonian."""
    values, a = flow.chart_symbol(h, space.grid.nodes, t)
    return kostant_souriau_from_chart(space, values, a)


def trace_residual(space, h, curvature=2.0, operator="ks"):
    """Residual of the two-term trace expansion of a quantized operator:

        tr Op_k(f) - (k / 2 pi) I(f) - (1 / 4 pi) I(f S)

    with I the symplectic integral and S the scalar curvature (2 for the
    round structure); Op is the compressed Kostant-Souriau operator by
    default, or the Toeplitz operator.
    """
    if operator == "ks":
        op = kostant_souriau(space, h)
    elif operator == "toeplitz":
        op = toeplitz(space, h)
    else:
        raise ValueError("operator must be 'ks' or 'toeplitz'")
    tr = np.trace(op).real
    values = _node_values(space, h)
    i_f = sphere.integrate_values(space.grid, values)
    i_fs = sphere.integrate_values(space.grid, values * curvature)
    return tr - space.k / (2.0 * np.pi) * i_f - i_fs / (4.0 * np.pi)
