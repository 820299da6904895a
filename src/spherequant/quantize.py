"""Quantization of the sphere: spaces of degree-k holomorphic sections.

For the total symplectic volume 2*pi the space at level k has dimension
k + 1 and a monomial orthogonal basis z^m (m = 0..k) in the north chart,
with squared norms 2*pi * m! (k-m)! / (k+1)!.  Operators are compressed
by quadrature on a grid tight enough that polynomial symbols are
integrated exactly, so the basis Gram matrix is the identity to machine
precision.

The grid is a product of Gauss-Legendre rings and uniform azimuths, and
a basis section on ring i is |s_m|(ring i) * e^{i m phi}.  The quadrature
sum therefore factors ring by ring (Driscoll & Healy, Adv. Appl. Math. 15,
1994): one FFT along phi per ring, then a sum over rings, with the same
aliasing as the node sum.  The (nodes x (k+1)) node basis is built only
on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from . import flow, sphere

TOTAL_VOLUME = sphere.TOTAL_VOLUME
# lambda' = half the Liouville mean of the scalar curvature; the round
# structure has scalar curvature 2 everywhere
ROUND_LAMBDA_PRIME = 1.0


def _log_norms(k):
    """log N_m = log(2 pi) + lgamma(m+1) + lgamma(k-m+1) - lgamma(k+2)."""
    m = np.arange(k + 1)
    return (
        np.log(2.0 * np.pi) + gammaln(m + 1.0) + gammaln(k - m + 1.0) - gammaln(k + 2.0)
    )


@dataclass(frozen=True)
class QuantumSpace:
    """Level-k quantization sampled on a ring-major quadrature grid.

    ``rings[i, m] = sqrt(w_i) |s_m|`` on ring i, with w_i the node weight
    of that ring and s_m = z^m (1+|z|^2)^{-k/2} / sqrt(N_m) the unit basis
    section (north chart), assembled in log space so high levels do not
    overflow.  ``z``, ``basis`` and ``weighted_basis`` are node arrays,
    built node by node on first access; no operator assembly uses them.
    """

    k: int
    grid: sphere.SphereGrid
    rings: np.ndarray  # (n_theta, k + 1), real

    @property
    def dim(self):
        return self.k + 1

    @cached_property
    def z(self):
        """(n_nodes,) north chart coordinates of the grid nodes."""
        return flow.chart_coords(self.grid.nodes, np.zeros(self.grid.size, dtype=int))

    @cached_property
    def basis(self):
        """(n_nodes, k + 1) basis sections at the nodes, node by node."""
        z = self.z
        m = np.arange(self.dim)
        log_mag = (
            m[None, :] * np.log(np.abs(z))[:, None]
            - 0.5 * self.k * np.log1p(np.abs(z) ** 2)[:, None]
            - 0.5 * _log_norms(self.k)[None, :]
        )
        return np.exp(log_mag) * np.exp(1j * m[None, :] * np.angle(z)[:, None])

    @cached_property
    def weighted_basis(self):
        return self.grid.weights[:, None] * self.basis

    @cached_property
    def _ring_pairs(self):
        """Ring products regrouped by s = m + n.

        rings[i, m] rings[i, n] = kappa[m, n] * pairs[s, i] with pairs[s, i]
        = rings[i, s//2] rings[i, s - s//2] and the ring-independent kappa =
        sqrt(N_{s//2} N_{s-s//2} / (N_m N_n)), which is at most 1 because
        log N_m is convex in m.  Returns (pairs, kappa, index) with index the
        flat position of (s, (m - n) mod n_phi) in an (2k+1, n_phi) array.
        """
        k, n_phi = self.k, self.grid.n_phi
        s = np.arange(2 * k + 1)
        pairs = self.rings[:, s // 2].T * self.rings[:, s - s // 2].T
        log_n = _log_norms(k)
        m = np.arange(k + 1)
        total = m[:, None] + m[None, :]
        kappa = np.exp(
            0.5 * (log_n[total // 2] + log_n[total - total // 2])
            - 0.5 * (log_n[:, None] + log_n[None, :])
        )
        index = total * n_phi + (m[:, None] - m[None, :]) % n_phi
        return pairs, kappa, index

    def compress(self, g):
        """Matrix [sum_nodes w conj(s_m) g s_n]_{mn} of node values g.

        One FFT along phi per ring gives the azimuthal modes of g; entry
        (m, n) sums rings[i, m] rings[i, n] modes[i, (m - n) mod n_phi]
        over the rings, done as one product over s = m + n (see
        ``_ring_pairs``).
        """
        grid = self.grid
        modes = np.fft.fft(np.reshape(g, (grid.n_theta, grid.n_phi)), axis=1)
        pairs, kappa, index = self._ring_pairs
        return kappa * np.take(pairs @ modes, index)


def default_grid(k):
    """Grid exact for Toeplitz entries of polynomial symbols up to
    moderate degree at level k."""
    return sphere.build_grid(k // 2 + 8, k + 16)


def _ring_layout(grid):
    """Chart radius and node weight of each ring; raises unless the nodes
    run ring by ring, each ring n_phi uniform azimuths from phi = 0."""
    n_theta, n_phi = grid.n_theta, grid.n_phi
    ok = grid.nodes.shape == (n_theta * n_phi, 3)
    if ok:
        nodes = grid.nodes.reshape(n_theta, n_phi, 3)
        weights = grid.weights.reshape(n_theta, n_phi)
        s = nodes[:, :1, 0]
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        ring_major = np.stack(
            np.broadcast_arrays(s * np.cos(phi), s * np.sin(phi), nodes[:, :1, 2]),
            axis=-1,
        )
        ok = (
            np.all(s > 0.0)
            and np.allclose(nodes, ring_major, rtol=0.0, atol=1e-12)
            and np.allclose(weights, weights[:, :1], rtol=1e-12, atol=0.0)
        )
    if not ok:
        raise ValueError(
            f"SphereGrid(n_theta={n_theta}, n_phi={n_phi}) with "
            f"{grid.nodes.shape[0]} nodes does not list them ring by ring "
            "(n_theta rings of n_phi uniform azimuths from phi = 0)"
        )
    radius = np.abs(flow.chart_coords(nodes[:, 0], np.zeros(n_theta, dtype=int)))
    return radius, weights[:, 0]


def build_space(k, grid=None):
    if k < 1:
        raise ValueError("level k must be a positive integer")
    if grid is None:
        grid = default_grid(k)
    radius, weights = _ring_layout(grid)
    m = np.arange(k + 1)
    log_rings = (
        m[None, :] * np.log(radius)[:, None]
        - 0.5 * k * np.log1p(radius**2)[:, None]
        - 0.5 * _log_norms(k)[None, :]
        + 0.5 * np.log(weights)[:, None]
    )
    return QuantumSpace(k=k, grid=grid, rings=np.exp(log_rings))


def toeplitz(space, symbol, t=0.0):
    """Toeplitz operator: compress multiplication by the symbol, given as
    node values or as a closed-form Hamiltonian sampled at time t."""
    if callable(getattr(symbol, "value", None)):
        symbol = symbol.value(space.grid.nodes, t)
    return space.compress(symbol)


def kostant_souriau_from_chart(space, values, a):
    """Kostant-Souriau operator from north-chart data (f, dz(X_f)).

    K = f + (1/ik) covariant derivative along X_f, compressed back to the
    holomorphic space.  The derivative multiplies basis section n by
    n a / z - k conj(z) a / (1 + |z|^2), so column n of K is the
    compression of f - conj(z) a / ((1 + |z|^2) i) plus n times the
    compression of a / (i k z).
    """
    z = space.z
    k = space.k
    drift = values - np.conj(z) * a / ((1.0 + np.abs(z) ** 2) * 1j)
    return space.compress(drift) + space.compress(a / (1j * k * z)) * np.arange(k + 1)


def kostant_souriau(space, h, t=0.0):
    """Kostant-Souriau operator of a closed-form Hamiltonian."""
    values, a = flow.chart_symbol(h, space.grid.nodes, t)
    return kostant_souriau_from_chart(space, values, a)


def trace_residual(space, h):
    """Residual of the two-term trace expansion of the Kostant-Souriau
    operator:

        tr K_k(f) - (k / 2 pi) I(f) - (1 / 4 pi) I(f S)

    with I the symplectic integral and S = 2 the scalar curvature of the
    round structure.
    """
    tr = np.trace(kostant_souriau(space, h)).real
    values = h.value(space.grid.nodes, 0.0)
    i_f = sphere.integrate_values(space.grid, values)
    i_fs = sphere.integrate_values(space.grid, values * 2.0)
    return tr - space.k / (2.0 * np.pi) * i_f - i_fs / (4.0 * np.pi)
