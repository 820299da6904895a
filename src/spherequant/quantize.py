"""Quantization of the sphere: spaces of degree-k holomorphic sections.

For the total symplectic volume 2*pi the space at level k has dimension
k + 1 and a monomial orthogonal basis z^m (m = 0..k) in the north chart,
with squared norms 2*pi * m! (k-m)! / (k+1)!.  Operators are compressed
by quadrature; level k assembles a symbol of degree d and azimuthal degree b
exactly on (k + d + 2) // 2 rings and k + b + 1 azimuths (:func:`_exact_grid`),
and assembly from a polynomial refuses a grid that rule does not certify.

The grid is a product of Gauss-Legendre rings and uniform azimuths, laid
out ring by ring by :class:`~spherequant.sphere.SphereGrid` itself, so
:func:`build_space` reads each ring from its phi = 0 node.  A basis
section on ring i is |s_m|(ring i) * e^{i m phi}.  The quadrature
sum therefore factors ring by ring (Driscoll & Healy, Adv. Appl. Math. 15,
1994): one FFT along phi per ring, then a sum over rings, with the same
aliasing as the node sum.  The (nodes x (k+1)) node basis is built only
on request.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import flow, sphere

# lambda' = half the Liouville mean of the scalar curvature; the round
# structure has scalar curvature 2 everywhere
ROUND_LAMBDA_PRIME = 1.0


def _log_norms(k):
    """log N_m = log(2 pi) + lgamma(m+1) + lgamma(k-m+1) - lgamma(k+2), from a
    table t[j] = lgamma(j+1) of ``math.lgamma``, so no ``scipy.special`` import."""
    t = np.array([math.lgamma(j) for j in range(1, k + 3)])
    m = np.arange(k + 1)
    return np.log(2.0 * np.pi) + t[m] + t[k - m] - t[k + 1]


@dataclass(frozen=True)
class QuantumSpace:
    """Level-k quantization sampled on a ring-major quadrature grid.

    ``rings[i, m] = sqrt(w_i) |s_m|`` on ring i, with w_i the node weight
    of that ring and s_m = z^m (1+|z|^2)^{-k/2} / sqrt(N_m) the unit basis
    section (north chart), assembled in log space so high levels do not
    overflow, and ``radii[i]`` is |z| on ring i, computed once with them.
    ``z``, ``basis`` and ``weighted_basis`` are node arrays, built node by
    node on first access; no operator assembly uses them.
    """

    k: int
    grid: sphere.SphereGrid
    rings: np.ndarray  # (n_theta, k + 1), real
    radii: np.ndarray  # (n_theta,) north-chart |z| of each ring

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

    def _modes(self, g):
        """Azimuthal modes of node values g: one FFT along phi per ring.  Every
        assembly from node values passes here, so non-finite values raise
        ``ValueError`` here, before they reach an operator."""
        if not np.all(np.isfinite(g)):
            raise ValueError("node values must be finite")
        return np.fft.fft(np.reshape(g, (self.grid.n_theta, self.grid.n_phi)), axis=1)

    def compress(self, g):
        """Matrix [sum_nodes w conj(s_m) g s_n]_{mn} of node values g.

        One FFT along phi per ring gives the azimuthal modes of g; entry
        (m, n) sums rings[i, m] rings[i, n] modes[i, (m - n) mod n_phi]
        over the rings, done as one product over s = m + n (see
        ``_ring_pairs``).
        """
        pairs, kappa, index = self._ring_pairs
        return kappa * np.take(pairs @ self._modes(g), index)


def _exact_grid(k, d, b):
    """(n_theta, n_phi) of a grid on which level k assembles a symbol of degree d and
    azimuthal degree b exactly: each entry integrates degree k + d and modes |j| <= k + b,
    and n Gauss rings are exact to degree 2n - 1, n uniform azimuths for |j| < n."""
    return (k + d + 2) // 2, k + b + 1


def _certified_band(space, h):
    """Azimuthal degree b of the Monomial or Polynomial h; raises ``ValueError``,
    naming a grid that works, unless :func:`_exact_grid` certifies that of ``space``."""
    powers = [term.powers for term in getattr(h, "terms", [h])]
    d = max(map(sum, powers), default=0)
    b = max((p[0] + p[1] for p in powers), default=0)
    n_theta, n_phi = _exact_grid(space.k, d, b)
    grid = space.grid
    if grid.n_theta < n_theta or grid.n_phi < n_phi:
        raise ValueError(
            f"a {grid.n_theta} x {grid.n_phi} grid is not certified exact for level {space.k} "
            f"of degree {d} and azimuthal degree {b}; a {n_theta} x {n_phi} grid is"
        )
    return b


def default_grid(k):
    """The :func:`_exact_grid` of level k at d = b = 15: exact for every symbol
    of degree and azimuthal degree at most 15."""
    return sphere.build_grid(*_exact_grid(k, 15, 15))


def build_space(k, grid=None):
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"level k must be a positive integer, got {k!r}")
    if grid is None:
        grid = default_grid(k)
    # the grid is ring-major, so each ring's phi = 0 node stands for it
    n_phi = grid.n_phi
    radius = np.abs(flow.chart_coords(grid.nodes[::n_phi], np.zeros(grid.n_theta, dtype=int)))
    weights = grid.weights[::n_phi]
    m = np.arange(k + 1)
    log_rings = (
        m[None, :] * np.log(radius)[:, None]
        - 0.5 * k * np.log1p(radius**2)[:, None]
        - 0.5 * _log_norms(k)[None, :]
        + 0.5 * np.log(weights)[:, None]
    )
    return QuantumSpace(k=k, grid=grid, rings=np.exp(log_rings), radii=radius)


def toeplitz(space, h):
    """Toeplitz operator: compress multiplication by the values of the
    closed-form Hamiltonian h at t = 0, on a grid exact for h (:func:`_certified_band`)."""
    _certified_band(space, h)
    return space.compress(h.value(space.grid.nodes, 0.0))


def kostant_souriau(space, values):
    """Kostant-Souriau operator of the symbol g with the given node values.

    K(g) = T(g - Delta g / k) on the round sphere (Tuynman, J. Math. Phys.
    28, 1987), and Green's identity moves Delta onto the basis products:
    with u = |z|^2 in the north chart and C = ``space.compress``,
    K_mn = (m+n+2 - 2mn/k) C[g] - (mn/k) C[g/u] - ((k-m)(k-n)/k) C[g u].
    Each pole's factor meets only products bounded there, so no large terms
    cancel, and u is constant on each ring, so the three C share one FFT.
    Complex ``values`` raise ``ValueError``: a symbol is real.
    """
    if np.iscomplexobj(values):
        raise ValueError("node values of a Kostant-Souriau symbol must be real")
    u = space.radii**2
    pairs, kappa, index = space._ring_pairs
    # (re, im) interleaved, so the ring sums are real matrix products
    modes = space._modes(values).view(float)
    stack = (pairs, pairs / u, pairs * u)
    c, c_u, cu = (kappa * np.take((p @ modes).view(complex), index) for p in stack)
    k, m = space.k, np.arange(space.dim)[:, None]
    mn, rest = m * m.T / k, (k - m) * (k - m.T) / k
    return (m + m.T + 2.0 - 2.0 * mn) * c - mn * c_u - rest * cu


def trace_residual(space, h):
    """Residual of the two-term trace expansion of the Kostant-Souriau
    operator:

        tr K_k(f) - (k / 2 pi) I(f) - (1 / 4 pi) I(f S)

    with I the symplectic integral and S = 2 the scalar curvature of the
    round structure.
    """
    values = h.value(space.grid.nodes, 0.0)
    tr = np.trace(kostant_souriau(space, values)).real
    i_f = sphere.integrate_values(space.grid, values)
    i_fs = sphere.integrate_values(space.grid, values * 2.0)
    return tr - space.k / (2.0 * np.pi) * i_f - i_fs / (4.0 * np.pi)
