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
1994): the azimuthal modes of the symbol (:func:`azimuthal_modes`, one FFT
along phi, k-independent, so samples shared by the levels of a sweep take
theirs once), then a sum over rings, with the same aliasing as the node
sum.  Entry (m, n) reads the ring products of s = m + n and the mode
j = (m - n) mod n_phi, which share a parity when n_phi is even, so each
level caches an assembly plan (:class:`_AssemblyPlan`) that sums each parity
of s against the modes of that parity alone, in one real product.  The
(nodes x (k+1)) node basis is built only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import flow, sphere
from .hamiltonians import _is_count

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
    def _plan(self):
        """The level's :class:`_AssemblyPlan`, built on first use."""
        return _AssemblyPlan.build(self)

    def _assemble(self, modes, ks):
        """The compression (``ks`` False) or the Kostant-Souriau operator (``ks``
        True) of the symbol whose :func:`azimuthal_modes` are ``modes``, through
        the level's :class:`_AssemblyPlan`.

        Entry (m, n) of stack q sums rings[i, m] rings[i, n] v_q[i]
        modes[i, (m - n) mod n_phi] over the rings, with v = (1, 1/u, u) and
        u = |z|^2; the compression reads the first stack, Kostant-Souriau all
        three.  One real product per parity writes the ring sums into the
        plan's buffer, one gather reads every entry (m, n) from it, and the
        entries take kappa and, for Kostant-Souriau, the coefficient sum of
        :func:`kostant_souriau_modes`.
        """
        plan = self._plan
        stacks = 3 if ks else 1
        for rows, cols, block in zip(plan.rows, modes, plan.blocks):
            n = stacks * len(rows) // 3
            np.matmul(rows[:n], cols, out=block[:n])
        # every index is in range; "clip" lets take write into out unbuffered
        sums = np.take(plan.products, plan.index[:stacks], out=plan.sums[:stacks], mode="clip")
        np.multiply(plan.kappa, sums, out=sums)
        if not ks:
            return sums[0].copy()
        c, c_u, cu = sums
        out = plan.coef * c
        out -= np.multiply(plan.mn, c_u, out=c_u)
        out -= np.multiply(plan.rest, cu, out=cu)
        return out

    def compress(self, g):
        """Matrix [sum_nodes w conj(s_m) g s_n]_{mn} of node values g.

        One FFT along phi (:func:`azimuthal_modes`) gives the azimuthal modes
        of g; entry (m, n) sums rings[i, m] rings[i, n] modes[i, (m - n) mod
        n_phi] over the rings, the first stack of :meth:`_assemble`.
        """
        return self._assemble(azimuthal_modes(self.grid, g), ks=False)


@dataclass(frozen=True, eq=False)
class _AssemblyPlan:
    """What :meth:`QuantumSpace._assemble` reads at one level, built once.

    rings[i, m] rings[i, n] = kappa[m, n] * pairs[s, i] with s = m + n,
    pairs[s, i] = rings[i, s//2] rings[i, s - s//2] and the ring-independent
    kappa = sqrt(N_{s//2} N_{s-s//2} / (N_m N_n)), which is at most 1 because
    log N_m is convex in m.  Entry (m, n) reads row s of the stacked products
    [pairs; pairs / u; pairs * u] and mode column j = (m - n) mod n_phi; s and
    m - n share a parity, and so does j when n_phi is even.  So for each
    parity p, ``rows[p]`` holds the rows s = p (mod 2) of the three stacks,
    stack after stack, and their product with the parity-p mode columns of
    :func:`azimuthal_modes` lands in ``blocks[p]``, a view of the one buffer
    ``products``.  ``index[q, m, n]`` is the position in ``products`` of
    entry (m, n) of stack q, gathered into ``sums``; ``coef``, ``mn`` and
    ``rest`` are the Green's-identity coefficients of
    :func:`kostant_souriau_modes`.  The two buffers are scratch that every
    assembly at the level overwrites, so one space serves one thread.
    """

    rows: tuple  # per parity p: (3 R_p, n_theta) real, R_0 = k + 1 and R_1 = k
    products: np.ndarray  # complex buffer of both parities' ring sums
    blocks: tuple  # per parity p: (3 R_p, 2 C_p) real view of products
    index: np.ndarray  # (3, k + 1, k + 1) int
    sums: np.ndarray  # (3, k + 1, k + 1) complex buffer
    kappa: np.ndarray  # (k + 1, k + 1)
    coef: np.ndarray  # (k + 1, k + 1): m + n + 2 - 2mn/k
    mn: np.ndarray  # (k + 1, k + 1): mn/k
    rest: np.ndarray  # (k + 1, k + 1): (k - m)(k - n)/k

    @classmethod
    def build(cls, space):
        k, n_phi = space.k, space.grid.n_phi
        s = np.arange(2 * k + 1)
        pairs = space.rings[:, s // 2].T * space.rings[:, s - s // 2].T
        u = space.radii**2
        stacks = (pairs, pairs / u, pairs * u)
        rows = tuple(np.concatenate([p[parity::2] for p in stacks]) for parity in (0, 1))
        # mode columns per parity: half of them when n_phi is even, else all
        width = n_phi // 2 if n_phi % 2 == 0 else n_phi
        n_rows = (k + 1, k)
        starts = (0, 3 * n_rows[0] * width)
        products = np.empty(starts[1] + 3 * n_rows[1] * width, dtype=complex)
        blocks = tuple(
            products[start : start + 3 * n * width].view(float).reshape(3 * n, 2 * width)
            for start, n in zip(starts, n_rows)
        )
        m = np.arange(k + 1)
        total = m[:, None] + m[None, :]
        j = (m[:, None] - m[None, :]) % n_phi
        parity = total % 2
        start = np.choose(parity, starts) + (total // 2) * width + (j // 2 if width < n_phi else j)
        index = start + np.arange(3)[:, None, None] * np.choose(parity, n_rows) * width
        log_n = _log_norms(k)
        kappa = np.exp(
            0.5 * (log_n[total // 2] + log_n[total - total // 2])
            - 0.5 * (log_n[:, None] + log_n[None, :])
        )
        mc = m[:, None]
        mn, rest = mc * mc.T / k, (k - mc) * (k - mc.T) / k
        return cls(
            rows=rows,
            products=products,
            blocks=blocks,
            index=index,
            sums=np.empty(index.shape, dtype=complex),
            kappa=kappa,
            coef=mc + mc.T + 2.0 - 2.0 * mn,
            mn=mn,
            rest=rest,
        )


def azimuthal_modes(grid, values):
    """Azimuthal modes of node values on ``grid``, one sample (grid.size,) or a
    stack (..., grid.size): one FFT along phi for all of them.  Returns the
    two real blocks (..., n_theta, 2 C) that :meth:`QuantumSpace._assemble`
    reads, (re, im) interleaved: for parity p the columns j = p (mod 2) when
    n_phi is even (C = n_phi / 2), every column when it is odd (C = n_phi).
    Every assembly from node values passes here, so non-finite values raise
    ``ValueError`` here, before they reach an operator."""
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ValueError("node values must be finite")
    shape = values.shape[:-1] + (grid.n_theta, grid.n_phi)
    modes = np.fft.fft(np.reshape(values, shape), axis=-1)
    if grid.n_phi % 2:
        return (modes.view(float),) * 2
    return tuple(np.ascontiguousarray(modes[..., p::2]).view(float) for p in (0, 1))


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
    if not _is_count(k):
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
    28, 1987); :func:`kostant_souriau_modes` assembles it from the
    :func:`azimuthal_modes` of g.  Complex ``values`` raise ``ValueError``:
    a symbol is real.
    """
    if np.iscomplexobj(values):
        raise ValueError("node values of a Kostant-Souriau symbol must be real")
    return kostant_souriau_modes(space, azimuthal_modes(space.grid, values))


def kostant_souriau_modes(space, modes):
    """Kostant-Souriau operator of the real symbol g whose :func:`azimuthal_modes`
    are ``modes``.

    Green's identity moves Delta onto the basis products: with u = |z|^2 in
    the north chart and C the compression of :meth:`QuantumSpace.compress`,
    K_mn = (m+n+2 - 2mn/k) C[g] - (mn/k) C[g/u] - ((k-m)(k-n)/k) C[g u].
    Each pole's factor meets only products bounded there, so no large terms
    cancel, and u is constant on each ring, so the three C are the three
    stacks of one :meth:`QuantumSpace._assemble`.
    """
    return space._assemble(modes, ks=True)
