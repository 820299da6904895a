"""Schrodinger propagation of quantized Hamiltonians with a phase lift.

The propagator solves d/dt u = -i k A(t) u with A(t) the quantized
generator (Toeplitz or Kostant-Souriau).  Steps are those of the
fourth-order Magnus scheme of :func:`_magnus`, exponentiated through a
Hermitian eigendecomposition, so every partial product is exactly
unitary, and the determinant of each step factor is exp(-i k dt tr A),
which accumulates the lifted phase without any angle unwrapping.

A path reaches :func:`_magnus`, the one driver, as data: :class:`ChartSamples`,
a symbol's rows in Gauss-time order, or the separable groups (c_i, A_i) of a
polynomial path A(t) = sum_i c_i(t) A_i; a static path takes one step of
length 1, and static groups their matrices as they are.  Every step generator
of time-dependent groups is a combination of the A_i and their commutators,
formed once per propagation, and exponentiated by the band the powers certify:
elementwise when diagonal (functions of the height x3), by a real symmetric
tridiagonal solver when tridiagonal (the rotations x1, x2 with functions of
x3), else, like every sampled step, in the dense loop :func:`_dense_steps`.

Quantization takes the half turn z -> 1/z about x1 to the reversal J of the
basis, and the half turn about x2 to diag((-1)^m) J.  An operator that commutes
with one of them splits, in a fixed frame, into two half-size blocks on the
parity rows (Cantoni & Butler, 1976), and so does every Magnus step built from
such operators.  Two routes use this, each certified from the powers alone:
when every group is even in x3, the tridiagonal steps, framed once, split in
two and each block's steps are multiplied on their own; when the samples of a
product path carry a half-turn ``axis`` (:func:`product_samples`), every row
operator is folded onto the two blocks (:func:`_fold_pairs`), and both blocks'
steps run through :func:`_dense_steps` at half size, side by side.  Either way
the two products are unfolded once to the N x N propagator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import flow, quantize, sphere
from .unitary_metric import Unitary, UnitaryWithPhase


# largest non-affine L2 remainder of a static Hamiltonian term that still
# counts as holomorphic in :func:`check_holomorphic`
HOLOMORPHY_TOL = 1e-6


class HolomorphyError(ValueError):
    """Raised when a path required to be holomorphic is not."""


@dataclass(frozen=True, eq=False)
class ChartSamples:
    """The k-independent stage of a time-dependent Kostant-Souriau propagation:
    a symbol's node values on ``grid``, row i at the i-th of the
    :func:`_gauss_times`, which :func:`quantize.kostant_souriau_modes` assembles.
    A symbol constant in time is one row, serving every step count.

    The samples depend on the grid and the steps but not on the level k,
    so one set, sampled once per sweep, stands in for its symbol at every
    level built on ``grid``: :func:`propagate_ks` takes the
    :func:`product_samples` of a product path and :func:`xi_path` the
    :func:`pull_back` of a path in place of the Hamiltonian.  Their
    azimuthal modes are k-independent too: the first level that needs them
    takes those of every row in one :func:`quantize.azimuthal_modes`,
    with one finiteness check, and every later level reads them.
    ``flow_area_drift`` is the largest change in a sample's Liouville integral
    that the samples' flow made, as :func:`_flow_samples` reads it: 0.0 on the
    closed-form and identity routes, whose flows preserve the measure exactly.
    ``axis`` is the axis, "x1" or "x2", of a half turn that every row is
    invariant under, as :func:`_half_turn_axis` certifies it from the powers of
    the symbol's terms, or None; :func:`_magnus` propagates certified samples in
    two parity blocks.
    """

    grid: sphere.SphereGrid
    values: np.ndarray  # (2 steps or 1, grid.size) real node values
    flow_area_drift: float
    axis: str | None = None

    @cached_property
    def _modes(self):
        """Row i -> the :func:`quantize.azimuthal_modes` of row i, from one FFT of every row."""
        return list(zip(*quantize.azimuthal_modes(self.grid, self.values)))

    def operator(self, space, i):
        """Kostant-Souriau operator on ``space`` of row i."""
        if space.grid != self.grid:
            raise ValueError("chart samples serve only the nodes of their own grid")
        return quantize.kostant_souriau_modes(space, self._modes[i])


@dataclass(frozen=True)
class PropagationResult:
    unitary: np.ndarray
    phase: float

    def with_phase(self) -> UnitaryWithPhase:
        """Universal-cover element; validates the lift on construction."""
        return UnitaryWithPhase(Unitary(self.unitary), self.phase)


@dataclass(frozen=True)
class ParityPropagationResult(PropagationResult):
    """The propagator of samples that carry a half-turn ``axis``, built in two parity
    blocks, with ``parity_drop``: the largest relative Frobenius norm of the part that
    :func:`_fold_pairs` dropped from a row operator."""

    parity_drop: float


def _result(u, phase, drop):
    """The :class:`PropagationResult` of :func:`_magnus`' output, a
    :class:`ParityPropagationResult` when a parity fold ran."""
    if drop is None:
        return PropagationResult(unitary=u, phase=phase)
    return ParityPropagationResult(unitary=u, phase=phase, parity_drop=drop)


def _expi(a, scale):
    """exp(1j * scale * a) for Hermitian a, or for each of a stack of them, exactly
    unitary."""
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(1j * scale * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _expi_tridiagonal(d, e, scale, v):
    """exp(1j * scale * T) @ v for the real symmetric tridiagonal T with
    diagonal d and off-diagonal e, written into v; exp(1j * scale * T) itself,
    a new array, when v is None.

    T = Q diag(lam) Q^T is found by scipy's default symmetric tridiagonal
    driver (divide and conquer, ``?stevd``, where scipy offers it; MRRR,
    ``?stemr``, before).  The product runs as two real matrix products on the
    (re, im) interleaved rows of v, or as one, Q (exp(i scale lam) Q^T), from
    the identity.  :func:`_expi_steps` checks d and e finite.
    """
    vals, q = scipy.linalg.eigh_tridiagonal(d, e, check_finite=False)
    phases = np.exp(1j * scale * vals)[:, None]
    if v is None:
        return (q @ (phases * q.T).view(float)).view(complex)
    x = (q.T @ v.view(float)).view(complex)
    x *= phases
    np.matmul(q, x.view(float), out=v.view(float))
    return v


def _gauge(angles):
    """The diagonals D_n, the rows of the result, with D_{n,0} = 1 and D_{n,j+1} =
    D_{n,j} exp(-i angles[n, j]): D_n* H_n D_n has superdiagonal |e_n| for every
    Hermitian tridiagonal H_n whose superdiagonal e_n has the phases angles[n]."""
    zero = np.zeros((len(angles), 1))
    return np.exp(-1j * np.concatenate((zero, np.cumsum(angles, axis=1)), axis=1))


def _tridiagonal_product(d, e, scale):
    """exp(i scale H_last) ... exp(i scale H_0) for the Hermitian tridiagonal steps
    H_n with real diagonals d[n] and superdiagonals e[n].

    H_n = D_n T_n D_n* for the real symmetric tridiagonal T_n with off-diagonal
    |e[n]| and the :func:`_gauge` D_n of e[n].  The state x starts as exp(i scale
    T_0), made from the identity by :func:`_expi_tridiagonal`; every later step
    turns it by the diagonal D_n* D_{n-1} and takes one :func:`_expi_tridiagonal`,
    and the product is D_last x D_0*.
    """
    gauge = _gauge(np.angle(e))
    e = np.abs(e)
    x = _expi_tridiagonal(d[0], e[0], scale, None)
    for dn, en, turn in zip(d[1:], e[1:], gauge[1:].conj() * gauge[:-1]):
        x *= turn[:, None]
        _expi_tridiagonal(dn, en, scale, x)
    return gauge[-1][:, None] * x * gauge[0].conj()


def _parity_blocks(d, e):
    """The two Hermitian tridiagonal blocks, (diagonals, superdiagonals) of sizes
    ceil(N/2) and floor(N/2) for every step, of the J-symmetric Hermitian
    tridiagonal steps (J: u_j -> u_{N-1-j}) with real diagonals d (steps, N) and
    superdiagonals e (steps, N - 1), on the parity rows (u_j +- u_{N-1-j}) / sqrt(2),
    j < N // 2, and, for odd N, the middle row u_{N//2}, which joins the
    symmetric block.

    J-symmetry pairs entry j of d with N - 1 - j, and e_j with conj(e_{N-2-j});
    the blocks are built from the J-symmetric parts.  For even N the centre
    coupling, real, adds to the last diagonal entry of the symmetric block and
    subtracts from the antisymmetric one; for odd N it couples the middle row
    to the symmetric block as sqrt(2) e_{N//2-1} (Cantoni & Butler, Linear
    Algebra Appl. 13, 1976).
    """
    n = d.shape[1]
    h = n // 2
    d = 0.5 * (d[:, : n - h] + d[:, ::-1][:, : n - h])
    e = 0.5 * (e[:, :h] + e[:, ::-1][:, :h].conj())
    if n % 2:
        anti = (d[:, :h], e[:, : h - 1])
        e[:, -1] *= np.sqrt(2.0)
        return [(d, e), anti]
    sym = d.copy()
    sym[:, -1] += e[:, -1].real
    d[:, -1] -= e[:, -1].real
    return [(sym, e[:, : h - 1]), (d, e[:, : h - 1])]


# Gauss points of the fourth-order Magnus scheme
_GAUSS_LO = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + np.sqrt(3.0) / 6.0


def _gauss_times(steps):
    """The Gauss times of ``steps`` equal Magnus steps on [0, 1], in order, those of
    step n at 2n and 2n + 1: the times of the rows of :class:`ChartSamples`."""
    flow._check_steps(steps)
    dt = 1.0 / steps
    return [(n + g) * dt for n in range(steps) for g in (_GAUSS_LO, _GAUSS_HI)]


def _magnus_effective(a1, a2, k, dt, sign):
    """Effective Hermitian generator of one fourth-order Magnus step for
    d/dt u = sign * i k A(t) u; the commutator correction is traceless, so
    the determinant lift of the step is exp(sign i k dt tr A)."""
    comm = a1 @ a2 - a2 @ a1
    return 0.5 * (a1 + a2) - sign * 1j * (np.sqrt(3.0) * k * dt / 12.0) * comm


def _step_band(degrees):
    """Band of the Magnus step generators of a separable path whose groups
    have azimuthal degrees ``degrees``: a group of degree b vanishes off the
    diagonals |m - n| <= b, and the commutator of two groups off
    |m - n| <= b_i + b_j."""
    return max(degrees + [a + b for a, b in itertools.combinations(degrees, 2)])


def _separable_steps(groups, gauss, k, dt, sign):
    """Every Magnus step generator of a separable A(t) = sum_i c_i(t) A_i
    as one linear combination: step n's generator is coef[n] @ mats.

    [A(t1), A(t2)] = sum_{i<j} (c_i(t1) c_j(t2) - c_j(t1) c_i(t2)) [A_i, A_j],
    so with the commutators formed once, :func:`_magnus_effective` becomes
    sum_i (c_i(t1) + c_i(t2)) / 2 A_i - sign i (sqrt(3) k dt / 12) times
    that sum.  Returns (coef, mats); raises ``ValueError`` naming the group
    whose time function is not a finite real number at a Gauss time.
    """
    fns, mats, *_ = zip(*groups)
    # c[n, s, i] = c_i at Gauss time s of step n
    c = np.array([[1.0 if fn is None else fn(t) for fn in fns] for t in gauss])
    bad = ~np.isfinite(c) | (c.imag != 0)
    if bad.any():
        r, i = np.argwhere(bad)[0]
        raise ValueError(f"the time function of group {i} is {c[r, i]} at t = {gauss[r]}")
    c = c.reshape(-1, 2, len(fns))
    i, j = np.array([*itertools.combinations(range(len(mats)), 2)], dtype=int).reshape(-1, 2).T
    # outer[n, i, j] = c_i(t1) c_j(t2), so the cross terms are its antisymmetric part
    outer = c[:, 0, :, None] * c[:, 1, None, :]
    cross = (outer - outer.transpose(0, 2, 1))[:, i, j]
    coef = np.concatenate(
        [0.5 * c.sum(axis=1), -sign * 1j * (np.sqrt(3.0) * k * dt / 12.0) * cross], axis=1
    )
    commutators = [mats[a] @ mats[b] - mats[b] @ mats[a] for a, b in zip(i, j)]
    return coef, np.array(mats + tuple(commutators))


def _dense_steps(generators, scale):
    """exp(i scale G_last) ... exp(i scale G_0) and scale * sum_n tr G_n for the Hermitian
    step generators G_n, in order, each exponentiated by the dense :func:`_expi`; u
    starts from the first step's exponential.  A stack of blocks, such as the two parity
    blocks of :func:`_fold_pairs`, is one block-diagonal G_n: each block takes its own
    product, and tr G_n sums their traces."""
    u, phase = None, 0.0
    for g in generators:
        step = _expi(g, scale)
        u = step if u is None else step @ u
        phase += scale * g.diagonal(0, -2, -1).sum().real
    return u, phase


def _sample_rows(space, samples, steps):
    """The Kostant-Souriau operators of the rows of :class:`ChartSamples`, one at a time;
    ``ValueError`` unless the rows are one or two a step."""
    rows = len(samples.values)
    if rows not in (1, 2 * steps):
        raise ValueError(
            f"chart samples taken for {rows / 2:g} Magnus steps cannot serve other Magnus steps"
        )
    return (samples.operator(space, i) for i in range(rows))


def _row_steps(rows, k, dt, sign):
    """The Magnus step generators of row operators in Gauss-time order, two rows a step:
    each :func:`_magnus_effective` of rows 2n and 2n + 1, which keeps a stack of blocks
    a stack."""
    # zip draws from the one iterator twice
    rows = iter(rows)
    return (_magnus_effective(a1, a2, k, dt, sign) for a1, a2 in zip(rows, rows))


def _expi_steps(coef, mats, band, scale, even=False):
    """exp(i scale G_last) ... exp(i scale G_0) and scale * sum_n tr G_n for the Hermitian
    step generators G_n = coef[n] @ mats, which vanish off |m - n| <= band.  Band 0 is
    diagonal, so commuting: the elementwise exponential of the summed diagonals.  Both
    band routes first check every step's diagonals finite, once (``ValueError``); wider
    bands take :func:`_dense_steps`.

    Band 1 takes one :func:`_tridiagonal_product` of the steps.  When ``even`` certifies
    every group even in x3 (:func:`_groups`), the path has one band-1 group A, and the
    superdiagonal of G_n is e_{n,j} = A_j c_{n,j} with A_j palindromic and c_{n,N-2-j} =
    conj(c_{n,j}).  One diagonal frame W, the :func:`_gauge` of the halved phases of
    sum_n e_{n,j} e_{n,N-2-j} = A_j^2 sum_n |c_{n,j}|^2, takes every e_{n,j} to one sign
    of |A_j| c_{n,j}, the same at j and N - 2 - j, so every W* G_n W is J-symmetric (J:
    u_j -> u_{N-1-j}), also where the first steps' superdiagonals vanish.  Their two
    :func:`_parity_blocks` take one product each, S and A, and u = W P^T diag(S, A) P W*
    is unfolded once, by :func:`_unfold_pairs`.
    """
    if band >= 2:
        return _dense_steps((np.tensordot(c, mats, 1) for c in coef), scale)
    diag = (coef @ np.diagonal(mats, axis1=1, axis2=2)).real
    phase = scale * float(np.sum(diag))
    off = coef @ np.diagonal(mats, 1, axis1=1, axis2=2)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ValueError(f"the band-{band} step generators are not finite")
    if band == 0:
        return np.diag(np.exp(1j * scale * diag.sum(axis=0))), phase
    if not even:
        return _tridiagonal_product(diag, off, scale), phase
    half = 0.5 * np.angle((off * off[:, ::-1]).sum(axis=0, keepdims=True))
    blocks = _parity_blocks(diag, off * np.exp(-1j * half))
    u = _unfold_pairs(*(_tridiagonal_product(d, e, scale) for d, e in blocks))
    return _frame_pairs(u, _gauge(half)[0]), phase


def _unfold_pairs(s, a):
    """P^T diag(s, a) P for the parity rows P of :func:`_parity_blocks`, times sqrt(2)
    on every pair row and column: s on (u_j + u_{N-1-j}) / sqrt(2), j < N // 2, then
    u_{N//2} for odd N, and a on (u_j - u_{N-1-j}) / sqrt(2).  The two blocks share no
    row, so each entry is one entry of s, or one of s plus or minus one of a, and the
    result commutes with J: its last N // 2 rows are its first, reversed both ways."""
    h, lo = len(a), len(s)
    u = np.empty((h + lo, h + lo), dtype=complex)
    u[:lo, :lo] = s
    u[:lo, lo:] = s[:, :h][:, ::-1]
    u[:h, :h] += a
    u[:h, lo:] -= a[:, ::-1]
    u[lo:] = u[:h][::-1, ::-1]
    return u


def _frame_pairs(u, frame):
    """F u F* for the :func:`_unfold_pairs` u of two blocks, with F = diag(frame), or
    the identity when ``frame`` is None, times the 1 / sqrt(2) of every pair row and
    column that u leaves out: P^T diag(s, a) P, framed back."""
    n = len(u)
    norm = np.full(n, 0.5**0.5)
    norm[n // 2 : n - n // 2] = 1.0
    frame = norm if frame is None else frame * norm
    return frame[:, None] * u * frame.conj()


# i^m for m = 0, 1, 2, 3: the quarter-turn frame, exact
_QUARTER_TURN = np.array([1.0, 1j, -1.0, -1j])


def _half_turn_axis(*hs):
    """The axis, "x1" or "x2", of a half turn that every term of the polynomials hs is
    invariant under, read from the powers: (x1, x2, x3) -> (x1, -x2, -x3) keeps a term
    with p2 + p3 even, and (x1, x2, x3) -> (-x1, x2, -x3) one with p1 + p3 even; x1 when
    both do, None when neither does.  Never tested numerically."""
    powers = [term.powers for h in hs for term in getattr(h, "terms", [h])]
    for axis, (i, j) in (("x1", (1, 2)), ("x2", (0, 2))):
        if all((p[i] + p[j]) % 2 == 0 for p in powers):
            return axis
    return None


def _half_turn_frame(axis, n):
    """The diagonal of the frame F on n rows, None for the identity, in which every
    operator that commutes with the quantized half turn about ``axis`` commutes with J:
    u_j -> u_{n-1-j}.

    Quantization takes the half turn z -> 1/z about x1 to J, which maps z^m to z^{k-m},
    so F is the identity for x1.  The half turn about x2 is S = diag((-1)^m) J, and the
    quarter turn F = diag(i^m) about x3 takes it to J: F* A F commutes with J when A
    commutes with S."""
    if axis == "x1":
        return None
    return _QUARTER_TURN[np.arange(n) % 4]


def _fold_pairs(b, frame):
    """The two parity blocks of c = F* b F, F = diag(frame) or the identity when ``frame``
    is None, on the rows of :func:`_parity_blocks`, as one (2, ceil(N/2), ceil(N/2))
    stack, and the relative Frobenius norm of the J-antisymmetric part of c that the
    blocks drop: the dense counterpart of :func:`_parity_blocks`, in O(N^2).

    The blocks are those of the J-symmetric part (c + J c J) / 2.  The symmetric one reads
    c_ij + c_{i,N-1-j} of it on the pair rows, and sqrt(2) c_hj and c_hh on the middle row
    h = N // 2 of odd N; the antisymmetric one reads c_ij - c_{i,N-1-j}, and for odd N
    fills the leading N // 2 rows and columns of its slot, the rest zero, so that every
    function of the stack keeps that corner.  The dropped part (c - J c J) / 2 is what
    couples the two blocks; it is rounding when b commutes with the half turn that F
    frames (Cantoni & Butler, Linear Algebra Appl. 13, 1976)."""
    c = b if frame is None else frame.conj()[:, None] * b * frame
    n = len(c)
    h, lo = n // 2, n - n // 2
    flip = c[::-1, ::-1]
    anti = c - flip
    size = np.vdot(c, c).real
    drop = float(0.5 * np.sqrt(np.vdot(anti, anti).real / size)) if size else 0.0
    sym = 0.5 * (c[:lo] + flip[:lo])
    blocks = np.zeros((2, lo, lo), dtype=complex)
    s = np.add(sym[:, :lo], sym[:, ::-1][:, :lo], out=blocks[0])
    if n % 2:
        s[h] *= 0.5**0.5
        s[:, h] *= 0.5**0.5
    np.subtract(sym[:h, :h], sym[:h, ::-1][:, :h], out=blocks[1, :h, :h])
    return blocks, drop


def _folded(ops, frame, drops):
    """The :func:`_fold_pairs` blocks of each operator of ``ops``, one at a time; each
    drop is appended to ``drops``."""
    for op in ops:
        blocks, drop = _fold_pairs(op, frame)
        drops.append(drop)
        yield blocks


def _magnus(space, path, steps, sign):
    """Fourth-order Magnus integration on [0, 1] of d/dt u = sign * i k A(t) u
    from u = I (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009), over
    ``steps`` equal steps: the one driver of every propagation.  Returns u,
    its determinant lift, the sum of sign * k dt tr A over the steps, and the
    ``parity_drop`` of :class:`ParityPropagationResult`, None when no parity fold ran.

    ``path`` is :class:`ChartSamples`, whose step generators :func:`_row_steps`
    forms from the :func:`_sample_rows` and :func:`_dense_steps` exponentiates, or
    the :func:`_groups` of a separable path, whose step generators
    :func:`_separable_steps` forms and :func:`_expi_steps` exponentiates at their
    :func:`_step_band`, exact up to rounding on the exact grids of :func:`_groups`.
    A static path (one-row samples, or groups all static) has a constant A: both
    Gauss points see it and the commutators vanish, so the steps multiply to
    exp(sign i k A), one step of length 1, whose generator is the one row, or the
    groups' matrices with coefficient 1.

    Samples that carry an ``axis`` take every row operator, framed, as its two
    :func:`_fold_pairs` blocks: the steps of both blocks run through
    :func:`_dense_steps` at half size, side by side, the two products are unfolded
    once by :func:`_unfold_pairs` and framed back by :func:`_frame_pairs`, and the
    phase is the sum of both blocks' traces.
    """
    flow._check_steps(steps)
    k = space.k
    samples = isinstance(path, ChartSamples)
    static = len(path.values) == 1 if samples else all(fn is None for fn, *_ in path)
    if static:
        steps = 1
    dt = 1.0 / steps
    scale = sign * k * dt
    if not samples:
        if static:
            coef = np.ones((1, len(path)), dtype=complex)
            mats = np.array([a for _, a, *_ in path])
        else:
            coef, mats = _separable_steps(path, _gauss_times(steps), k, dt, sign)
        band = _step_band([degree for _, _, degree, _ in path])
        return *_expi_steps(coef, mats, band, scale, all(even for *_, even in path)), None

    rows = _sample_rows(space, path, steps)
    drops = []
    if path.axis is not None:
        frame = _half_turn_frame(path.axis, space.dim)
        rows = _folded(rows, frame, drops)
    u, phase = _dense_steps(rows if static else _row_steps(rows, k, dt, sign), scale)
    if path.axis is None:
        return u, phase, None
    h = space.dim // 2
    return _frame_pairs(_unfold_pairs(u[0], u[1, :h, :h]), frame), phase, float(np.max(drops))


def propagate_generic(space, path, steps):
    """Fourth-order Magnus propagation of d/dt u = -i k A(t) u on [0, 1],
    for ``path`` as :func:`_magnus` takes it."""
    return _result(*_magnus(space, path, steps, -1.0))


def _groups(space, h, builder):
    """The path A(t) = sum_i c_i(t) A_i as data: (c_i, A_i, b_i, e_i) over the groups
    c_i(t) poly_i of ``h.separable_terms()``, c_i None when static, A_i = builder(space,
    poly_i) on a grid exact for poly_i, b_i its azimuthal degree: A_i vanishes off
    |m - n| <= b_i, and e_i whether every power of x3 in poly_i is even, read from the
    powers, never tested numerically.  Quantization is equivariant under the half turn
    z -> 1/z about the x1 axis, which maps z^m to z^{k-m}, x2 to -x2 and x3 to -x3, so
    under e_i the diagonal of A_i and the moduli of its first off-diagonal are
    palindromic; :func:`_expi_steps` splits the band-1 steps of a path whose groups all
    have e_i in two.  The empty polynomial is one static group, zero."""
    terms = h.separable_terms() or [(None, h)]
    bands = [quantize._certified_band(space, poly) for _, poly in terms]
    return [
        (fn, builder(space, poly), b, all(term.powers[2] % 2 == 0 for term in poly.terms))
        for (fn, poly), b in zip(terms, bands)
    ]


def propagate_toeplitz(space, h, steps):
    if isinstance(h, ChartSamples):
        raise ValueError("Toeplitz propagation needs a polynomial path")
    return propagate_generic(space, _groups(space, h, quantize.toeplitz), steps)


def propagate_ks(space, h, steps):
    """Kostant-Souriau propagator of a polynomial path h, or of
    :class:`ChartSamples` on ``space.grid``."""
    if not isinstance(h, ChartSamples):
        h = _groups(
            space, h, lambda sp, p: quantize.kostant_souriau(sp, p.value(sp.grid.nodes))
        )
    return propagate_generic(space, h, steps)


def _flow_samples(h, grid, stops, rate, times, value, axis):
    """:class:`ChartSamples` on ``grid`` whose rows are ``value(y, t)`` at the
    sample ``times``, in order, y the nodes flowed by h to the stop t, or by its
    inverse flow at t to the stop -t, along monotone signed ``stops``.  The one route
    choice: a static axial h rotates the nodes in closed form
    (:func:`flow.axial_flow`); forward stops, or an autonomous h, whose
    inverse flow at t is its flow at -t, take one points-only
    :func:`flow.sweep` at ``rate`` steps per unit time; the inverse flow of
    a time-dependent h takes one :func:`flow.transport_backward` per stop.

    A Hamiltonian flow preserves the Liouville measure, so each sample
    integrates as ``value(nodes, t)`` does; ``flow_area_drift`` is the
    largest gap between the two integrals over the sample times, RK4's
    area error on its routes, and 0.0 by that identity on the closed-form
    one.  ``axis`` is the samples' half-turn certificate, which the caller reads."""
    flow._check_rate(rate)
    nodes = grid.nodes
    points = flow.axial_flow(h, nodes, stops)
    rk4 = points is None
    if rk4 and (stops[-1] > 0 or h.autonomous):
        points = (y for y, _ in flow.sweep(h, nodes, stops, rate, jacobians=False))
    elif rk4:
        points = (
            flow.transport_backward(h, nodes, -s, flow.per_time_steps(rate, -s)) for s in stops
        )
    values = np.array([value(y, abs(s)) for s, y in zip(stops, points) if abs(s) in times])
    drift = 0.0
    if rk4:
        gaps = [
            abs(sphere.integrate_values(grid, v) - sphere.integrate_values(grid, value(nodes, t)))
            for t, v in zip(times, values)
        ]
        drift = float(np.max(gaps))
    return ChartSamples(grid, values, drift, axis)


def product_samples(f, g, grid, steps, flow_steps=256):
    """:class:`ChartSamples` on ``grid`` of the values of f_t + g_t o
    alpha_t^{-1}, the generator of the product of the paths of f and g
    (alpha the flow of f), at the Gauss times of :func:`propagate_generic`;
    :func:`_flow_samples` reads alpha_t^{-1} at the stop -t, and its area
    drift from int g_t o alpha_t^{-1} dmu = int g_t dmu.

    A half turn R that keeps every term of f and g is symplectic, so alpha_t
    commutes with it and f_t + g_t o alpha_t^{-1} is R-invariant: ``axis`` is
    :func:`_half_turn_axis` of f and g."""
    times = _gauss_times(steps)
    nodes, stops = grid.nodes, [-t for t in times]
    return _flow_samples(
        f,
        grid,
        stops,
        flow_steps,
        times,
        lambda x, t: f.value(nodes, t) + g.value(x, t),
        _half_turn_axis(f, g),
    )


def pull_back(h, grid, steps):
    """:class:`ChartSamples` of the pulled-back symbol H_t o phi_t at the
    Gauss times of :func:`xi_path`, its node values h(phi_t(node), t).  An
    autonomous h is conserved by its flow, dH(X_H) = omega(X_H, X_H) = 0, so
    these are its own node values, one row with no flow and drift 0.0; a
    time-dependent h flows forward in :func:`_flow_samples` through the Gauss
    times and the ends of every Magnus step but the last, sorted, one RK4 step
    to each, and its area drift reads int H_t o phi_t dmu against int H_t dmu."""
    times = _gauss_times(steps)
    # no half-turn certificate: the parity route would move the bits of every
    # xi_path propagator, whose unitarity rounding perfbench's claims reads
    if h.autonomous:
        return ChartSamples(grid, h.value(grid.nodes)[None, :], 0.0, None)
    stops = sorted(times + [n * (1.0 / steps) for n in range(1, steps)])
    return _flow_samples(h, grid, stops, steps, times, h.value, None)


def xi_path(space, h, steps):
    """Propagator on [0, 1] via the inverse-path equation.

    Integrates x = u^{-1} through d/dt x = i k B(t) x with B the
    Kostant-Souriau operator of the pulled-back symbol H_t o phi_t, then
    returns u = x* with the negated phase lift.  h is the Hamiltonian, or
    its :func:`pull_back` samples on ``space.grid`` for the same steps,
    which the levels of a sweep share.
    """
    if not isinstance(h, ChartSamples):
        h = pull_back(h, space.grid, steps)
    x, phase, drop = _magnus(space, h, steps, 1.0)
    return _result(x.conj().T, -phase, drop)


def check_holomorphic(h):
    """Largest L2 norm of a static term of h off span{1, x1, x2, x3}; raises
    :class:`HolomorphyError` above :data:`HOLOMORPHY_TOL`.

    Area-preserving holomorphic maps of the round sphere are rotations, so
    every phi_t is holomorphic when each static polynomial of
    ``h.separable_terms()`` is affine on the sphere.  That is sufficient,
    not necessary: groups with dependent time functions may cancel.  A
    degree-d term is projected on ``quantize._exact_grid(0, D, D)``, D = max(2d, 2),
    exact for its products with the affine basis and its squared remainder.
    """
    norms = [0.0]
    for _, poly in h.separable_terms():
        degree = max(2 * max(sum(term.powers) for term in poly.terms), 2)
        grid = sphere.build_grid(*quantize._exact_grid(0, degree, degree))
        basis = np.column_stack([np.ones(grid.size), grid.nodes])
        values = poly.value(grid.nodes)
        # the basis is orthogonal, with Liouville norms 2 pi and 2 pi / 3
        coeffs = (grid.weights * values) @ basis * [1, 3, 3, 3] / sphere.TOTAL_VOLUME
        remainder = values - basis @ coeffs
        norms.append(float(np.sqrt(sphere.integrate_values(grid, remainder**2))))
    worst = float(np.max(norms))  # NaN propagates, where max() would drop it
    if not worst <= HOLOMORPHY_TOL:
        raise HolomorphyError(
            "flow does not preserve the round complex structure "
            f"(non-affine remainder {worst:.2e})"
        )
    return worst
