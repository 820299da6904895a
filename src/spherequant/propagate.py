"""Schrodinger propagation of quantized Hamiltonians with a phase lift.

The propagator solves d/dt u = -i k A(t) u with A(t) the quantized
generator (Toeplitz or Kostant-Souriau).  Steps use the exponential
midpoint rule through a Hermitian eigendecomposition, so every partial
product is exactly unitary, and the determinant of each step factor is
exp(-i k dt tr A), which accumulates the lifted phase without any angle
unwrapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow, hamiltonians, quantize
from .unitary_metric import Unitary, UnitaryWithPhase


class HolomorphyError(RuntimeError):
    pass


@dataclass(frozen=True)
class PropagationResult:
    unitary: np.ndarray
    phase: float
    k: int
    steps: int

    def with_phase(self) -> UnitaryWithPhase:
        """Universal-cover element; validates the lift on construction."""
        return UnitaryWithPhase(Unitary(self.unitary), self.phase)


def _expi(a, scale):
    """exp(1j * scale * a) for Hermitian a, exactly unitary."""
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(1j * scale * vals)[None, :]) @ vecs.conj().T


# Gauss points of the fourth-order Magnus scheme
_GAUSS_LO = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + np.sqrt(3.0) / 6.0


def _magnus_effective(a1, a2, k, dt, sign):
    """Effective Hermitian generator of one fourth-order Magnus step for
    d/dt u = sign * i k A(t) u; the commutator correction is traceless, so
    the determinant lift of the step is exp(sign i k dt tr A)."""
    comm = a1 @ a2 - a2 @ a1
    return 0.5 * (a1 + a2) - sign * 1j * (np.sqrt(3.0) * k * dt / 12.0) * comm


def propagate_generic(space, generator_fn, steps, t_final=1.0):
    """Fourth-order Magnus propagation of d/dt u = -i k A(t) u.

    A generator marked ``autonomous`` (see :func:`_separable_generator`)
    is constant in time, so both Gauss points see the same matrix, the
    commutator vanishes and the steps multiply to exp(-i k t_final A):
    one eigendecomposition replaces the loop.
    """
    k = space.k
    if getattr(generator_fn, "autonomous", False):
        a = generator_fn(0.0)
        return PropagationResult(
            unitary=_expi(a, -k * t_final),
            phase=-k * t_final * np.trace(a).real,
            k=k,
            steps=steps,
        )
    dt = t_final / steps
    u = np.eye(space.dim, dtype=complex)
    phase = 0.0
    for n in range(steps):
        a1 = generator_fn((n + _GAUSS_LO) * dt)
        a2 = generator_fn((n + _GAUSS_HI) * dt)
        h_eff = _magnus_effective(a1, a2, k, dt, -1.0)
        u = _expi(h_eff, -k * dt) @ u
        phase -= k * dt * np.trace(h_eff).real
    return PropagationResult(unitary=u, phase=phase, k=k, steps=steps)


def _hamiltonian_of(path):
    return getattr(path, "hamiltonian", path)


def _separable_generator(space, h, builder):
    terms = [(fn, builder(space, poly)) for fn, poly in h.separable_terms()]

    def generator(t):
        a = np.zeros((space.dim, space.dim), dtype=complex)
        for fn, mat in terms:
            a += (1.0 if fn is None else fn(t)) * mat
        return a

    generator.autonomous = hamiltonians.is_autonomous(h)
    return generator


def toeplitz_generator(space, path):
    h = _hamiltonian_of(path)
    if hasattr(h, "separable_terms"):
        return _separable_generator(
            space, h, lambda sp, poly: quantize.toeplitz(sp, poly)
        )
    return lambda t: quantize.toeplitz(space, h.value(space.grid.nodes, t))


def ks_generator(space, path):
    h = _hamiltonian_of(path)
    if hasattr(h, "separable_terms"):
        return _separable_generator(
            space, h, lambda sp, poly: quantize.kostant_souriau(sp, poly)
        )
    if hasattr(h, "chart_symbol"):
        return lambda t: quantize.kostant_souriau_from_chart(
            space, *h.chart_symbol(space.grid.nodes, t)
        )
    return lambda t: quantize.kostant_souriau(space, h, t)


def propagate_toeplitz(space, path, steps, t_final=1.0):
    return propagate_generic(space, toeplitz_generator(space, path), steps, t_final)


def propagate_ks(space, path, steps, t_final=1.0):
    return propagate_generic(space, ks_generator(space, path), steps, t_final)


def xi_path(space, path, steps, t_final=1.0):
    """Propagator via the inverse-path equation.

    Integrates x = u^{-1} through d/dt x = i k B(t) x with B the
    Kostant-Souriau operator of the pulled-back symbol H_t o phi_t, then
    returns u = x* with the negated phase lift.  The pulled-back symbol is
    sampled with the forward flow: values at phi_t(node) and vector field
    mapped back by the forward tangent map.
    """
    h = _hamiltonian_of(path)
    k = space.k
    dt = t_final / steps
    nodes = space.grid.nodes

    def pulled_back_generator(y, m, t):
        values = h.value(y, t)
        xh = flow.hamiltonian_vector_field(h, y, t)
        pulled = np.linalg.solve(m, xh[..., None])[..., 0]
        a = flow.chart_one_form(pulled, nodes)
        return quantize.kostant_souriau_from_chart(space, values, a)

    y = nodes.copy()
    m = np.broadcast_to(np.eye(3), nodes.shape[:-1] + (3, 3)).copy()
    x = np.eye(space.dim, dtype=complex)
    phase = 0.0
    for n in range(steps):
        t0 = n * dt
        y, m = flow.advance_state(h, y, m, t0, t0 + _GAUSS_LO * dt)
        b1 = pulled_back_generator(y, m, t0 + _GAUSS_LO * dt)
        y, m = flow.advance_state(h, y, m, t0 + _GAUSS_LO * dt, t0 + _GAUSS_HI * dt)
        b2 = pulled_back_generator(y, m, t0 + _GAUSS_HI * dt)
        y, m = flow.advance_state(h, y, m, t0 + _GAUSS_HI * dt, t0 + dt)
        h_eff = _magnus_effective(b1, b2, k, dt, 1.0)
        x = _expi(h_eff, k * dt) @ x
        phase += k * dt * np.trace(h_eff).real
    return PropagationResult(
        unitary=x.conj().T, phase=-phase, k=k, steps=steps
    )


def pushforward_unitary(space, path, steps, t_final=1.0, structure_tol=1e-6):
    """Quantized flow of a Hamiltonian whose flow preserves the round
    structure; raises :class:`HolomorphyError` otherwise."""
    h = _hamiltonian_of(path)
    probe = flow.PushforwardStructure(flow.RoundStructure(), h, t_final)
    from . import sphere

    grid = sphere.build_grid(6, 12)
    mats = probe.evaluate(grid.nodes)
    defect = np.max(np.abs(mats - flow.J_STANDARD))
    if defect > structure_tol:
        raise HolomorphyError(
            "flow does not preserve the round complex structure "
            f"(defect {defect:.2e})"
        )
    return propagate_ks(space, path, steps, t_final)
