"""Closed-form time-dependent Hamiltonians on the embedded sphere.

Hamiltonians are polynomials in the ambient coordinates (x1, x2, x3) with
time-dependent coefficients; values, gradients and Hessians are exact, so
flow integration and quantization never rely on interpolated symbols.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _is_finite_real(value):
    """Whether a value is a finite real number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


class Monomial:
    """c(t) * x1^p1 * x2^p2 * x3^p3 with a smooth time coefficient."""

    def __init__(self, powers, coefficient=1.0, time_fn=None):
        powers = tuple(powers)
        if len(powers) != 3 or not all(
            isinstance(p, numbers.Integral) and not isinstance(p, bool) and p >= 0
            for p in powers
        ):
            raise ValueError("powers must be three non-negative integers")
        self.powers = tuple(int(p) for p in powers)
        if not _is_finite_real(coefficient):
            raise ValueError(f"coefficient must be a finite real number, got {coefficient!r}")
        self.coefficient = float(coefficient)
        self.time_fn = time_fn

    def _c(self, t):
        if self.time_fn is None:
            return self.coefficient
        value = self.time_fn(t)
        if not _is_finite_real(value):
            raise ValueError(f"the time function is {value!r} at t = {t}, not a finite real")
        return self.coefficient * value

    def _derivative(self, x, axes=()):
        """x1^p1 x2^p2 x3^p3 differentiated along ``axes``, each of which
        multiplies the integer factor by its power and lowers that power by
        one (the caller keeps every power non-negative); no axes give the monomial."""
        powers = list(self.powers)
        factor = 1
        for axis in axes:
            factor *= powers[axis]
            powers[axis] -= 1
        out = np.ones(x.shape[:-1])
        for axis, p in enumerate(powers):
            if p:
                out = out * x[..., axis] ** p
        return out if factor == 1 else factor * out  # 1 * out has the bits of out

    def value(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        return self._c(t) * self._derivative(x)

    def grad(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape)
        for axis, p in enumerate(self.powers):
            if p:
                g[..., axis] = self._derivative(x, (axis,))
        return self._c(t) * g

    def hess(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        h = np.zeros(x.shape[:-1] + (3, 3))
        for i, p in enumerate(self.powers):
            for j, q in enumerate(self.powers):
                if p and (q > 1 if i == j else q):
                    h[..., i, j] = self._derivative(x, (i, j))
        return self._c(t) * h


class Polynomial:
    """Sum of monomials; the generic closed-form Hamiltonian."""

    def __init__(self, terms):
        self.terms = list(terms)

    @property
    def autonomous(self):
        """True when no term carries a time dependence."""
        return all(term.time_fn is None for term in self.terms)

    def _sum(self, derivative, x, t, shape):
        """Sum over the terms of one Monomial method, of entry shape ``shape``."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + shape)
        for term in self.terms:
            out += derivative(term, x, t)
        return out

    def value(self, x, t=0.0):
        return self._sum(Monomial.value, x, t, ())

    def grad(self, x, t=0.0):
        return self._sum(Monomial.grad, x, t, (3,))

    def hess(self, x, t=0.0):
        return self._sum(Monomial.hess, x, t, (3, 3))

    def separable_terms(self):
        """(time_fn, static Polynomial) pairs, for operator precomputation.

        Terms sharing a time dependence are grouped so that quantum
        generators can be assembled as fixed matrices with scalar
        time-dependent coefficients.
        """
        groups = {}
        for term in self.terms:
            key = id(term.time_fn) if term.time_fn is not None else None
            groups.setdefault(key, []).append(term)
        out = []
        for _, terms in groups.items():
            static = Polynomial(
                [Monomial(trm.powers, trm.coefficient) for trm in terms]
            )
            out.append((terms[0].time_fn, static))
        return out


def constant(c):
    return Polynomial([Monomial((0, 0, 0), c)])


def height(scale=1.0):
    return Polynomial([Monomial((0, 0, 1), scale)])


def coordinate(axis, scale=1.0):
    if isinstance(axis, bool) or not isinstance(axis, numbers.Integral) or not 0 <= axis <= 2:
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    powers = [0, 0, 0]
    powers[axis] = 1
    return Polynomial([Monomial(tuple(powers), scale)])


def height_squared(scale=1.0):
    return Polynomial([Monomial((0, 0, 2), scale)])


def tilted_height(c, scale=1.0):
    return Polynomial([Monomial((0, 0, 0), c), Monomial((0, 0, 1), scale)])


def sin_pi_t(t):
    return math.sin(math.pi * t)


def identity_t(t):
    return t


def time_mixed():
    """sin(pi t) x1 + t x3^2, the generic smooth time-dependent preset."""
    return Polynomial(
        [
            Monomial((1, 0, 0), 1.0, time_fn=sin_pi_t),
            Monomial((0, 0, 2), 1.0, time_fn=identity_t),
        ]
    )


PRESETS = {
    "constant": lambda c=1.0: constant(c),
    "height": lambda scale=1.0: height(scale),
    "x1": lambda scale=1.0: coordinate(0, scale),
    "x2": lambda scale=1.0: coordinate(1, scale),
    "tilted-height": lambda c=0.5, scale=1.0: tilted_height(c, scale),
    "height-squared": lambda scale=1.0: height_squared(scale),
    "time-mixed": lambda: time_mixed(),
}


class Reparametrized(Polynomial):
    """Generator of the same path traversed with a new time schedule.

    For a schedule s with s(0) = 0, the path t -> flow_{s(t)} is generated
    by s'(t) H_{s(t)}: each term c(t) m(x) of the polynomial h becomes
    s'(t) c(s(t)) m(x).  Terms that shared a time function share the new
    one, so :meth:`separable_terms` groups them as in h.
    """

    def __init__(self, h, schedule, schedule_rate):
        time_fns = {
            term.time_fn: _rescaled(term.time_fn, schedule, schedule_rate)
            for term in h.terms
        }
        super().__init__(
            Monomial(term.powers, term.coefficient, time_fns[term.time_fn])
            for term in h.terms
        )


def _rescaled(time_fn, schedule, schedule_rate):
    """t -> s'(t) c(s(t)) for the time function c (1 when None)."""
    if time_fn is None:
        return schedule_rate
    return lambda t: schedule_rate(t) * time_fn(schedule(t))


def preset(name, **params):
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
    return factory(**params)
