"""Closed-form time-dependent Hamiltonians on the embedded sphere.

Hamiltonians are polynomials in the ambient coordinates (x1, x2, x3) with
time-dependent coefficients; values, gradients and Hessians are exact, so
flow integration and quantization never rely on interpolated symbols.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

import numpy as np


def _is_finite_real(value):
    """Whether a value is a finite real number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_count(value, least=1):
    """Whether a value is an integer, not a bool, of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


class Monomial:
    """c(t) * x1^p1 * x2^p2 * x3^p3 with a smooth time coefficient."""

    def __init__(self, powers, coefficient=1.0, time_fn=None):
        powers = tuple(powers)
        if len(powers) != 3 or not all(_is_count(p, least=0) for p in powers):
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

    # the public evaluations are those of the one-term polynomial
    def value(self, x, t=0.0):
        return Polynomial([self]).value(x, t)

    def grad(self, x, t=0.0):
        return Polynomial([self]).grad(x, t)

    def hess(self, x, t=0.0):
        return Polynomial([self]).hess(x, t)


@functools.lru_cache(maxsize=None)
def _partials(powers, order):
    """(axes, factor, powers) of every nonzero partial derivative of
    x1^p1 x2^p2 x3^p3 of ``order`` 0 (the monomial), 1 or 2: each axis
    multiplies the integer factor by its power and lowers that power by one."""
    out = []
    for axes in itertools.product(range(3), repeat=order):
        lowered, factor = list(powers), 1
        for axis in axes:
            factor *= lowered[axis]
            lowered[axis] -= 1
        if factor:
            out.append((axes, factor, tuple(lowered)))
    return tuple(out)


def _monomial(rows, factor, powers):
    """factor * x1^p1 x2^p2 x3^p3 at the points whose coordinates are the rows
    ``rows[0]``, ``rows[1]``, ``rows[2]``.  With no power the float factor,
    allocating no row; a first power may be the row itself, which every
    caller scales by c(t)."""
    out = None
    for axis, p in enumerate(powers):
        if p:
            power = rows[axis] if p == 1 else rows[axis] ** p  # x ** 1 is x
            out = power if out is None else out * power
    if out is None:
        return float(factor)
    return out if factor == 1 else factor * out


def _rows(x):
    """The coordinate rows (3, ...) of points (..., 3), a view."""
    return np.moveaxis(np.asarray(x, dtype=float), -1, 0)


class Polynomial:
    """Sum of monomials; the generic closed-form Hamiltonian."""

    def __init__(self, terms):
        self.terms = list(terms)

    @property
    def autonomous(self):
        """True when no term carries a time dependence."""
        return all(term.time_fn is None for term in self.terms)

    def _derivatives(self, rows, t, order):
        """The partial derivatives of H of ``order`` 0 (H itself), 1 (grad)
        or 2 (Hess) at the points whose coordinates are ``rows``, as
        {axes: entry} over the axes some term's powers reach.  Each entry
        sums, over the terms in order, c(t) times the term's
        factor * prod x^p; a term adds nothing to the entries its powers do
        not reach.  The module's one evaluator, which :func:`flow.advance_state`
        reads on its coordinate rows."""
        out = {}
        for term in self.terms:
            c = term._c(t)
            for axes, factor, powers in _partials(term.powers, order):
                d = c * _monomial(rows, factor, powers)
                out[axes] = out[axes] + d if axes in out else d
        return out

    def _tensor(self, rows, t, order):
        """:meth:`_derivatives` at coordinate rows (3, ...) as one (...),
        (..., 3) or (..., 3, 3) array, 0 where no term reaches."""
        out = np.zeros(rows.shape[1:] + (3,) * order)
        for axes, d in self._derivatives(rows, t, order).items():
            out[(Ellipsis, *axes)] = d
        return out

    def value(self, x, t=0.0):
        return self._tensor(_rows(x), t, 0)

    def grad(self, x, t=0.0):
        return self._tensor(_rows(x), t, 1)

    def hess(self, x, t=0.0):
        return self._tensor(_rows(x), t, 2)

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
    if not (_is_count(axis, least=0) and axis <= 2):
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
