import itertools
import math

import numpy as np
import pytest

from spherequant import hamiltonians as ham


def _schedule(t):
    return math.sin(0.5 * math.pi * t)


def _schedule_rate(t):
    return 0.5 * math.pi * math.cos(0.5 * math.pi * t)


def test_reparametrized_path_is_the_rescaled_polynomial():
    # the path t -> phi_{s(t)} is generated by s'(t) H_{s(t)}, which is
    # again a polynomial, with the same grouping of its time dependence
    pts = np.random.default_rng(31).normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for name in ("height", "time-mixed", "tilted-height"):
        h = ham.preset(name)
        rep = ham.Reparametrized(h, _schedule, _schedule_rate)
        assert isinstance(rep, ham.Polynomial)
        assert not rep.autonomous
        assert len(rep.separable_terms()) == len(h.separable_terms())
        for t in (0.0, 0.13, 0.5, 0.91):
            for method in ("value", "grad", "hess"):
                got = getattr(rep, method)(pts, t)
                expected = _schedule_rate(t) * getattr(h, method)(pts, _schedule(t))
                assert np.max(np.abs(got - expected)) < 1e-14


def test_monomial_refuses_powers_that_are_not_non_negative_integers():
    # int() would truncate the first two to x1 and x3, and read True as 1
    for powers in ((1.5, 0, 0), (-0.5, 0, 1), (0, -1, 0), (1, 0), (1, 0, 0, 0), (True, 0, 0)):
        with pytest.raises(ValueError, match="powers must be three non-negative integers"):
            ham.Monomial(powers)
    assert ham.Monomial((np.int64(2), 0, 1)).powers == (2, 0, 1)


def test_monomial_derivatives_match_central_differences():
    # every monomial of total degree <= 4, static and time-dependent:
    # grad against central differences of value, hess against those of grad
    x = np.random.default_rng(32).normal(size=(20, 3))
    step = 1e-5
    shifts = step * np.eye(3)
    for powers in itertools.product(range(5), repeat=3):
        if sum(powers) > 4:
            continue
        for time_fn in (None, ham.sin_pi_t):
            m = ham.Monomial(powers, -1.3, time_fn=time_fn)
            for derivative, f in ((m.grad, m.value), (m.hess, m.grad)):
                expected = np.stack(
                    [(f(x + e, 0.3) - f(x - e, 0.3)) / (2.0 * step) for e in shifts],
                    axis=-1,
                )
                scale = 1.0 + np.max(np.abs(expected))
                assert np.max(np.abs(derivative(x, 0.3) - expected)) < 1e-8 * scale
