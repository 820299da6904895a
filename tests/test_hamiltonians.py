import math

import numpy as np

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
