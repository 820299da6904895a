"""Trend checks up to k = 512, deselected from the default run.

Run them with ``python -m pytest -m slow``.  They extend the sweeps of
the Toeplitz/Kostant-Souriau comparison (acceptance criterion 09 and the
time-mixed path of the ``spectral`` benchmark) to the levels where a
dense ``eigh`` per Magnus step would dominate; the time-dependent path
runs on the tridiagonal route of ``propagate._magnus``.
"""

import pytest

from spherequant import hamiltonians as ham, harness, propagate, quantize
from spherequant.unitary_metric import cover_distance

pytestmark = pytest.mark.slow


def _distances(h, ks, steps):
    distances = []
    for k in ks:
        space = quantize.build_space(k)
        a = propagate.propagate_toeplitz(space, h, steps).with_phase()
        b = propagate.propagate_ks(space, h, steps).with_phase()
        distances.append(cover_distance(a, b))
    return distances


def test_time_mixed_toeplitz_ks_distance_bounded_to_k512():
    ks = (64, 128, 256, 512)
    distances = _distances(ham.time_mixed(), ks, steps=64)
    slope = harness.fit_slope(ks, distances)
    assert slope is None or slope <= 0.2, (distances, slope)


def test_criterion_09_paths_bounded_to_k512():
    ks = (8, 16, 32, 64, 256, 512)
    for h in (ham.height(), ham.coordinate(0)):
        distances = _distances(h, ks, steps=128)
        slope = harness.fit_slope(ks, distances)
        assert slope is None or slope <= 0.2, (distances, slope)
