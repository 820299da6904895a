"""The benchmark's workloads: inputs drawn from a seed, one sweep each, and
the correctness gate every sweep passes through.

Each workload draws its inputs from the seed only among variants that the
problem's symmetries map onto each other (rotations about the x3 axis,
sign flips).  The inputs differ from seed to seed, yet every verdict and
every tolerance ratio is the same up to rounding, so the end-to-end
figures do not move with the seed.  Coefficients that would change the
numerics are fixed; see the sensitivity notes in README.md.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from spherequant import hamiltonians, harness, propagate, quantize, unitary_metric

# tolerances of the repository's own checks
UNITARY_TOL = 1e-10  # unitary_metric.Unitary
DET_LIFT_TOL = 1e-8  # unitary_metric.UnitaryWithPhase
SPECTRUM_TOL = 1e-9  # acceptance criterion 05
CONSTANT_PHASE_TOL = 1e-9  # acceptance criterion 07
SLOPE_BOUND = 0.2  # harness slope rules, acceptance criteria 08-10


@dataclass(frozen=True)
class Check:
    """One verdict: ``error`` against ``tolerance`` (None when it raised)."""

    name: str
    error: float | None
    tolerance: float
    passed: bool

    @property
    def use(self):
        return None if self.error is None else self.error / self.tolerance


def bounded(name, error, tolerance, verdict=True):
    """Check ``error <= tolerance``, optionally and-ed with a program verdict."""
    error = float(error)
    return Check(name, error, tolerance, bool(verdict) and error <= tolerance)


def slope_check(name, slope, verdict=True):
    """The slope rule of ``harness.fit_slope``: None means the residuals sit
    at the noise floor, which passes with error 0."""
    return bounded(name, 0.0 if slope is None else slope, SLOPE_BOUND, verdict)


@contextmanager
def captured_propagations():
    """Collect every PropagationResult made inside the block, so that each
    one is validated as a cover element by the gate."""
    results = []
    originals = {name: getattr(propagate, name) for name in ("propagate_generic", "xi_path")}

    def capture(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append(result)
            return result

        return wrapper

    for name, fn in originals.items():
        setattr(propagate, name, capture(fn))
    try:
        yield results
    finally:
        for name, fn in originals.items():
            setattr(propagate, name, fn)


def with_phase_checks(results):
    """``with_phase()`` validation of unitarity and of the determinant lift,
    reported as the largest residuals over the sweep's propagators."""
    unitarity = lift = 0.0
    for result in results:
        try:
            result.with_phase()
        except ValueError:
            return [Check("with_phase", None, DET_LIFT_TOL, False)]
        u = result.unitary
        unitarity = max(unitarity, np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))
        lift = max(lift, abs(np.linalg.det(u) - np.exp(1j * result.phase)))
    return [
        bounded("with_phase.unitarity", unitarity, UNITARY_TOL),
        bounded("with_phase.det_lift", lift, DET_LIFT_TOL),
    ]


# x3-axis quarter turns and sign flips: height-squared and the quadrature
# grids of these levels are invariant under them, so the defect is too
QUARTER_TURNS = (("x1", 1.0), ("x2", 1.0), ("x1", -1.0), ("x2", -1.0))


class Defect:
    name = "defect"
    ks = (8, 16, 32, 64)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        axis, sign = QUARTER_TURNS[int(rng.integers(len(QUARTER_TURNS)))]
        # scales (2, 2) as in acceptance criterion 10; (1.6, 2.4) fails the
        # slope rule at k <= 64 (slope 0.48), so the scales are not drawn
        self.config = harness.ExperimentConfig(
            experiment="defect",
            preset="height-squared",
            preset_params={"scale": 2.0},
            preset_b=axis,
            preset_b_params={"scale": 2.0 * sign},
            ks=self.ks,
            steps=8,
            flow_steps=32,
        )
        self.inputs = {"preset_b": axis, "preset_b_scale": 2.0 * sign}

    def sweep(self):
        return harness.run_defect(self.config)

    def checks(self, report):
        s = report.summary
        return [slope_check("defect.slope", s["defect_slope"], report.checks_passed)]


class Claims:
    name = "claims"
    ks = (8, 16, 32, 64)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        # the theorem-1 residual is proportional to |c| (through the finite
        # difference value of lambda'), so only the signs are drawn for c;
        # the height scale does not enter the residual
        c = 0.5 * float(rng.choice((-1.0, 1.0)))
        scale = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5))
        grid = {"grid_theta": 12, "grid_phi": 24}
        self.theorem1 = harness.ExperimentConfig(
            experiment="theorem1",
            preset="tilted-height",
            preset_params={"c": c, "scale": scale},
            ks=self.ks,
            steps=16,
            flow_steps=16,
            time_samples=8,
            **grid,
        )
        # prop53 needs 32 Magnus steps and 32 flow steps: at 16 Magnus steps
        # its residual slope is 1.9, at 16 flow steps 1.04
        self.prop53 = harness.ExperimentConfig(
            experiment="prop53", preset="time-mixed", ks=self.ks, steps=32, flow_steps=32, **grid
        )
        self.inputs = {"c": c, "scale": scale}

    def sweep(self):
        return (
            harness.run_theorem1_holomorphic(self.theorem1),
            harness.run_prop53(self.prop53),
        )

    def checks(self, reports):
        theorem1, prop53 = reports
        return [
            bounded(
                "theorem1.max_residual",
                theorem1.summary["max_residual"],
                theorem1.summary["tolerance"],
                theorem1.checks_passed,
            ),
            slope_check("prop53.slope", prop53.summary["residual_slope"], prop53.checks_passed),
        ]


class Spectral:
    name = "spectral"
    ks = (8, 16, 32, 64, 128)
    steps = 64

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        # rotating the x1 term about the x3 axis and flipping the sign of the
        # x3^2 term leave the Toeplitz/KS cover distance unchanged
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        sign = float(rng.choice((-1.0, 1.0)))
        self.constant = float(rng.uniform(0.5, 0.9))
        m = hamiltonians.Monomial
        self.h = hamiltonians.Polynomial(
            [
                m((1, 0, 0), math.cos(theta), time_fn=hamiltonians.sin_pi_t),
                m((0, 1, 0), math.sin(theta), time_fn=hamiltonians.sin_pi_t),
                m((0, 0, 2), sign, time_fn=hamiltonians.identity_t),
            ]
        )
        self.inputs = {"theta": theta, "x3_squared_sign": sign, "constant": self.constant}

    def constant_at(self, k):
        # c / (k + 1) keeps the expected phase -k c of order k, so the
        # rounding error stays far below the absolute tolerance at every k
        return self.constant / (k + 1)

    def sweep(self):
        rows = []
        for k in self.ks:
            space = quantize.build_space(k)
            a = propagate.propagate_toeplitz(space, self.h, self.steps).with_phase()
            b = propagate.propagate_ks(space, self.h, self.steps).with_phase()
            height = quantize.toeplitz(space, hamiltonians.height())
            const = propagate.propagate_ks(
                space, hamiltonians.constant(self.constant_at(k)), self.steps
            )
            rows.append(
                {
                    "k": k,
                    "distance": unitary_metric.cover_distance(a, b),
                    "height_spectrum": np.linalg.eigvalsh(height),
                    "constant_phase": const.phase,
                }
            )
        slope = harness.fit_slope(self.ks, [r["distance"] for r in rows])
        return rows, slope

    def checks(self, output):
        rows, slope = output
        spectrum = phase = 0.0
        for r in rows:
            k = r["k"]
            expected = np.sort((k - 2.0 * np.arange(k + 1)) / (k + 2.0))
            spectrum = max(spectrum, np.max(np.abs(r["height_spectrum"] - expected)))
            phase = max(phase, abs(r["constant_phase"] + k * self.constant_at(k) * (k + 1)))
        return [
            bounded("height_spectrum", spectrum, SPECTRUM_TOL),
            bounded("constant_phase", phase, CONSTANT_PHASE_TOL),
            slope_check("distance.slope", slope),
        ]


WORKLOADS = {w.name: w for w in (Defect, Claims, Spectral)}


def warm_up():
    """Load the BLAS/LAPACK kernels the sweeps use before anything is timed."""
    import scipy.linalg

    rng = np.random.default_rng(0)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    h = a + a.conj().T
    np.linalg.eigh(h)
    np.linalg.eigvalsh(h)
    np.linalg.solve(a, h)
    np.linalg.det(a)
    scipy.linalg.schur(a, output="complex")
    a @ h
