"""Experiment orchestration: configs, k-sweeps, slope fits, reports.

Reports are written as CSV (rows) plus JSON (config echo, summary and
check verdicts); every row carries the classical inputs used for its
prediction so residuals can be audited offline.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import hamiltonians, invariants, propagate, quantize, sphere
from .unitary_metric import Unitary, UnitaryWithPhase, cover_distance, distance

ODE_TOLERANCE = 1e-8
NOISE_FLOOR = 10.0 * ODE_TOLERANCE


def _is_count(value, least=1):
    """Whether a config value is an integer, not a bool, of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _is_finite_real(value):
    """Whether a config value is a finite real number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class ExperimentConfig:
    experiment: str
    preset: str = "height"
    preset_params: dict = field(default_factory=dict)
    preset_b: str = "x1"
    preset_b_params: dict = field(default_factory=dict)
    ks: tuple = (8, 16, 32, 64)
    grid_theta: int = 24
    grid_phi: int = 48
    steps: int = 128
    flow_steps: int = 256
    time_samples: int = 32
    pairs: int = 200
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        try:
            ks = tuple(self.ks)
        except TypeError:
            raise ValueError(f"ks must be a list of levels, got {self.ks!r}") from None
        if not ks:
            raise ValueError("ks must name at least one level")
        for k in ks:
            if not _is_count(k):
                raise ValueError(f"ks must list positive integers, got {k!r} in {ks}")
        self.ks = tuple(int(k) for k in ks)
        if any(b <= a for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError(f"ks must be strictly increasing, got {self.ks}")
        for name in ("grid_theta", "grid_phi", "steps", "flow_steps", "pairs", "time_samples"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not _is_count(self.seed, least=0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.time_samples % 4:
            raise ValueError(
                f"time_samples must be a positive multiple of 4, got {self.time_samples}"
            )
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a directory path or null, got {self.out!r}")
        for name in ("preset", "preset_b"):
            preset, params = getattr(self, name), getattr(self, f"{name}_params")
            if not isinstance(params, dict):
                raise ValueError(f"{name}_params must be an object of parameters, got {params!r}")
            for key, value in params.items():
                if not _is_finite_real(value):
                    raise ValueError(
                        f"{name}_params[{key!r}] must be a finite real number, got {value!r}"
                    )
            try:
                hamiltonians.preset(preset, **params)
            except KeyError as exc:
                raise ValueError(f"{name}: {exc.args[0]}") from None
            except TypeError:
                raise ValueError(
                    f"{name}_params {params} do not fit preset {preset!r}"
                ) from None

    @classmethod
    def from_file(cls, path, experiment=None):
        """Config from a JSON file; a given ``experiment`` replaces the file's."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path} must hold a JSON object of config fields")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config fields {unknown} in {path}")
        if experiment is not None:
            data["experiment"] = experiment
        return cls(**data)

    def hamiltonian(self):
        return hamiltonians.preset(self.preset, **self.preset_params)

    def hamiltonian_b(self):
        return hamiltonians.preset(self.preset_b, **self.preset_b_params)

    def grid(self):
        return sphere.build_grid(self.grid_theta, self.grid_phi)


@dataclass
class SweepReport:
    experiment: str
    config: dict
    rows: list
    summary: dict
    checks_passed: bool

    def write(self, out_dir):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.experiment}.csv"
        if self.rows:
            keys = list(self.rows[0].keys())
            with open(csv_path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=keys)
                writer.writeheader()
                writer.writerows(self.rows)
        meta = {
            "experiment": self.experiment,
            "config": self.config,
            "summary": self.summary,
            "checks_passed": self.checks_passed,
        }
        with open(out / f"{self.experiment}.json", "w") as fh:
            json.dump(meta, fh, indent=2, default=float)
        return csv_path


def fit_slope(ks, residuals, floor=NOISE_FLOOR, scales=None):
    """Least-squares slope of log|residual| vs log k, ignoring residuals
    at the numerical noise floor.  None when fewer than two points remain
    (the quantity is exact at this scale).

    ``scales`` gives the magnitude of the quantities whose difference is
    the residual; points below ``floor * scale`` are relative rounding
    noise, not signal, and are excluded as well.
    """
    ks = np.asarray(ks, dtype=float)
    r = np.abs(np.asarray(residuals, dtype=float))
    mask = r > floor
    if scales is not None:
        mask &= r > floor * np.abs(np.asarray(scales, dtype=float))
    if mask.sum() < 2:
        return None
    return float(np.polyfit(np.log(ks[mask]), np.log(r[mask]), 1)[0])


def _phase_rows(config, grid, symbol, propagator, cal, term, column):
    """Det-phase of ``propagator(space, symbol, config.steps)`` at each
    level k, every space built on ``grid``, against
    -(k / 2 pi) ((k + lambda') cal + term / 2); the row names the classical
    term ``column``, and its runtime is that level's quantum work.

    Each level's propagator is validated as a cover element (unitarity and
    determinant lift), as in :func:`run_defect`.  Returns the rows and the
    largest ``unitarity`` and ``det_lift`` residuals, for ``health``."""
    lam = quantize.ROUND_LAMBDA_PRIME
    rows = []
    unitarity = det_lift = 0.0
    for k in config.ks:
        t0 = time.perf_counter()
        space = quantize.build_space(k, grid)
        result = propagator(space, symbol, config.steps)
        cover = result.with_phase()
        unitarity = max(unitarity, cover.u.unitarity)
        det_lift = max(det_lift, cover.det_lift)
        predicted = -(k / (2.0 * np.pi)) * ((k + lam) * cal + 0.5 * term)
        rows.append(
            {
                "k": k,
                "measured": result.phase,
                "predicted": predicted,
                "residual": result.phase - predicted,
                "cal": cal,
                column: term,
                "lambda_prime": lam,
                "runtime": time.perf_counter() - t0,
            }
        )
    return rows, {"unitarity": unitarity, "det_lift": det_lift}


def run_theorem1_holomorphic(config: ExperimentConfig) -> SweepReport:
    """Det-phase of the quantized holomorphic flow against the classical
    prediction from the Calabi invariant and the quasimorphism.

    Raises :class:`propagate.HolomorphyError` before any classical work
    unless the exact gate :func:`propagate.check_holomorphic` admits the
    preset; ``health.holomorphy_defect`` records what the gate returns, and
    ``unitarity`` and ``det_lift`` the largest cover-element residuals.
    Every admitted path is a path of rotations, whose quasimorphism is
    exactly 0 (``invariants.HOLOMORPHIC_DISC_TERM``), so no flow runs and
    ``config.flow_steps`` and ``config.time_samples`` are not read."""
    t0 = time.perf_counter()
    h = config.hamiltonian()
    holomorphy_defect = propagate.check_holomorphic(h)
    cal = sphere.calabi(h, config.grid())
    classical_s = time.perf_counter() - t0
    rows, cover_health = _phase_rows(
        config,
        quantize.sweep_grid(config.ks),
        h,
        propagate.propagate_ks,
        cal,
        invariants.HOLOMORPHIC_DISC_TERM + invariants.ROUND_CURVATURE_PAIRING,
        "sh_total",
    )
    max_residual = max(abs(r["residual"]) for r in rows)
    passed = max_residual <= 1e-5
    return SweepReport(
        experiment="theorem1",
        config=asdict(config),
        rows=rows,
        summary={
            "max_residual": max_residual,
            "tolerance": 1e-5,
            "timings": {"classical_s": classical_s},
            "health": {"holomorphy_defect": holomorphy_defect, **cover_health},
        },
        checks_passed=passed,
    )


def run_prop53(config: ExperimentConfig) -> SweepReport:
    """Inverse-path det-phase against the curvature-pairing prediction
    (the pairing is exactly 0 for the round structure); the residual must
    not grow with k.

    The pulled-back symbol is sampled once, on the sweep grid, and shared
    by every level.  ``config.flow_steps`` is not read: the forward flow
    of :func:`propagate.pull_back` takes one RK4 step to each Gauss time
    and one to the end of every Magnus step but the last.  ``health``
    records its det drift and the largest cover-element residuals."""
    t0 = time.perf_counter()
    h = config.hamiltonian()
    cal = sphere.calabi(h, config.grid())
    grid = quantize.sweep_grid(config.ks)
    pulled = propagate.pull_back(h, grid, config.steps)
    classical_s = time.perf_counter() - t0
    rows, cover_health = _phase_rows(
        config,
        grid,
        pulled,
        propagate.xi_path,
        cal,
        invariants.ROUND_CURVATURE_PAIRING,
        "curvature_pairing",
    )
    slope = fit_slope(
        config.ks,
        [r["residual"] for r in rows],
        scales=[r["predicted"] for r in rows],
    )
    passed = slope is None or slope <= 0.2
    return SweepReport(
        experiment="prop53",
        config=asdict(config),
        rows=rows,
        summary={
            "residual_slope": slope,
            "slope_bound": 0.2,
            "timings": {"classical_s": classical_s},
            "health": {"flow_det_drift": pulled.flow_det_drift, **cover_health},
        },
        checks_passed=passed,
    )


def run_defect(config: ExperimentConfig) -> SweepReport:
    """Homomorphism defect of the quantized paths over a k sweep.

    The product path's symbol is sampled once, on the sweep grid, before
    the levels; each row's runtime is that level's quantum work.
    ``health`` records the largest unitarity and determinant-lift residuals
    of the cover elements every level builds."""
    t0 = time.perf_counter()
    h_a = config.hamiltonian()
    h_b = config.hamiltonian_b()
    grid = quantize.sweep_grid(config.ks)
    product = propagate.product_samples(h_a, h_b, grid, config.steps, config.flow_steps)
    classical_s = time.perf_counter() - t0
    rows = []
    unitarity = det_lift = 0.0
    for k in config.ks:
        t0 = time.perf_counter()
        space = quantize.build_space(k, grid)
        d, covers = invariants.level_defect(space, h_a, h_b, product, config.steps)
        rows.append({"k": k, "defect": float(d), "runtime": time.perf_counter() - t0})
        unitarity = max(unitarity, *(c.u.unitarity for c in covers))
        det_lift = max(det_lift, *(c.det_lift for c in covers))
    values = np.array([r["defect"] for r in rows])
    slope = fit_slope(config.ks, values, floor=1e-6)
    passed = slope is None or slope <= 0.2
    return SweepReport(
        experiment="defect",
        config=asdict(config),
        rows=rows,
        summary={
            "max_defect": float(np.max(values)),
            "defect_slope": slope,
            "slope_bound": 0.2,
            "timings": {"classical_s": classical_s},
            "health": {
                "flow_det_drift": product.flow_det_drift,
                "unitarity": unitarity,
                "det_lift": det_lift,
            },
        },
        checks_passed=passed,
    )


# ---------------------------------------------------------------------------
# distance-formula oracle sweep


def haar_unitary(rng, n):
    """Haar-random n x n unitary: the QR factor of a complex Ginibre matrix
    with the phases of diag(r) moved into q (Mezzadri, Notices AMS 54,
    2007).  From the same generator state it draws what scipy's
    ``unitary_group.rvs(n, random_state=rng)`` draws, without importing
    scipy's statistics package."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / np.abs(d))


def random_unitary_with_phase(rng, n):
    u = haar_unitary(rng, n)
    phase = float(np.angle(np.linalg.det(u)))
    return UnitaryWithPhase(Unitary(u), phase)


def brute_force_lattice(base_args, target_sum, span=4):
    """Exhaustive reference for the constrained lattice minimum."""
    b = np.asarray(base_args, dtype=float)
    n = len(b)
    k_total = int(round((target_sum - b.sum()) / (2.0 * np.pi)))
    grids = np.meshgrid(*[np.arange(-span, span + 1)] * (n - 1), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=-1)
    last = k_total - offsets.sum(axis=1)
    keep = np.abs(last) <= span
    offsets = np.concatenate([offsets[keep], last[keep, None]], axis=1)
    theta = b[None, :] + 2.0 * np.pi * offsets
    radii = np.max(np.abs(theta), axis=1)
    best = int(np.argmin(radii))
    return float(radii[best]), theta[best]


def run_distance_tests(config: ExperimentConfig) -> SweepReport:
    """Random-instance checks of the distance formulas and their bounds."""
    rng = np.random.default_rng(config.seed)
    rows = []
    worst = {
        "metric_axioms": 0.0,
        "norm_bounds": 0.0,
        "lattice_vs_brute_force": 0.0,
        "cover_bounds": 0.0,
        "small_distance_collapse": 0.0,
    }
    for i in range(config.pairs):
        n = int(rng.integers(2, 9))
        a = random_unitary_with_phase(rng, n)
        b = random_unitary_with_phase(rng, n)
        d = distance(a.u, b.u)
        sym = abs(d - distance(b.u, a.u))
        self_d = distance(a.u, a.u)
        worst["metric_axioms"] = max(worst["metric_axioms"], sym, self_d)
        gap = np.linalg.norm(a.u.mat - b.u.mat, ord=2)
        viol = max(gap - d, d - np.pi / 2 * gap, 0.0)
        worst["norm_bounds"] = max(worst["norm_bounds"], viol)

        m = int(rng.integers(2, 7))
        am = random_unitary_with_phase(rng, m)
        bm = random_unitary_with_phase(rng, m)
        shift = 2.0 * np.pi * int(rng.integers(-2, 3))
        bm = UnitaryWithPhase(bm.u, bm.phase + shift)
        dc = cover_distance(am, bm)
        lam = np.linalg.eigvals(bm.u.mat @ am.u.mat.conj().T)
        base = np.angle(lam)
        ref, _ = brute_force_lattice(base, bm.phase - am.phase)
        worst["lattice_vs_brute_force"] = max(
            worst["lattice_vs_brute_force"], abs(dc - ref)
        )
        gap_phase = abs(bm.phase - am.phase)
        viol = max(gap_phase / m - dc, dc - gap_phase / m - 2 * np.pi, 0.0)
        worst["cover_bounds"] = max(worst["cover_bounds"], viol)
        if dc <= np.pi / (2 * m):
            worst["small_distance_collapse"] = max(
                worst["small_distance_collapse"], abs(dc - distance(am.u, bm.u))
            )
    for name, value in worst.items():
        rows.append({"check": name, "pairs": config.pairs, "max_violation": value})
    tol = {
        "metric_axioms": 1e-10,
        "norm_bounds": 1e-10,
        "lattice_vs_brute_force": 1e-8,
        "cover_bounds": 1e-10,
        "small_distance_collapse": 1e-9,
    }
    passed = all(worst[name] <= tol[name] for name in worst)
    return SweepReport(
        experiment="distance",
        config=asdict(config),
        rows=rows,
        summary={"worst": worst, "tolerances": tol},
        checks_passed=passed,
    )


def run_toeplitz_dump(config: ExperimentConfig, out_dir) -> SweepReport:
    """Write the Toeplitz matrices of the configured preset to disk."""
    h = config.hamiltonian()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for k in config.ks:
        space = quantize.build_space(k)
        mat = quantize.toeplitz(space, h)
        fname = out / f"toeplitz_{config.preset}_k{k}.npy"
        np.save(fname, mat)
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        rows.append({"k": k, "file": str(fname), "hermiticity_defect": herm})
    passed = all(r["hermiticity_defect"] <= 1e-10 for r in rows)
    return SweepReport(
        experiment="toeplitz-dump",
        config=asdict(config),
        rows=rows,
        summary={"files": [r["file"] for r in rows]},
        checks_passed=passed,
    )
