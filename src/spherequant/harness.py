"""Experiment orchestration: configs, k-sweeps, slope fits, reports.

Reports are written as CSV (rows) plus JSON (config echo, summary and
check verdicts); every row carries the classical inputs used for its
prediction so residuals can be audited offline.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import hamiltonians, invariants, propagate, quantize, sphere
from .hamiltonians import _is_count
from .unitary_metric import Unitary, UnitaryWithPhase, cover_distance, distance

ODE_TOLERANCE = 1e-8
NOISE_FLOOR = 10.0 * ODE_TOLERANCE


@dataclass
class ExperimentConfig:
    experiment: str
    preset: str = "height"
    preset_params: dict = field(default_factory=dict)
    preset_b: str = "x1"
    preset_b_params: dict = field(default_factory=dict)
    ks: tuple = (8, 16, 32, 64)
    # validated, but read by nothing: every sweep integrates on its own exact grid
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
                if not hamiltonians._is_finite_real(value):
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
    noise, not signal, and are excluded as well.  Arrays that are not 1-D
    of one length, complex ones, a non-finite residual or scale (no noise
    floor) or level, a level <= 0, or a ``floor`` that is not a finite number
    >= 0 (a NaN floor would drop every point, which reads as exact) raise
    ``ValueError``.
    """
    if not (hamiltonians._is_finite_real(floor) and floor >= 0):
        raise ValueError(f"floor must be a finite number >= 0, got {floor!r}")
    for name, values in (("ks", ks), ("residuals", residuals), ("scales", scales)):
        if np.iscomplexobj(values):
            raise ValueError(f"{name} must be real, got {values!r}")
    ks = np.asarray(ks, dtype=float)
    r = np.abs(np.asarray(residuals, dtype=float))
    s = np.zeros(ks.shape) if scales is None else np.abs(np.asarray(scales, dtype=float))
    if ks.ndim != 1 or not ks.shape == r.shape == s.shape:
        shapes = (ks.shape, r.shape, s.shape)
        raise ValueError(f"ks, residuals and scales must be 1-D of one length, got {shapes}")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(s))):
        raise ValueError("residuals and scales must be finite")
    if not np.all((ks > 0) & (ks < np.inf)):
        raise ValueError(f"levels ks must be positive and finite, got {ks}")
    mask = (r > floor) & (r > floor * s)
    if mask.sum() < 2:
        return None
    return float(np.polyfit(np.log(ks[mask]), np.log(r[mask]), 1)[0])


def _sweep_levels(ks, grid, level):
    """The quantum stage of a k-sweep: ``level(space)`` at each k, every
    space built on ``grid``, gives the level's row entries and the cover
    elements it built.  Each row is ``k``, those entries, then ``runtime``,
    that level's quantum work.  Returns the rows and the largest
    ``unitarity`` and ``det_lift`` of the cover elements, for ``health``."""
    rows = []
    unitarity = det_lift = 0.0
    for k in ks:
        t0 = time.perf_counter()
        entries, covers = level(quantize.build_space(k, grid))
        rows.append({"k": k, **entries, "runtime": time.perf_counter() - t0})
        for cover in covers:
            unitarity = max(unitarity, cover.u.unitarity)
            det_lift = max(det_lift, cover.det_lift)
    return rows, {"unitarity": unitarity, "det_lift": det_lift}


def _phase_level(symbol, propagator, steps, cal, term, column):
    """Level function of the det-phase sweeps: the phase of
    ``propagator(space, symbol, steps)`` against
    -(k / 2 pi) ((k + lambda') cal + term / 2); the row names the classical
    term ``column``, and the propagator is validated as a cover element."""
    lam = quantize.ROUND_LAMBDA_PRIME

    def level(space):
        k = space.k
        result = propagator(space, symbol, steps)
        predicted = -(k / (2.0 * np.pi)) * ((k + lam) * cal + 0.5 * term)
        entries = {
            "measured": result.phase,
            "predicted": predicted,
            "residual": result.phase - predicted,
            "cal": cal,
            column: term,
            "lambda_prime": lam,
        }
        return entries, [result.with_phase()]

    return level


def _max_relative_residual(rows):
    """Largest |residual| / |predicted| over the rows of a det-phase sweep,
    recorded for the reader and read by no verdict.  None when a prediction
    is at :data:`NOISE_FLOOR`, where the ratio reads rounding (the Calabi
    invariant of ``height`` is 1e-16 on a grid)."""
    if any(not abs(r["predicted"]) > NOISE_FLOOR for r in rows):
        return None
    return max(abs(r["residual"] / r["predicted"]) for r in rows)


def _sweep_report(experiment, config, rows, verdict, passed, classical_s, health):
    """SweepReport of a k-sweep: ``summary`` is the verdict keys, then
    ``timings.classical_s``, then ``health``."""
    return SweepReport(
        experiment=experiment,
        config=asdict(config),
        rows=rows,
        summary={**verdict, "timings": {"classical_s": classical_s}, "health": health},
        checks_passed=passed,
    )


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
    grid = quantize.default_grid(max(config.ks))
    cal = sphere.calabi(h, grid)
    classical_s = time.perf_counter() - t0
    term = invariants.HOLOMORPHIC_DISC_TERM + invariants.ROUND_CURVATURE_PAIRING
    level = _phase_level(h, propagate.propagate_ks, config.steps, cal, term, "sh_total")
    rows, cover_health = _sweep_levels(config.ks, grid, level)
    max_residual = max(abs(r["residual"]) for r in rows)
    verdict = {
        "max_residual": max_residual,
        "tolerance": 1e-5,
        "max_relative_residual": _max_relative_residual(rows),
    }
    passed = max_residual <= 1e-5
    health = {"holomorphy_defect": holomorphy_defect, **cover_health}
    return _sweep_report("theorem1", config, rows, verdict, passed, classical_s, health)


def run_prop53(config: ExperimentConfig) -> SweepReport:
    """Inverse-path det-phase against the curvature-pairing prediction
    (the pairing is exactly 0 for the round structure); the residual must
    not grow with k.

    The pulled-back symbol is sampled once, as node values on the sweep
    grid, and shared by every level, which assembles them by
    :func:`quantize.kostant_souriau`.  ``config.flow_steps`` is not read:
    :func:`propagate.pull_back` paces its own flow, and runs none for an
    autonomous path such as the default preset.  ``health`` records its area
    drift, the largest change in int H_t o phi_t dmu over the Gauss times
    (0.0 with no flow), and the largest cover-element residuals."""
    t0 = time.perf_counter()
    h = config.hamiltonian()
    grid = quantize.default_grid(max(config.ks))
    cal = sphere.calabi(h, grid)
    pulled = propagate.pull_back(h, grid, config.steps)
    classical_s = time.perf_counter() - t0
    term = invariants.ROUND_CURVATURE_PAIRING
    level = _phase_level(pulled, propagate.xi_path, config.steps, cal, term, "curvature_pairing")
    rows, cover_health = _sweep_levels(config.ks, grid, level)
    residuals = [r["residual"] for r in rows]
    slope = fit_slope(config.ks, residuals, scales=[r["predicted"] for r in rows])
    verdict = {
        "residual_slope": slope,
        "slope_bound": 0.2,
        "max_relative_residual": _max_relative_residual(rows),
    }
    passed = slope is None or slope <= 0.2
    health = {"flow_area_drift": pulled.flow_area_drift, **cover_health}
    return _sweep_report("prop53", config, rows, verdict, passed, classical_s, health)


def run_defect(config: ExperimentConfig) -> SweepReport:
    """Homomorphism defect of the quantized paths over a k sweep.

    The product path's symbol is sampled once, on the sweep grid, before
    the levels; each level's cover elements are those
    :func:`invariants.level_defect` measured the defect from.  ``health``
    records the area drift of the first factor's inverse flow, the largest
    change in int g_t o alpha_t^{-1} dmu over the Gauss times (0.0 for a
    closed-form flow), and the largest cover-element residuals."""
    t0 = time.perf_counter()
    h_a = config.hamiltonian()
    h_b = config.hamiltonian_b()
    grid = quantize.default_grid(max(config.ks))
    product = propagate.product_samples(h_a, h_b, grid, config.steps, config.flow_steps)
    classical_s = time.perf_counter() - t0

    def level(space):
        d, covers = invariants.level_defect(space, h_a, h_b, product, config.steps)
        return {"defect": float(d)}, covers

    rows, cover_health = _sweep_levels(config.ks, grid, level)
    values = np.array([r["defect"] for r in rows])
    slope = fit_slope(config.ks, values, floor=1e-6)
    verdict = {"max_defect": float(np.max(values)), "defect_slope": slope, "slope_bound": 0.2}
    passed = slope is None or slope <= 0.2
    health = {"flow_area_drift": product.flow_area_drift, **cover_health}
    return _sweep_report("defect", config, rows, verdict, passed, classical_s, health)


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


# every check of :func:`run_distance_tests` and the largest violation it admits
DISTANCE_TOLERANCES = {
    "metric_axioms": 1e-10,
    "norm_bounds": 1e-10,
    "lattice_vs_brute_force": 1e-8,
    "cover_bounds": 1e-10,
    "small_distance_collapse": 1e-9,
}


def run_distance_tests(config: ExperimentConfig) -> SweepReport:
    """Random-instance checks of the distance formulas and their bounds,
    each reported as its largest violation over ``config.pairs`` pairs."""
    rng = np.random.default_rng(config.seed)
    worst = dict.fromkeys(DISTANCE_TOLERANCES, 0.0)

    def record(check, *violations):
        worst[check] = max(worst[check], *violations)

    for _ in range(config.pairs):
        n = int(rng.integers(2, 9))
        a = random_unitary_with_phase(rng, n)
        b = random_unitary_with_phase(rng, n)
        d = distance(a.u, b.u)
        record("metric_axioms", abs(d - distance(b.u, a.u)), distance(a.u, a.u))
        gap = np.linalg.norm(a.u.mat - b.u.mat, ord=2)
        record("norm_bounds", max(gap - d, d - np.pi / 2 * gap, 0.0))

        m = int(rng.integers(2, 7))
        am = random_unitary_with_phase(rng, m)
        bm = random_unitary_with_phase(rng, m)
        shift = 2.0 * np.pi * int(rng.integers(-2, 3))
        bm = UnitaryWithPhase(bm.u, bm.phase + shift)
        dc = cover_distance(am, bm)
        base = np.angle(np.linalg.eigvals(bm.u.mat @ am.u.mat.conj().T))
        ref, _ = brute_force_lattice(base, bm.phase - am.phase)
        record("lattice_vs_brute_force", abs(dc - ref))
        gap_phase = abs(bm.phase - am.phase)
        record("cover_bounds", max(gap_phase / m - dc, dc - gap_phase / m - 2 * np.pi, 0.0))
        if dc <= np.pi / (2 * m):
            record("small_distance_collapse", abs(dc - distance(am.u, bm.u)))
    rows = [
        {"check": name, "pairs": config.pairs, "max_violation": value}
        for name, value in worst.items()
    ]
    return SweepReport(
        experiment="distance",
        config=asdict(config),
        rows=rows,
        summary={"worst": worst, "tolerances": dict(DISTANCE_TOLERANCES)},
        checks_passed=all(worst[name] <= tol for name, tol in DISTANCE_TOLERANCES.items()),
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
