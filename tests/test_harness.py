import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spherequant
from spherequant import flow, harness, propagate, sphere
from spherequant.cli import main as cli_main


def test_fit_slope_recovers_power_law():
    ks = np.array([8, 16, 32, 64], dtype=float)
    r = 0.3 * ks ** -2.0
    slope = harness.fit_slope(ks, r, floor=1e-12)
    assert abs(slope - (-2.0)) < 1e-10


def test_fit_slope_exact_branch_returns_none():
    ks = [8, 16, 32, 64]
    r = [1e-13, 3e-13, 2e-13, 5e-13]
    assert harness.fit_slope(ks, r) is None


def test_fit_slope_relative_floor_excludes_rounding_noise():
    # residuals that scale like rounding error of a k^2-sized quantity
    ks = np.array([8, 16, 32, 64], dtype=float)
    scales = 100.0 * ks ** 2
    r = 1e-9 * scales
    assert harness.fit_slope(ks, r, floor=1e-7, scales=scales) is None
    # genuine signal above both floors survives
    r2 = 0.1 * ks ** -1.0
    slope = harness.fit_slope(ks, r2, floor=1e-7, scales=scales)
    assert abs(slope - (-1.0)) < 1e-10


@pytest.mark.parametrize(
    "residuals, scales",
    [
        ([np.nan] * 4, None),
        ([0.1, 0.05, np.inf, 0.01], None),
        ([0.1, 0.05, 0.02, 0.01], [1.0, np.nan, 1.0, 1.0]),
    ],
)
def test_fit_slope_refuses_non_finite_residuals(residuals, scales):
    # a NaN residual is no noise floor: it must not pass a slope rule
    with pytest.raises(ValueError, match="must be finite"):
        harness.fit_slope([8, 16, 32, 64], residuals, scales=scales)


def test_config_rejects_bad_k_list():
    with pytest.raises(ValueError):
        harness.ExperimentConfig(experiment="defect", ks=(8, 8))
    with pytest.raises(ValueError):
        harness.ExperimentConfig(experiment="defect", ks=(16, 8))


def test_config_rejects_levels_below_one_or_not_integers():
    for ks in ((0, 8), (-3, 8), (8.7, 16), (8.0, 16), ("8", 16), 8):
        with pytest.raises(ValueError, match="ks"):
            harness.ExperimentConfig(experiment="defect", ks=ks)


def test_cli_rejects_levels_below_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "defect", "ks": [0, 8]}))
    out_dir = tmp_path / "out"
    assert cli_main(["defect", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "ks must list positive integers" in capsys.readouterr().err
    assert not out_dir.exists()


def test_config_rejects_bad_resolution():
    for name in ("grid_theta", "grid_phi", "steps", "flow_steps", "pairs", "time_samples"):
        for value in ("8", 8.5, True, 0):
            with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
                harness.ExperimentConfig(experiment="defect", **{name: value})
    for value in ("0", 1.5, -1, False):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            harness.ExperimentConfig(experiment="distance", seed=value)


def test_config_rejects_empty_k_list():
    with pytest.raises(ValueError, match="ks"):
        harness.ExperimentConfig(experiment="defect", ks=())


def test_config_rejects_time_samples_off_the_refinement():
    for samples in (0, 6, -4):
        with pytest.raises(ValueError, match="time_samples"):
            harness.ExperimentConfig(experiment="theorem1", time_samples=samples)


def test_config_rejects_no_pairs():
    with pytest.raises(ValueError, match="pairs"):
        harness.ExperimentConfig(experiment="distance", pairs=0)


def test_config_rejects_unknown_preset():
    with pytest.raises(ValueError, match="preset: unknown preset 'hieght'"):
        harness.ExperimentConfig(experiment="defect", preset="hieght")
    with pytest.raises(ValueError, match="preset_b"):
        harness.ExperimentConfig(experiment="defect", preset_b="x4")
    with pytest.raises(ValueError, match="preset_params"):
        harness.ExperimentConfig(experiment="defect", preset_params={"c": 0.5})


def test_config_rejects_preset_params_that_are_not_finite_reals():
    for value in (float("nan"), float("inf"), -float("inf"), True, "a"):
        with pytest.raises(ValueError, match=r"^preset_params\['scale'\] must be a finite real"):
            harness.ExperimentConfig(experiment="prop53", preset_params={"scale": value})
        with pytest.raises(ValueError, match=r"^preset_b_params\['scale'\] must be a finite real"):
            harness.ExperimentConfig(experiment="defect", preset_b_params={"scale": value})


def test_config_rejects_an_out_that_is_not_a_path():
    for value in (5, 2.5, True, ["reports"], {"dir": "reports"}):
        with pytest.raises(ValueError, match="^out must be a directory path"):
            harness.ExperimentConfig(experiment="distance", out=value)
    assert harness.ExperimentConfig(experiment="distance", out="reports").out == "reports"
    assert harness.ExperimentConfig(experiment="distance").out is None


def test_config_from_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "distance", "pairz": 5}))
    with pytest.raises(ValueError, match="pairz"):
        harness.ExperimentConfig.from_file(path)


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "distance", "ks": [4, 8], "pairs": 5}))
    cfg = harness.ExperimentConfig.from_file(path)
    assert cfg.ks == (4, 8)
    assert cfg.pairs == 5


def test_run_defect_times_each_level():
    cfg = harness.ExperimentConfig(
        experiment="defect",
        preset="height-squared",
        ks=(8, 64),
        steps=4,
        flow_steps=8,
    )
    rows = harness.run_defect(cfg).rows
    assert [r["k"] for r in rows] == [8, 64]
    assert rows[1]["runtime"] > rows[0]["runtime"]


def test_run_defect_with_a_time_dependent_first_factor():
    # the product path of a time-dependent first factor is transported
    # backward afresh at every sample time
    cfg = harness.ExperimentConfig(
        experiment="defect", preset="time-mixed", ks=(4, 8), steps=4, flow_steps=8
    )
    report = harness.run_defect(cfg)
    assert [r["k"] for r in report.rows] == [4, 8]
    assert all(np.isfinite(r["defect"]) for r in report.rows)
    assert np.isfinite(report.summary["health"]["flow_area_drift"])


def test_run_defect_records_unitarity_and_det_lift():
    health = harness.run_defect(_defect_config()).summary["health"]
    assert np.isfinite(health["unitarity"]) and health["unitarity"] < 1e-10
    assert np.isfinite(health["det_lift"]) and health["det_lift"] < 1e-8


def test_phase_sweeps_record_unitarity_and_det_lift():
    # every level's propagator is a checked cover element, as in run_defect
    for report in (
        harness.run_theorem1_holomorphic(_theorem1_config("x1")),
        harness.run_prop53(_prop53_config()),
    ):
        health = report.summary["health"]
        assert np.isfinite(health["unitarity"]) and health["unitarity"] < 1e-10
        assert np.isfinite(health["det_lift"]) and health["det_lift"] < 1e-8


def _without_runtime(rows):
    return [{key: value for key, value in row.items() if key != "runtime"} for row in rows]


def test_phase_sweeps_read_calabi_on_the_sweep_grid():
    # grid_theta and grid_phi are validated but read by nothing: Cal is
    # integrated on the sweep grid, which is exact for every preset, so a
    # 1 x 2 grid, on which the integral of x3^2 reads 0, changes no bit
    for sweep, config in (
        (harness.run_prop53, _prop53_config()),
        (harness.run_theorem1_holomorphic, _theorem1_config("tilted-height")),
    ):
        rows = {}
        for n_theta, n_phi in ((1, 2), (24, 48)):
            config.grid_theta, config.grid_phi = n_theta, n_phi
            rows[n_theta] = _without_runtime(sweep(config).rows)
        assert rows[1] == rows[24], config.experiment
        if config.preset == "time-mixed":
            # Cal = int_0^1 t dt * int x3^2 = (1 / 2)(2 pi / 3)
            assert all(abs(row["cal"] - np.pi / 3) < 1e-13 for row in rows[1])


def _defect_config(ks=(8, 16), flow_steps=8, preset="height-squared"):
    return harness.ExperimentConfig(
        experiment="defect",
        preset=preset,
        preset_params={"scale": 2.0} if preset == "height-squared" else {},
        preset_b_params={"scale": 2.0},
        ks=ks,
        steps=4,
        flow_steps=flow_steps,
    )


def _prop53_config(ks=(8, 16)):
    return harness.ExperimentConfig(
        experiment="prop53",
        preset="time-mixed",
        ks=ks,
        grid_theta=8,
        grid_phi=16,
        steps=4,
    )


def test_sweeps_integrate_the_classical_flow_once_per_sweep(monkeypatch):
    # the classical stage runs on the grid of the largest level only, so
    # the lower levels add no flow work.  The defect sweep's first factor is
    # time-mixed, which RK4 integrates; a static axial one such as
    # height-squared has a closed-form flow and runs no RK4 at all
    point_steps = []
    advance = flow.advance_state

    def counted(h, y, m, t0, t1, steps=1):
        point_steps.append(steps * len(y))
        return advance(h, y, m, t0, t1, steps)

    monkeypatch.setattr(flow, "advance_state", counted)
    for sweep in (
        lambda ks: harness.run_prop53(_prop53_config(ks)),
        lambda ks: harness.run_defect(_defect_config(ks, preset="time-mixed")),
    ):
        totals = []
        for ks in ((8, 16), (16,)):
            point_steps.clear()
            sweep(ks)
            totals.append(sum(point_steps))
        assert totals[0] == totals[1] and totals[0] > 0
    point_steps.clear()
    harness.run_defect(_defect_config())
    assert point_steps == []


def test_sweeps_run_no_variational_equation(monkeypatch):
    # the flow's health is read from the area identity on the samples, so no
    # sweep asks the flow for Jacobians: prop53 as the claims workload runs
    # it (time-mixed, 32 Magnus and flow steps) at small ks, and the defect
    # with an RK4 (time-mixed) and a closed-form (height-squared) first factor
    calls = {None: 0, "jacobians": 0}
    advance = flow.advance_state

    def counted(h, y, m, t0, t1, steps=1):
        calls[None if m is None else "jacobians"] += 1
        return advance(h, y, m, t0, t1, steps)

    monkeypatch.setattr(flow, "advance_state", counted)
    claims = harness.ExperimentConfig(
        experiment="prop53", preset="time-mixed", ks=(4, 8), steps=32, flow_steps=32
    )
    reports = [
        harness.run_prop53(claims),
        harness.run_defect(_defect_config(preset="time-mixed", flow_steps=32)),
        harness.run_defect(_defect_config(flow_steps=32)),
    ]
    assert calls == {None: 3 * 32 - 1 + 8, "jacobians": 0}
    drifts = [report.summary["health"]["flow_area_drift"] for report in reports]
    assert 0.0 < drifts[0] < 1e-3 and 0.0 < drifts[1] < 1e-3 and drifts[2] == 0.0


def test_sweeps_take_the_modes_of_their_samples_once(monkeypatch):
    # the benchmark's claims prop53 and defect configurations: every level
    # reads the modes the first level took from the shared samples in one FFT
    # (prop53 took 64 Gauss times x 4 levels = 256); defect adds one per
    # polynomial group per level, 1 + 2 x 4 = 9 (72)
    calls = []
    fft = np.fft.fft

    def counted(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    ks = (8, 16, 32, 64)
    harness.run_prop53(
        harness.ExperimentConfig(
            experiment="prop53",
            preset="time-mixed",
            ks=ks,
            steps=32,
            flow_steps=32,
            grid_theta=12,
            grid_phi=24,
        )
    )
    assert len(calls) == 1
    calls.clear()
    harness.run_defect(
        harness.ExperimentConfig(
            experiment="defect",
            preset="height-squared",
            preset_params={"scale": 2.0},
            preset_b="x1",
            preset_b_params={"scale": 2.0},
            ks=ks,
            steps=8,
            flow_steps=32,
        )
    )
    assert len(calls) == 9


def test_sweeps_report_classical_time_and_flow_health():
    theorem1 = harness.run_theorem1_holomorphic(_theorem1_config("x1"))
    prop53 = harness.run_prop53(_prop53_config())
    defect = harness.run_defect(_defect_config(flow_steps=32))
    for report in (theorem1, prop53, defect):
        classical_s = report.summary["timings"]["classical_s"]
        assert np.isfinite(classical_s) and classical_s > 0
    for report in (prop53, defect):
        assert np.isfinite(report.summary["health"]["flow_area_drift"])
    # theorem 1 integrates no flow, so its health is the gate's remainder
    # and the cover-element residuals, without a flow drift
    assert list(theorem1.summary["health"]) == ["holomorphy_defect", "unitarity", "det_lift"]
    holomorphy_defect = theorem1.summary["health"]["holomorphy_defect"]
    assert np.isfinite(holomorphy_defect)
    assert holomorphy_defect <= propagate.HOLOMORPHY_TOL
    # recorded, not raised: the drift of 32 flow steps falls with the step
    # on a time-mixed first factor, and the closed-form flow of the static
    # axial height-squared is a rotation, whose drift is 0 by identity
    assert defect.summary["health"]["flow_area_drift"] == 0.0
    health = {
        n: harness.run_defect(_defect_config(flow_steps=n, preset="time-mixed")).summary["health"]
        for n in (32, 128)
    }
    assert health[128]["flow_area_drift"] <= health[32]["flow_area_drift"] / 10


def test_prop53_on_a_static_path_runs_no_flow_and_passes():
    # the RK4 error of the pulled-back height-squared grew with k and read
    # as a residual slope of 1.848, failing the sweep; H o phi_t = H leaves
    # only rounding, which the slope fit drops as noise
    config = harness.ExperimentConfig(
        experiment="prop53", preset="height-squared", ks=(4, 8), steps=4
    )
    report = harness.run_prop53(config)
    assert report.checks_passed
    assert report.summary["residual_slope"] is None
    assert report.summary["health"]["flow_area_drift"] == 0.0


def test_sweep_reports_keep_their_layout():
    # the CSV columns and the JSON summary follow these key orders, which
    # tools/workload_digest.py cannot see: it hashes dicts by sorted key
    def phase_columns(column):
        return ["k", "measured", "predicted", "residual", "cal", column, "lambda_prime", "runtime"]

    cover = ["unitarity", "det_lift"]
    layouts = [
        (
            harness.run_theorem1_holomorphic(_theorem1_config("x1")),
            phase_columns("sh_total"),
            ["max_residual", "tolerance", "max_relative_residual"],
            ["holomorphy_defect", *cover],
        ),
        (
            harness.run_prop53(_prop53_config()),
            phase_columns("curvature_pairing"),
            ["residual_slope", "slope_bound", "max_relative_residual"],
            ["flow_area_drift", *cover],
        ),
        (
            harness.run_defect(_defect_config()),
            ["k", "defect", "runtime"],
            ["max_defect", "defect_slope", "slope_bound"],
            ["flow_area_drift", "parity_drop", *cover],
        ),
    ]
    for report, columns, verdict, health in layouts:
        assert all(list(row) == columns for row in report.rows)
        assert list(report.summary) == [*verdict, "timings", "health"]
        assert list(report.summary["timings"]) == ["classical_s"]
        assert list(report.summary["health"]) == health


def test_prop53_relative_residual_is_fourth_order_in_the_steps_and_flat_in_k():
    # the residual is classical (time quadrature and RK4 area drift): its
    # relative size does not depend on k, and falls 2^4 per doubling of the
    # Magnus steps (1.4103e-7, 8.6097e-9, 5.3107e-10 at 16, 32, 64 steps)
    figures = []
    for steps in (16, 32, 64):
        config = harness.ExperimentConfig(
            experiment="prop53", preset="time-mixed", ks=(8, 16, 32), steps=steps
        )
        report = harness.run_prop53(config)
        relative = [abs(r["residual"] / r["predicted"]) for r in report.rows]
        assert max(relative) - min(relative) <= 1e-3 * max(relative), (steps, relative)
        assert report.summary["max_relative_residual"] == max(relative)
        figures.append(max(relative))
    for coarse, fine in zip(figures, figures[1:]):
        assert 14.0 <= coarse / fine <= 18.0, figures


def test_relative_residual_is_none_at_a_prediction_on_the_noise_floor():
    # Cal of x1 is rounding, so its predictions and their ratios are too
    report = harness.run_theorem1_holomorphic(_theorem1_config("x1"))
    assert all(abs(r["predicted"]) < 1e-12 for r in report.rows)
    assert report.summary["max_relative_residual"] is None
    tilted = harness.run_theorem1_holomorphic(_theorem1_config("tilted-height"))
    assert 0.0 <= tilted.summary["max_relative_residual"] < 1e-12


def _theorem1_config(preset, **params):
    return harness.ExperimentConfig(
        experiment="theorem1",
        preset=preset,
        preset_params=params,
        ks=(2, 4, 6, 8),
        grid_theta=8,
        grid_phi=16,
        steps=8,
        flow_steps=16,
        time_samples=8,
    )


def test_theorem1_admits_rotation_about_x1():
    report = harness.run_theorem1_holomorphic(_theorem1_config("x1"))
    assert report.checks_passed
    assert report.summary["max_residual"] <= report.summary["tolerance"]


def test_theorem1_refuses_non_holomorphic_flow_before_classical_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the Calabi invariant ran before the holomorphy gate")

    monkeypatch.setattr(sphere, "calabi", fail)
    with pytest.raises(propagate.HolomorphyError):
        harness.run_theorem1_holomorphic(_theorem1_config("height-squared"))


def test_theorem1_integrates_no_flow(monkeypatch):
    # the paths the exact holomorphy gate admits are rotations, whose disc
    # term is the identity 0: no RK4 step runs and sh_total is exactly 0
    def fail(*args, **kwargs):
        raise AssertionError("theorem 1 integrated a flow")

    monkeypatch.setattr(flow, "advance_state", fail)
    report = harness.run_theorem1_holomorphic(_theorem1_config("tilted-height", c=0.4))
    assert len(report.rows) == 4
    assert all(r["sh_total"] == 0.0 for r in report.rows)
    assert report.checks_passed


def test_brute_force_lattice_matches_solver():
    from spherequant.unitary_metric import LatticeProblem, solve_lattice

    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        args = rng.uniform(-np.pi, np.pi, size=n)
        target = args.sum() + 2.0 * np.pi * rng.integers(-2, 3)
        radius, theta_brute = harness.brute_force_lattice(args, target)
        radius_exact, theta = solve_lattice(LatticeProblem(args, target))
        assert abs(radius_exact - radius) < 1e-12
        assert abs(theta.sum() - target) < 1e-9


def test_haar_unitary_draws_what_scipy_draws():
    # the scipy sampler the distance sweep used before is kept as the oracle
    from scipy.stats import unitary_group

    for seed in range(20):
        for n in range(2, 9):
            ours = harness.haar_unitary(np.random.default_rng(seed), n)
            ref = unitary_group.rvs(n, random_state=np.random.default_rng(seed))
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)


def test_distance_sweep_summary_at_the_default_config():
    report = harness.run_distance_tests(harness.ExperimentConfig(experiment="distance"))
    assert report.checks_passed
    assert report.summary["worst"] == {
        "metric_axioms": 1.3322676295501878e-15,
        "norm_bounds": 0.0,
        "lattice_vs_brute_force": 0.0,
        "cover_bounds": 0.0,
        "small_distance_collapse": 0.0,
    }


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs more import time than any sweep of the benchmark runs
    src = str(Path(spherequant.__file__).resolve().parents[1])
    code = "import sys, spherequant.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_run_distance_tests_passes():
    cfg = harness.ExperimentConfig(experiment="distance", pairs=25, seed=1)
    report = harness.run_distance_tests(cfg)
    assert report.checks_passed
    assert len(report.rows) == 5


def test_run_distance_tests_reproducible():
    cfg = harness.ExperimentConfig(experiment="distance", pairs=10, seed=3)
    a = harness.run_distance_tests(cfg)
    b = harness.run_distance_tests(cfg)
    assert a.rows == b.rows


def test_report_write_creates_csv_and_json(tmp_path):
    report = harness.SweepReport(
        experiment="demo",
        config={"seed": 0},
        rows=[{"k": 4, "value": 1.0}],
        summary={"max": 1.0},
        checks_passed=True,
    )
    csv_path = report.write(tmp_path)
    assert csv_path.exists()
    meta = json.loads((tmp_path / "demo.json").read_text())
    assert meta["checks_passed"] is True
    assert meta["summary"]["max"] == 1.0


def test_cli_list_presets(capsys):
    code = cli_main(["--list-presets"])
    assert code == 0
    out = capsys.readouterr().out
    assert "height" in out
    assert "time-mixed" in out


def test_cli_distance_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "distance", "pairs": 10, "seed": 2}))
    out_dir = tmp_path / "out"
    code = cli_main(["distance", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "distance.csv").exists()
    assert (out_dir / "distance.json").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "distance", "ks": [8, 4]}))
    out_dir = tmp_path / "out"
    assert cli_main(["distance", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "ks must be strictly increasing" in capsys.readouterr().err
    assert not out_dir.exists()
    cfg.write_text(json.dumps({"experiment": "defect", "steps": 2.5}))
    assert cli_main(["defect", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "steps" in capsys.readouterr().err
    assert not out_dir.exists()
    cfg.write_text(json.dumps([{"pairs": 3}]))
    assert cli_main(["distance", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "JSON object" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_refuses_a_config_it_cannot_read(tmp_path, capsys):
    out_dir = tmp_path / "out"
    for path in (tmp_path / "missing.json", tmp_path):
        assert cli_main(["distance", "--config", str(path), "--out", str(out_dir)]) == 2
        assert f"cannot read config {path}" in capsys.readouterr().err
        assert not out_dir.exists()


def test_cli_refuses_a_nan_preset_parameter_before_the_sweep(tmp_path, capsys, monkeypatch):
    def sweep(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(harness, "run_prop53", sweep)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"preset": "height", "preset_params": {"scale": NaN}}')
    out_dir = tmp_path / "out"
    assert cli_main(["prop53", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "preset_params['scale'] must be a finite real number, got nan" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_refuses_a_non_string_out_before_the_sweep(tmp_path, capsys, monkeypatch):
    def sweep(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(harness, "run_distance_tests", sweep)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": 5, "pairs": 2}))
    out_dir = tmp_path / "out"
    assert cli_main(["distance", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "out must be a directory path or null, got 5" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_refuses_an_out_it_cannot_write_before_the_sweep(tmp_path, capsys, monkeypatch):
    # the sweep used to run in full and die in SweepReport.write with a
    # FileExistsError or NotADirectoryError traceback
    def sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(harness, "run_prop53", sweep)
    monkeypatch.setattr(harness, "run_toeplitz_dump", sweep)
    taken = tmp_path / "taken"
    taken.write_text("")
    for command, out, reason in (
        ("prop53", taken, "File exists"),
        ("toeplitz-dump", taken / "dump", "Not a directory"),
    ):
        assert cli_main([command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"spherequant {command}: cannot write reports to {out}: {reason}\n"
    assert taken.read_text() == ""


def test_cli_refused_at_the_holomorphy_gate_removes_only_the_out_it_made(
    tmp_path, capsys, monkeypatch
):
    # the refusal used to leave behind, empty, every --out directory the run
    # made before the sweep
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"preset": "height-squared", "ks": [4, 8], "steps": 4}))
    Path("kept").mkdir()
    for out in ("kept/fresh/sub", "kept"):
        assert cli_main(["theorem1", "--config", "cfg.json", "--out", out]) == 2
        assert "round complex structure" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "kept"]
        assert not any(Path("kept").iterdir())


def test_cli_config_file_may_leave_the_experiment_to_the_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pairs": 3}))
    out_dir = tmp_path / "out"
    assert cli_main(["distance", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "distance.json").exists()


def test_cli_exits_2_on_non_holomorphic_theorem1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1", "preset": "height-squared"}))
    code = cli_main(["theorem1", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "round complex structure" in capsys.readouterr().err


def test_cli_admits_a_fast_rotation_in_theorem1(tmp_path, capsys):
    # a rotation at scale 12 is holomorphic; the RK4 probe that gated
    # theorem 1 before the exact gate refused it as under-resolved (exit 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"experiment": "theorem1", "preset": "height", "preset_params": {"scale": 12}}
        )
    )
    code = cli_main(["theorem1", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "checks_passed: True" in capsys.readouterr().out
    assert (tmp_path / "out" / "theorem1.json").exists()


def test_cli_toeplitz_dump_uses_one_directory(tmp_path):
    report_dir = tmp_path / "report"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"experiment": "toeplitz-dump", "ks": [2, 4], "out": str(report_dir)})
    )
    cli_dir = tmp_path / "cli"
    assert cli_main(["toeplitz-dump", "--config", str(cfg), "--out", str(cli_dir)]) == 0
    assert sorted(p.name for p in report_dir.iterdir()) == [
        "toeplitz-dump.csv",
        "toeplitz-dump.json",
        "toeplitz_height_k2.npy",
        "toeplitz_height_k4.npy",
    ]
    assert not cli_dir.exists()


def test_console_entry_point_runs():
    # the child process imports the same package as this test, installed or not
    src = str(Path(spherequant.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spherequant.cli", "--list-presets"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "x1" in proc.stdout


def test_defect_records_what_the_parity_fold_drops():
    # the workload's product samples are certified on x1 (seed 57) or x2 (seed
    # 3): health.parity_drop is the largest relative part the fold dropped, over
    # the row operators and b.u a.u^H, and rounding at k <= 64; a product that
    # keeps no half turn runs the full route, and records null
    for axis in ("x1", "x2"):
        config = harness.ExperimentConfig(
            experiment="defect",
            preset="height-squared",
            preset_params={"scale": 2.0},
            preset_b=axis,
            preset_b_params={"scale": 2.0},
            ks=(8, 16, 32, 64),
            steps=8,
            flow_steps=32,
        )
        report = harness.run_defect(config)
        drop = report.summary["health"]["parity_drop"]
        assert np.isfinite(drop) and drop <= 1e-11, (axis, drop)
        assert report.checks_passed
    report = harness.run_defect(_defect_config(preset="height"))
    assert report.summary["health"]["parity_drop"] is None
