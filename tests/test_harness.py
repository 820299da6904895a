import json
import subprocess
import sys

import numpy as np
import pytest

from spherequant import harness
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


def test_config_rejects_bad_k_list():
    with pytest.raises(ValueError):
        harness.ExperimentConfig(experiment="defect", ks=(8, 8))
    with pytest.raises(ValueError):
        harness.ExperimentConfig(experiment="defect", ks=(16, 8))


def test_config_rejects_bad_resolution():
    with pytest.raises(ValueError):
        harness.ExperimentConfig(experiment="defect", steps=0)


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


def test_cli_rejects_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "distance", "ks": [8, 4]}))
    with pytest.raises(ValueError):
        cli_main(["distance", "--config", str(cfg)])


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spherequant.cli", "--list-presets"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "x1" in proc.stdout
