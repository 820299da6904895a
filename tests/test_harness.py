import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spherequant
from spherequant import flow, harness, invariants, propagate
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
        raise AssertionError("the disc flux ran before the holomorphy gate")

    monkeypatch.setattr(invariants, "shelukhin", fail)
    with pytest.raises(propagate.HolomorphyError):
        harness.run_theorem1_holomorphic(_theorem1_config("height-squared"))


def test_theorem1_probes_holomorphy_once_per_sweep(monkeypatch):
    calls = []
    evaluate = flow.PushforwardStructure.evaluate

    def counted(self, *args, **kwargs):
        calls.append(self.t)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(flow.PushforwardStructure, "evaluate", counted)
    report = harness.run_theorem1_holomorphic(_theorem1_config("tilted-height", c=0.4))
    assert len(report.rows) == 4
    assert calls == [1.0]


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


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "distance", "ks": [8, 4]}))
    out_dir = tmp_path / "out"
    assert cli_main(["distance", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "ks must be strictly increasing" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_exits_2_on_non_holomorphic_theorem1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1", "preset": "height-squared"}))
    code = cli_main(["theorem1", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "round complex structure" in capsys.readouterr().err


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
