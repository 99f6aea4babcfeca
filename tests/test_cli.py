import json
import math
from pathlib import Path

import numpy as np
import pytest

import fourlevel.cli
import fourlevel.rotation
import fourlevel.solvers
from fourlevel.cli import main

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def run(command, scenario, out, *extra):
    return main([command, "--scenario", str(scenario), "--out", str(out), *extra])


def write_scenario(tmp_path, payload, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


class TestSolve:
    def test_tripod_angles(self, tmp_path):
        assert run("solve", SCENARIO_DIR / "tripod.json", tmp_path) == 0
        payload = json.loads((tmp_path / "angles.json").read_text())
        angles = payload["boundary_angles"]
        assert angles["gamma1"] == pytest.approx(math.pi / 4)
        assert angles["theta1"] == pytest.approx(math.atan(math.sqrt(2)))
        assert angles["phi1"] == pytest.approx(math.pi / 4)
        assert payload["final_state_residual"] < 1e-10
        assert payload["within_canonical_ranges"] is True

    def test_identity_target(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "config": "tripod",
                "target": [1.0, 0.0, 0.0, 0.0],
                "T": 1.0,
                "phases": {"eps": [0, 0, 0], "eps_prime": [0, 0, 0]},
            },
        )
        out = tmp_path / "out"
        assert run("solve", scenario, out) == 0
        payload = json.loads((out / "angles.json").read_text())
        assert all(v == 0.0 for v in payload["boundary_angles"].values())
        assert payload["final_state_residual"] == 0.0


class TestSimulate:
    def test_tripod_outputs(self, tmp_path):
        assert run("simulate", SCENARIO_DIR / "tripod.json", tmp_path) == 0
        header, data = read_csv(tmp_path / "populations.csv")
        assert header == ["t", "p1", "p2", "p3", "p4", "phi2", "phi3", "phi4"]
        np.testing.assert_allclose(
            data[-1, 1:5], [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-6
        )
        np.testing.assert_allclose(data[-1, 5:], math.pi / 3, atol=1e-5)
        header, data = read_csv(tmp_path / "couplings.csv")
        assert header == [
            "t", "omega12", "omega13", "omega14", "omega23", "omega24", "omega34",
        ]
        np.testing.assert_allclose(data[:, 4:], 0, atol=1e-12)

    def test_diamond_final_row(self, tmp_path):
        assert run("simulate", SCENARIO_DIR / "diamond.json", tmp_path) == 0
        _, data = read_csv(tmp_path / "populations.csv")
        np.testing.assert_allclose(data[-1, 1:5], [0, 0.5, 0.5, 0], atol=1e-6)
        phi2, phi3 = data[-1, 5], data[-1, 6]
        assert abs(phi3 - phi2 - math.pi / 2) < 1e-5

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", SCENARIO_DIR / "ntype.json", out1) == 0
        assert run("simulate", SCENARIO_DIR / "ntype.json", out2) == 0
        for name in ("couplings.csv", "populations.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csv_format(self, tmp_path):
        assert run("simulate", SCENARIO_DIR / "tripod.json", tmp_path, "--steps", "200") == 0
        raw = (tmp_path / "populations.csv").read_bytes()
        assert b"\r" not in raw  # LF-only line endings
        assert raw.endswith(b"\n")

    def test_steps_override(self, tmp_path):
        assert run("simulate", SCENARIO_DIR / "tripod.json", tmp_path, "--steps", "500") == 0
        _, data = read_csv(tmp_path / "populations.csv")
        assert data.shape[0] == 501


class TestQomap:
    def test_diamond_mapping(self, tmp_path):
        assert run("qomap", SCENARIO_DIR / "diamond.json", tmp_path) == 0
        payload = json.loads((tmp_path / "qomap.json").read_text())
        assert payload["resonance_residual"] < 1e-12
        freqs = payload["laser_frequencies"]
        assert abs(
            freqs["13"] + freqs["34"] - freqs["12"] - freqs["24"]
        ) < 1e-12
        header, data = read_csv(tmp_path / "rabi.csv")
        assert header[0] == "t" and len(header) == 9
        np.testing.assert_allclose(data[0, 1:], 0, atol=1e-12)  # pulses start at zero

    def test_rejects_non_diamond(self, tmp_path):
        assert run("qomap", SCENARIO_DIR / "tripod.json", tmp_path) == 1

    def test_rejects_missing_levels(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "config": "diamond",
                "target": [0.0, 1.0, 0.0, 0.0],
                "T": 1.0,
                "phases": {"eps": [0, 0, 0], "eps_prime": [0, 0, 0]},
            },
        )
        assert run("qomap", scenario, tmp_path / "out") == 1


class TestVerify:
    @pytest.mark.parametrize("name", ["tripod", "diamond", "ntype"])
    def test_bundled_scenarios_pass(self, tmp_path, name, capsys):
        assert run("verify", SCENARIO_DIR / f"{name}.json", tmp_path) == 0
        report = capsys.readouterr().out
        assert "FAIL" not in report
        assert report.count("PASS") == 5

    def test_one_generator_evaluation_per_grid_point(self, tmp_path, monkeypatch):
        # the solver's residual check samples 50 points and verify's 200;
        # each point needs one finite-difference generator, whatever the
        # number of forbidden couplings
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return fourlevel.rotation.hr_numeric(*args, **kwargs)

        # count the calls whichever module makes them
        for module in (fourlevel.solvers, fourlevel.cli):
            monkeypatch.setattr(module, "hr_numeric", counting, raising=False)
        assert run("verify", SCENARIO_DIR / "tripod.json", tmp_path, "--steps", "100") == 0
        assert len(calls) == 50 + 200


class TestExitCodes:
    def test_validation_failure(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "config": "tripod",
                "target": [1.0, 1.0, 0.0, 0.0],  # not normalized
                "T": 1.0,
                "phases": {"eps": [0, 0, 0], "eps_prime": [0, 0, 0]},
            },
        )
        assert run("solve", scenario, tmp_path / "out") == 1

    def test_solver_failure(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "config": "diamond",
                "target": [0.0, 1.0, 0.0, 0.0],
                "T": 1.0,
                "phases": {"eps": [0, 0, 0], "eps_prime": [0, 0, 0]},
                "free_params": {"theta1": 0.0},  # singular parameterization
            },
        )
        assert run("solve", scenario, tmp_path / "out") == 2

    def test_missing_scenario_file(self, tmp_path):
        assert run("solve", tmp_path / "absent.json", tmp_path / "out") == 1
