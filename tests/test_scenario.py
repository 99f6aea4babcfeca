import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fourlevel.cli import main
from fourlevel.scenario import ScenarioError, load_scenario
from fourlevel.solvers import LevelConfig

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, payload, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def minimal(config="tripod", target=None):
    if target is None:
        s = 1 / math.sqrt(3)
        target = [0.0, s, s, s]
    return {
        "config": config,
        "target": target,
        "T": 1.0,
        "phases": {"eps": [0, 0, 0], "eps_prime": [0, 0, 0]},
    }


class TestLoadScenario:
    def test_bundled_scenarios_load(self):
        for name, config in (
            ("tripod", LevelConfig.INVERSE_TRIPOD),
            ("diamond", LevelConfig.DIAMOND),
            ("ntype", LevelConfig.N_TYPE),
        ):
            sc = load_scenario(SCENARIO_DIR / f"{name}.json")
            assert sc.config is config
            assert sc.T > 0 and sc.steps >= 100

    def test_minimal_scenario(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, minimal()))
        assert sc.config is LevelConfig.INVERSE_TRIPOD
        assert not hasattr(sc, "ansatz")  # the solvers' pulse is always a CosineRamp
        assert sc.steps == 2000

    def test_unknown_key_rejected(self, tmp_path):
        payload = minimal()
        payload["tartget"] = [1, 0, 0, 0]  # deliberate typo
        with pytest.raises(ScenarioError, match="tartget"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_unknown_config_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="config"):
            load_scenario(write_scenario(tmp_path, minimal(config="pentagon")))

    def test_missing_required_key(self, tmp_path):
        payload = minimal()
        del payload["T"]
        with pytest.raises(ScenarioError, match="T"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_unnormalized_target_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, minimal(target=[1, 1, 0, 0])))

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_json_array_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="must be a JSON object"):
            load_scenario(write_scenario(tmp_path, [minimal()]))

    def test_target_that_is_not_a_list_rejected(self, tmp_path):
        payload = minimal()
        payload["target"] = {"b1": 1.0}
        with pytest.raises(ScenarioError, match="target must be 4 finite numbers"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    def test_free_params_pass_through(self, tmp_path):
        payload = minimal(config="diamond", target=[0, 1, 0, 0])
        payload["free_params"] = {"theta1": 1.0}
        sc = load_scenario(write_scenario(tmp_path, payload))
        assert sc.target.free_params == {"theta1": 1.0}

    def test_unknown_free_param_rejected(self, tmp_path):
        payload = minimal(config="diamond", target=[0, 1, 0, 0])
        payload["free_params"] = {"theta_1": 0.3}  # deliberate typo
        with pytest.raises(ScenarioError, match="theta_1"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_qo_levels_parsed(self, tmp_path):
        payload = minimal(config="diamond", target=[0, 1, 0, 0])
        payload["qo"] = {"omega_levels": [10.0, 13.5, 26.0]}
        sc = load_scenario(write_scenario(tmp_path, payload))
        np.testing.assert_array_equal(sc.omega_levels, [10.0, 13.5, 26.0])

    def test_unknown_phase_key_rejected(self, tmp_path):
        payload = minimal()
        payload["phases"]["epz"] = [0, 0, 0]
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, payload))

    @pytest.mark.parametrize(
        "config, key, value",
        [
            ("tripod", "free_params", {"theta1": 1.0}),
            ("tripod", "initial_guess", [0.5, 1.5, -1.5]),
            ("diamond", "initial_guess", [0.5, 1.5, -1.5]),
            ("ntype", "free_params", {"theta1": 1.0}),
            ("tripod", "qo", {"omega_levels": [1000, 1350, 2600]}),
            ("ntype", "qo", {"omega_levels": [1000, 1350, 2600]}),
        ],
    )
    def test_key_of_another_config_rejected(self, tmp_path, capsys, config, key, value):
        # free_params is read by the diamond solve alone, initial_guess by the
        # N-type's and qo by the diamond's qomap: elsewhere each would be
        # dropped without a word; the CLI reports it as a validation failure
        payload = minimal(config=config, target=[0, 1, 0, 0])
        payload[key] = value
        scenario = write_scenario(tmp_path, payload)
        with pytest.raises(ScenarioError, match=f"{key} is read by .* not {config}"):
            load_scenario(scenario)
        assert main(["solve", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().out.startswith(f"validation failure: {key} is read by")

    def test_initial_guess_parsed(self, tmp_path):
        payload = minimal(config="ntype", target=[0, 0, 0, 1])
        payload["initial_guess"] = [0.5, 1.5, -1.5]
        sc = load_scenario(write_scenario(tmp_path, payload))
        assert sc.initial_guess == (0.5, 1.5, -1.5)


class TestScenarioValidate:
    def test_rejects_negative_horizon(self, tmp_path):
        payload = minimal()
        payload["T"] = -1.0
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, payload))

    @pytest.mark.parametrize("horizon", [1e-310, 1.7e308])
    def test_rejects_overflowing_horizon(self, tmp_path, horizon):
        payload = minimal()
        payload["T"] = horizon
        with pytest.raises(ScenarioError, match="overflows"):
            load_scenario(write_scenario(tmp_path, payload))

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, 1e-320])
    def test_bad_horizon_error_names_T(self, tmp_path, horizon):
        # the phase schedule holds T and checks it; the error names T
        payload = minimal()
        payload["T"] = horizon
        with pytest.raises(ScenarioError, match="horizon T"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_T_is_the_phase_schedules(self):
        sc = load_scenario(SCENARIO_DIR / "tripod.json")
        assert "T" not in {f.name for f in dataclasses.fields(sc)}
        assert sc.T == sc.phases.T == 1.0

    def test_rejects_too_few_steps(self, tmp_path):
        payload = minimal()
        payload["steps"] = 10
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, payload))

    def test_rejects_unknown_ansatz(self, tmp_path):
        payload = minimal()
        payload["ansatz"] = {"name": "linear_ramp"}
        with pytest.raises(ScenarioError, match="unknown ansatz .*linear_ramp"):
            load_scenario(write_scenario(tmp_path, payload))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("T", "abc"),
            ("T", [1]),
            ("steps", "abc"),
            ("steps", 150.7),
            ("target", [1, 0, 0, "x"]),
            ("qo", {}),
            ("free_params", {"theta1": True}),
            ("free_params", {"theta1": math.nan}),
            ("target", [True, 0, 0, 0]),
            ("phases", {"eps": [0, True, 0], "eps_prime": [0, 0, 0]}),
            ("phases", {"eps": [0, 0, 0], "eps_prime": [False, 0, 0]}),
            ("initial_guess", [0.5, True, -1.5]),
            ("qo", {"omega_levels": [1000.0, 1350.0, True]}),
        ],
    )
    def test_malformed_value_rejected(self, tmp_path, key, value):
        # initial_guess is read by the N-type alone, the other keys by the diamond
        config = "ntype" if key == "initial_guess" else "diamond"
        payload = minimal(config=config, target=[0, 1, 0, 0])
        payload[key] = value
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, payload))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("T", 10**400),
            ("target", [0, 10**400, 0, 0]),
            ("phases", {"eps": [0, 0, 10**400], "eps_prime": [0, 0, 0]}),
            ("qo", {"omega_levels": [1000.0, 10**400, 2600.0]}),
        ],
    )
    def test_integer_beyond_float_range_rejected(self, tmp_path, key, value):
        # JSON integers are unbounded; one that no float holds is rejected
        # as a bad number, not as an OverflowError from the finiteness check
        payload = minimal(config="diamond", target=[0, 1, 0, 0])
        payload[key] = value
        with pytest.raises(ScenarioError, match="must be a finite number"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_replace_revalidates(self):
        sc = load_scenario(SCENARIO_DIR / "tripod.json")
        assert dataclasses.replace(sc, steps=500).steps == 500
        # one test of the step count with propagate's, which takes numpy integers
        assert dataclasses.replace(sc, steps=np.int64(500)).steps == 500
        with pytest.raises(ScenarioError, match="steps"):
            dataclasses.replace(sc, steps=10)
