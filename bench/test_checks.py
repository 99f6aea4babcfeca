"""Tests of the benchmark's reference routines and output checks.

    python3 -m pytest bench

Each check must pass on the program's real output and reject a
deliberately wrong one.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

import checks
import reference as ref
from checks import CheckError
from inputs import SCENARIOS, use_repo_src

use_repo_src()
import fourlevel  # noqa: E402
import fourlevel.cli  # noqa: E402
import fourlevel.qo  # noqa: E402

RNG = np.random.default_rng(7)
ANGLES = RNG.uniform(-4.0, 4.0, size=(50, 6))
RATES = RNG.uniform(-3.0, 3.0, size=(50, 6))


def test_reference_evolution_is_a_rotation():
    u = ref.evolution(ANGLES)
    eye = np.broadcast_to(np.eye(4), u.shape)
    assert np.max(np.abs(u @ np.swapaxes(u, -1, -2) - eye)) < 1e-13
    assert np.max(np.abs(np.linalg.det(u) - 1.0)) < 1e-13


def test_reference_final_state_is_first_column():
    assert np.max(np.abs(ref.final_state(ANGLES) - ref.evolution(ANGLES)[..., 0])) < 1e-14


def test_reference_generator_matches_finite_difference():
    h = 1e-6
    du = (ref.evolution(ANGLES + h * RATES) - ref.evolution(ANGLES - h * RATES)) / (2 * h)
    fd = du @ np.swapaxes(ref.evolution(ANGLES), -1, -2)
    assert np.max(np.abs(fd - ref.generator(ANGLES, RATES))) < 1e-8


def test_reference_generator_is_antisymmetric():
    g = ref.generator(ANGLES, RATES)
    assert np.max(np.abs(g + np.swapaxes(g, -1, -2))) < 1e-13


def test_cosine_ramp_rates_match_finite_difference():
    boundary = ANGLES[0]
    t = np.linspace(0.01, 0.99, 9)
    h = 1e-6
    fd = (ref.cosine_ramp(boundary, 1.0, t + h)[0] - ref.cosine_ramp(boundary, 1.0, t - h)[0]) / (2 * h)
    assert np.max(np.abs(fd - ref.cosine_ramp(boundary, 1.0, t)[1])) < 1e-8


# -- target_sweep ------------------------------------------------------------


def _solution(config):
    b = np.array([0.3, -0.5, 0.7, 0.4])
    b /= np.linalg.norm(b)
    solve = {"tripod": fourlevel.solve_tripod, "diamond": fourlevel.solve_diamond,
             "ntype": fourlevel.solve_ntype}[config]
    solved = solve(fourlevel.TargetSpec(b))
    sched = solved.schedule
    return (b, solved.boundary.as_array(), lambda t: sched.value(t).as_array(),
            lambda t: sched.rate(t).as_array())


@pytest.mark.parametrize("config", ["tripod", "diamond"])
def test_check_solution_accepts_the_program_and_rejects_a_perturbed_target(config):
    b, boundary, value, rate = _solution(config)
    checks.check_solution(config, b, boundary, value, rate, 1.0)
    wrong = b + np.array([0.0, 1e-6, 0.0, 0.0])
    with pytest.raises(CheckError, match="misses the target"):
        checks.check_solution(config, wrong / np.linalg.norm(wrong), boundary, value, rate, 1.0)


def test_check_solution_rejects_a_forbidden_coupling():
    b, boundary, value, rate = _solution("diamond")
    # the diamond's pulses drive omega23 when read as a tripod
    with pytest.raises(CheckError, match="forbidden coupling"):
        checks.check_solution("tripod", b, boundary, value, rate, 1.0)


def test_check_solution_rejects_a_schedule_that_misses_its_ends():
    b, boundary, value, rate = _solution("tripod")
    with pytest.raises(CheckError, match="value\\(T\\)"):
        checks.check_solution("tripod", b, boundary, lambda t: value(t) * 0.999, rate, 1.0)
    with pytest.raises(CheckError, match="value\\(0\\)"):
        checks.check_solution("tripod", b, boundary, lambda t: value(t) + 0.01, rate, 1.0)


# -- example_pulses ----------------------------------------------------------

EXAMPLES = {"tripod": ("solve", "simulate"), "diamond": ("solve", "simulate", "qomap")}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("examples")
    scenarios = {}
    for name, commands in EXAMPLES.items():
        scenarios[name] = json.loads((SCENARIOS / f"{name}.json").read_text())
        for command in commands:
            argv = [command, "--scenario", str(SCENARIOS / f"{name}.json"),
                    "--out", str(root / name / command)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert fourlevel.cli.main(argv) == 0
    return root, scenarios


def _rewrite(path, edit):
    header, rows = checks.read_csv(path)
    header, rows = edit(list(header), rows.copy())
    lines = [",".join(header)] + [",".join(f"{v:.12g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_example_outputs_pass(outputs):
    root, scenarios = outputs
    checks.check_example_outputs(root, scenarios)


def test_check_couplings_rejects_a_swapped_column(outputs, tmp_path):
    root, scenarios = outputs
    path = tmp_path / "couplings.csv"
    path.write_bytes((root / "diamond" / "simulate" / "couplings.csv").read_bytes())
    angles = json.loads((root / "diamond" / "solve" / "angles.json").read_text())
    checks.check_couplings(*checks.read_csv(path), angles, scenarios["diamond"])

    def swap(header, rows):
        i, j = header.index("omega13"), header.index("omega34")
        rows[:, [i, j]] = rows[:, [j, i]]
        return header, rows

    _rewrite(path, swap)
    with pytest.raises(CheckError, match="differ from the reference"):
        checks.check_couplings(*checks.read_csv(path), angles, scenarios["diamond"])


def test_check_couplings_rejects_a_forbidden_column(outputs, tmp_path):
    root, scenarios = outputs
    path = tmp_path / "couplings.csv"
    path.write_bytes((root / "diamond" / "simulate" / "couplings.csv").read_bytes())

    def swap(header, rows):
        i, j = header.index("omega12"), header.index("omega23")
        rows[:, [i, j]] = rows[:, [j, i]]
        return header, rows

    _rewrite(path, swap)
    angles = json.loads((root / "diamond" / "solve" / "angles.json").read_text())
    with pytest.raises(CheckError, match="forbidden column omega23"):
        checks.check_couplings(*checks.read_csv(path), angles, scenarios["diamond"])


def test_check_populations_rejects_a_wrong_phase(outputs, tmp_path):
    root, scenarios = outputs
    path = tmp_path / "populations.csv"
    path.write_bytes((root / "tripod" / "simulate" / "populations.csv").read_bytes())

    def shift(header, rows):
        rows[-1, header.index("phi3")] += 1e-3
        return header, rows

    _rewrite(path, shift)
    with pytest.raises(CheckError, match="target phases"):
        checks.check_populations(*checks.read_csv(path), scenarios["tripod"])


def test_check_populations_accepts_a_phase_off_by_two_pi(outputs, tmp_path):
    root, scenarios = outputs
    path = tmp_path / "populations.csv"
    path.write_bytes((root / "tripod" / "simulate" / "populations.csv").read_bytes())

    def shift(header, rows):
        rows[-1, header.index("phi3")] -= 2 * math.pi
        return header, rows

    _rewrite(path, shift)
    checks.check_populations(*checks.read_csv(path), scenarios["tripod"])


def test_check_populations_rejects_a_perturbed_target(outputs):
    root, scenarios = outputs
    scenario = dict(scenarios["tripod"])
    b = np.array(scenario["target"]) + np.array([0.0, 1e-3, -1e-3, 0.0])
    scenario["target"] = list(b / np.linalg.norm(b))
    header, rows = checks.read_csv(root / "tripod" / "simulate" / "populations.csv")
    with pytest.raises(CheckError, match="final populations"):
        checks.check_populations(header, rows, scenario)
    angles = json.loads((root / "tripod" / "solve" / "angles.json").read_text())
    with pytest.raises(CheckError, match="misses the target"):
        checks.check_angles(angles, scenario)


def test_check_populations_rejects_a_lost_norm(outputs, tmp_path):
    root, scenarios = outputs
    path = tmp_path / "populations.csv"
    path.write_bytes((root / "tripod" / "simulate" / "populations.csv").read_bytes())

    def scale(header, rows):
        rows[100, header.index("p2")] *= 1.001
        return header, rows

    _rewrite(path, scale)
    with pytest.raises(CheckError, match="sum to 1"):
        checks.check_populations(*checks.read_csv(path), scenarios["tripod"])


def test_check_verify_stdout():
    checks.check_verify_stdout("PASS a = 1e-12 (< 1e-08)\nPASS b = 0 (< 1e-06)\n")
    with pytest.raises(CheckError):
        checks.check_verify_stdout("PASS a = 1e-12 (< 1e-08)\nFAIL b = 1 (< 1e-06)\n")
    with pytest.raises(CheckError):
        checks.check_verify_stdout("")


def test_check_qomap_rejects_broken_resonance_and_wrong_detuning(outputs):
    root, scenarios = outputs
    qomap = json.loads((root / "diamond" / "qomap" / "qomap.json").read_text())
    checks.check_qomap(qomap, scenarios["diamond"])
    broken = json.loads(json.dumps(qomap))
    broken["laser_frequencies"]["34"] += 1e-6
    with pytest.raises(CheckError, match="resonance"):
        checks.check_qomap(broken, scenarios["diamond"])
    wrong_phase = json.loads(json.dumps(scenarios["diamond"]))
    wrong_phase["phases"]["eps_prime"][1] += 0.1
    with pytest.raises(CheckError, match="RWA diagonal"):
        checks.check_qomap(qomap, wrong_phase)


def test_check_rabi_rejects_a_swapped_column(outputs, tmp_path):
    root, _ = outputs
    path = tmp_path / "rabi.csv"
    path.write_bytes((root / "diamond" / "qomap" / "rabi.csv").read_bytes())

    def swap(header, rows):
        i, j = header.index("re12"), header.index("re13")
        rows[:, [i, j]] = rows[:, [j, i]]
        return header, rows

    _rewrite(path, swap)
    coup = checks.read_csv(root / "diamond" / "simulate" / "couplings.csv")
    with pytest.raises(CheckError, match="Rabi"):
        checks.check_rabi(*checks.read_csv(path), *coup)


def test_check_identical(outputs, tmp_path):
    root, _ = outputs
    for rel in ("tripod/solve/angles.json", "tripod/simulate/couplings.csv"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes((root / rel).read_bytes())
    ref_dir = root / "tripod"
    (tmp_path / "tripod" / "simulate" / "populations.csv").write_bytes(
        (ref_dir / "simulate" / "populations.csv").read_bytes())
    checks.check_identical(ref_dir, tmp_path / "tripod")
    data = (tmp_path / "tripod" / "solve" / "angles.json").read_bytes()
    (tmp_path / "tripod" / "solve" / "angles.json").write_bytes(data.replace(b"1", b"2", 1))
    with pytest.raises(CheckError, match="differs"):
        checks.check_identical(ref_dir, tmp_path / "tripod")


# -- qo_lab_frame ------------------------------------------------------------


@pytest.fixture(scope="module")
def diamond_qo():
    scenario = json.loads((SCENARIOS / "diamond.json").read_text())
    sc = fourlevel.scenario.load_scenario(SCENARIOS / "diamond.json")
    solved = fourlevel.solve_diamond(sc.target, sc.T)
    sched = solved.schedule

    def couplings(t):
        return fourlevel.rotation.hr_analytic(sched.value(t), sched.rate(t))

    qo = fourlevel.qo.engineered_to_qo(couplings, sc.phases, sc.omega_levels)
    return scenario, solved.boundary.as_array(), qo


def test_check_rwa_hamiltonian_rejects_a_wrong_phase(diamond_qo):
    scenario, boundary, qo = diamond_qo
    t = np.linspace(0.0, 1.0, 11)
    h = np.array([fourlevel.qo.rwa_hamiltonian(qo, s) for s in t])
    checks.check_rwa_hamiltonian(h, t, boundary, scenario)
    wrong = json.loads(json.dumps(scenario))
    wrong["phases"]["eps_prime"][1] += 1e-3
    with pytest.raises(CheckError, match="RWA Hamiltonian"):
        checks.check_rwa_hamiltonian(h, t, boundary, wrong)


def test_check_resonance_and_fields(diamond_qo):
    scenario, _, qo = diamond_qo
    fields = dict(qo.omega_fields)
    checks.check_resonance(fields)
    phases = scenario["phases"]
    expected = ref.carrier_fields(scenario["qo"]["omega_levels"], phases["eps"],
                                  phases["eps_prime"], scenario["T"])
    checks.check_fields(fields, expected)
    fields["34"] += 1e-9
    with pytest.raises(CheckError, match="resonance"):
        checks.check_resonance(fields)
    with pytest.raises(CheckError, match="reference"):
        checks.check_fields(dict(qo.omega_fields, **{"12": fields["12"] + 1e-6}), expected)


def test_qo_population_and_norm_checks():
    b = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
    assert checks.check_final_populations(b * 1j, b, 1e-12, "exact") < 1e-15
    with pytest.raises(CheckError, match="miss"):
        checks.check_final_populations(np.array([0.1, 0.7, 0.7, 0.1]), b, 1e-3, "off")
    checks.check_norm(np.array([[1.0, 0, 0, 0], [0, 0.6, 0.8j, 0]]), "unit")
    with pytest.raises(CheckError, match="norm drift"):
        checks.check_norm(np.array([[1.0, 0, 0, 0], [0, 0.6, 0.8001, 0]]), "lossy")


def test_check_gap_falls():
    checks.check_gap_falls([(1e3, 6e-7), (3e2, 6e-6)])
    with pytest.raises(CheckError, match="does not fall"):
        checks.check_gap_falls([(1e3, 6e-6), (3e2, 6e-7)])


def test_rwa_error_estimate_shrinks_with_the_carrier(diamond_qo):
    _, boundary, qo = diamond_qo
    fields = dict(qo.omega_fields)
    low = checks.rwa_error_estimate(boundary, 1.0, {k: v * 0.3 for k, v in fields.items()})
    high = checks.rwa_error_estimate(boundary, 1.0, fields)
    assert high < low
    assert math.isclose(low / high, (1 / 0.3) ** 2)
