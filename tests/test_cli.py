import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourlevel.cli
import fourlevel.rotation
import fourlevel.solvers
from fourlevel.cli import main
from fourlevel.propagator import AccuracyError
from fourlevel.qo import engineered_to_qo, lab_hamiltonian, rwa_hamiltonian
from fourlevel.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def run(command, scenario, out, *extra):
    return main([command, "--scenario", str(scenario), "--out", str(out), *extra])


def write_scenario(tmp_path, payload, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_fresh(command, scenario, out):
    """The command through python -m fourlevel.cli in a fresh interpreter,
    whose warnings go to stderr as numpy's defaults send them."""
    src = Path(fourlevel.cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "fourlevel.cli", command, "--scenario", str(scenario), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


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
        # v1 = v2 = log(b)/2 has |v| <= pi/2, and its view gamma = |v| >= 0
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

    def test_csv_cells_are_python_12g_format(self, tmp_path, rng):
        # the row template must print every value as f"{x:.12g}" does
        special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, 1e-13]
        scales = 10.0 ** rng.integers(-300, 300, size=100_000)
        values = np.concatenate((special, rng.normal(size=100_000) * scales))
        rows = values[: len(values) // 3 * 3].reshape(-1, 3)
        fourlevel.cli._write_csv(tmp_path / "x.csv", ["a", "b", "c"], rows)
        expected = ["a,b,c"] + [",".join(f"{x:.12g}" for x in row) for row in rows.tolist()]
        assert (tmp_path / "x.csv").read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_csv_cells_at_the_12g_switch_points(self, tmp_path):
        # the one-% body prints each cell as "%.12g" alone would, at the
        # signed zero, where %g turns to exponent form (1e-4 and 1e12), at
        # long mantissas and at the subnormal end
        values = [-0.0, 9.99999999999e-5, 1e-5, 1e12, 1e16, 1e-300, 5e-324]
        rows = np.array([values, values[::-1]])
        fourlevel.cli._write_csv(tmp_path / "x.csv", list("abcdefg"), rows)
        expected = ["a,b,c,d,e,f,g"] + [",".join("%.12g" % x for x in row) for row in rows.tolist()]
        assert (tmp_path / "x.csv").read_text() == "\n".join(expected) + "\n"
        assert expected[1] == "-0,9.99999999999e-05,1e-05,1e+12,1e+16,1e-300,4.94065645841e-324"
        fourlevel.cli._write_csv(tmp_path / "empty.csv", ["a", "b"], np.zeros((0, 2)))
        assert (tmp_path / "empty.csv").read_text() == "a,b\n"

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

    def test_one_coupling_evaluation_per_grid(self, tmp_path, monkeypatch):
        # one drive read gives all four Rabi amplitudes, and it takes the
        # whole time array: the diamond-type probe and all rabi.csv rows
        # evaluate the couplings r'(t) G once each, and so does a
        # Hamiltonian evaluated at one time or on a grid
        shapes = spy_couplings(monkeypatch)
        assert run("qomap", SCENARIO_DIR / "diamond.json", tmp_path, "--steps", "100") == 0
        assert shapes == [(3,), (101,)]  # the probe, then all rows

        sc = load_scenario(SCENARIO_DIR / "diamond.json")
        solved = fourlevel.cli._solve(sc)
        qo = engineered_to_qo(solved.schedule.couplings, sc.phases, sc.omega_levels)
        for hamiltonian in (lab_hamiltonian, rwa_hamiltonian):
            for t in (0.3, np.linspace(0.0, 1.0, 7)):
                shapes.clear()
                hamiltonian(qo, t)
                assert shapes == [np.shape(t)]

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

    def test_one_generator_evaluation_per_grid(self, tmp_path, monkeypatch):
        # the solve reads no generator; verify reads the ramp's constant
        # generator G off v1, v2 once for its residual view, and the
        # propagation takes 2 Gauss nodes per step in one evaluation of
        # r'(t) G, which reads G once more; the finite-difference generator
        # is a test oracle, not part of the library
        calls, shapes = spy_generator_reads(monkeypatch), spy_couplings(monkeypatch)
        assert run("verify", SCENARIO_DIR / "tripod.json", tmp_path, "--steps", "100") == 0
        assert calls == {"_read_off": 2} and shapes == [(200,)]
        for module in (fourlevel, fourlevel.rotation, fourlevel.solvers, fourlevel.cli):
            assert not hasattr(module, "hr_numeric")

    @pytest.mark.parametrize("name", ["tripod", "diamond", "ntype"])
    def test_reports_the_solve_residual(self, tmp_path, name, capsys):
        # forbidden_couplings_max is angles.json's constraint_residual
        assert run("solve", SCENARIO_DIR / f"{name}.json", tmp_path / "solve") == 0
        residual = json.loads((tmp_path / "solve" / "angles.json").read_text())["constraint_residual"]
        capsys.readouterr()
        assert run("verify", SCENARIO_DIR / f"{name}.json", tmp_path / "verify") == 0
        assert f"forbidden_couplings_max = {residual:.3e} (" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["tripod", "diamond", "ntype"])
    def test_short_horizon_passes(self, tmp_path, name, capsys):
        # G's forbidden entries are exactly 0 for every topology, as each
        # solver assigns the rotation vectors that meet its constraints, so
        # the gate holds at T = 1e-9, where the peak rate pi/(2T) would scale
        # a rounding-level entry above 1e-8
        payload = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        scenario = write_scenario(tmp_path, {**payload, "T": 1e-9})
        assert run("solve", scenario, tmp_path / "solve") == 0
        angles = json.loads((tmp_path / "solve" / "angles.json").read_text())
        assert angles["constraint_residual"] == 0.0
        assert run("verify", scenario, tmp_path / "verify") == 0
        assert "forbidden_couplings_max = 0.000e+00 (" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["tripod", "diamond", "ntype"])
def test_forbidden_columns_are_zero(tmp_path, name):
    # couplings.csv is r'(t) G, and G's forbidden entries are exactly 0
    scenario = SCENARIO_DIR / f"{name}.json"
    assert run("simulate", scenario, tmp_path) == 0
    header, data = read_csv(tmp_path / "couplings.csv")
    names = fourlevel.solvers.FORBIDDEN[load_scenario(scenario).config]
    assert np.all(data[:, [header.index(n) for n in names]] == 0.0)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["tripod", "diamond", "ntype"]), log_horizon=st.floats(-9.0, 9.0))
def test_any_horizon_verifies_exact_zero_forbidden_couplings(tmp_path_factory, name, log_horizon):
    # T log-uniform in [1e-9, 1e9]: the peak rate pi/(2T) scales no rounding
    # into the gate, as every forbidden entry of G is exactly 0; and dt H
    # does not depend on T, so verify at 100 steps passes at every T
    payload = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    out = tmp_path_factory.mktemp("verify")
    scenario = write_scenario(out, {**payload, "T": 10.0**log_horizon})
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = run("verify", scenario, out, "--steps", "100")
    assert "PASS forbidden_couplings_max = 0.000e+00 (" in stdout.getvalue()
    assert code == 0, stdout.getvalue()


BUNDLED_COMMANDS = [
    (command, name)
    for name in ("tripod", "diamond", "ntype")
    for command in ("solve", "simulate", "verify")
] + [("qomap", "diamond")]


#: The time grids on which each command evaluates the couplings, at --steps
#: 100: the 2 Gauss nodes per step that propagate takes, couplings.csv's rows,
#: and qomap's diamond-type probe and rabi.csv rows.
COUPLING_GRIDS = {
    "solve": [],
    "simulate": [(200,), (101,)],
    "verify": [(200,)],
    "qomap": [(3,), (101,)],
}


@pytest.mark.parametrize("command, name", BUNDLED_COMMANDS)
def test_commands_read_the_generator_once(tmp_path, monkeypatch, command, name):
    # a solved pulse is a CosineRamp (v1, v2, horizon) and the solve reads
    # no generator: solve and verify read G off v1, v2 once for the residual
    # view, and each coupling grid is the ramp's couplings r'(t) G, which
    # read G once each; no command evaluates hr_analytic
    calls, shapes = spy_generator_reads(monkeypatch), spy_couplings(monkeypatch)
    assert run(command, SCENARIO_DIR / f"{name}.json", tmp_path, "--steps", "100") == 0
    residual_reads = command in ("solve", "verify")
    assert calls == {"_read_off": residual_reads + len(COUPLING_GRIDS[command])}
    assert shapes == COUPLING_GRIDS[command]


def spy_couplings(monkeypatch) -> list:
    """The shapes of the times at which CosineRamp.couplings is evaluated."""
    shapes = []
    couplings = fourlevel.rotation.CosineRamp.couplings

    def counting(self, t):
        shapes.append(np.shape(t))
        return couplings(self, t)

    monkeypatch.setattr(fourlevel.rotation.CosineRamp, "couplings", counting)
    return shapes


def spy_generator_reads(monkeypatch) -> Counter:
    """Counts of the library's hr_analytic calls and of its reads of a
    generator off two vectors (rotation._read_off, which CosineRamp.generator
    and hr_analytic call)."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    hr_analytic = counted("hr_analytic", fourlevel.rotation.hr_analytic)
    for module in (fourlevel.rotation, fourlevel.solvers, fourlevel.cli):
        monkeypatch.setattr(module, "hr_analytic", hr_analytic, raising=False)
    monkeypatch.setattr(
        fourlevel.rotation, "_read_off", counted("_read_off", fourlevel.rotation._read_off)
    )
    return calls


def run_without_scipy(code):
    """Run code in a fresh interpreter with scipy made unimportable and
    fourlevel.cli's main imported."""
    src = Path(fourlevel.cli.__file__).resolve().parents[1]
    prelude = "import json, sys\nsys.modules['scipy'] = None\nfrom fourlevel.cli import main\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_commands_run_without_scipy(tmp_path):
    # the library needs numpy alone. With scipy made unimportable, each
    # bundled command runs in a fresh interpreter, and one more interpreter
    # runs them twice, each time followed by the N-type without its
    # initial_guess (and at the generic target (1/2, 1/2, 1/2, 1/2), where
    # the loop search refines its root) and verify at five diamond targets
    # on the plane span{e1, (0, cos theta1, sin theta1, 0)} that q alone
    # reaches. Every command exits 0. The propagator keeps its workspace
    # between calls, so a value carried from one command into the next shows
    # only in the warm interpreter: both of its passes write the bytes of
    # the fresh runs. Every JSON file is strict: no NaN or Infinity.
    ntype = json.loads((SCENARIO_DIR / "ntype.json").read_text())
    del ntype["initial_guess"]
    diamond = json.loads((SCENARIO_DIR / "diamond.json").read_text())
    free = write_scenario(tmp_path, ntype, "ntype_free.json")
    generic = write_scenario(tmp_path, {**ntype, "target": [0.5] * 4}, "ntype_generic.json")
    extra = [("solve", free), ("simulate", free), ("verify", free), ("solve", generic)]
    planes = [
        ([-1.0, 0.0, 0.0, 0.0], math.pi / 2),
        ([-1.0, 0.0, 0.0, 0.0], 1.0),
        ([0.0, 0.0, 1.0, 0.0], math.pi / 2),
        ([0.0, 0.0, -1.0, 0.0], math.pi / 2),
        ([0.0, 1.0, 0.0, 0.0], 0.0),
    ]
    for i, (target, theta1) in enumerate(planes):
        payload = {**diamond, "target": target, "free_params": {"theta1": theta1}}
        extra.append(("verify", write_scenario(tmp_path, payload, f"diamond_plane_{i}.json")))
    bundled = [(command, SCENARIO_DIR / f"{name}.json") for command, name in BUNDLED_COMMANDS]

    def argv(command, scenario, out):
        out = tmp_path / out / f"{scenario.stem}-{command}"
        return [command, "--scenario", str(scenario), "--out", str(out)]

    warm = [argv(c, s, out) for out in ("warm1", "warm2") for c, s in bundled + extra]
    codes = [f"print(json.dumps([main(argv) for argv in {warm!r}]))"]
    codes += [f"sys.exit(main({argv(c, s, 'fresh')!r}))" for c, s in bundled]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(run_without_scipy, codes))
    for proc in procs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(procs[0].stdout.splitlines()[-1]) == [0] * len(warm)

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    fresh, warm1 = files(tmp_path / "fresh"), files(tmp_path / "warm1")
    assert len(fresh) == 11
    assert files(tmp_path / "warm2") == warm1
    assert [name for name, data in fresh.items() if warm1[name] != data] == []
    for name, data in warm1.items():
        if name.suffix == ".json":
            json.loads(data, parse_constant=reject)
    for stem in ("ntype", "ntype_free", "ntype_generic"):
        angles = json.loads(warm1[Path(f"{stem}-solve", "angles.json")])
        assert angles["final_state_residual"] <= 1e-12
        assert angles["constraint_residual"] <= 1e-8


def test_suite_loads_without_scipy():
    # scipy is an independent oracle in a few tests, which import it
    # themselves and skip without it: with scipy made unimportable, conftest
    # and every test module still import
    tests = Path(__file__).resolve().parent
    names = ["conftest", *sorted(p.stem for p in tests.glob("test_*.py"))]
    proc = run_without_scipy(
        f"sys.path.insert(0, {str(tests)!r})\n"
        f"for name in {names!r}:\n"
        "    __import__(name)\n"
    )
    assert proc.returncode == 0, proc.stderr


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

    def test_too_few_steps(self, tmp_path, capsys):
        assert run("simulate", SCENARIO_DIR / "tripod.json", tmp_path, "--steps", "50") == 1
        assert "steps must be an integer of at least 100, got 50" in capsys.readouterr().out

    def test_solver_failure(self, tmp_path, monkeypatch):
        # every target is reachable, so force an N-type failure by refining
        # no bracket of the loop search, as in test_solvers.py
        monkeypatch.setattr(fourlevel.solvers, "_NTYPE_REFINE_STEPS", 0)
        scenario = write_scenario(
            tmp_path,
            {
                "config": "ntype",
                "target": [0.5, 0.5, 0.5, 0.5],
                "T": 1.0,
                "phases": {"eps": [0, 0, 0], "eps_prime": [0, 0, 0]},
            },
        )
        assert run("solve", scenario, tmp_path / "out") == 2

    @pytest.mark.parametrize("eps_prime", [1e5, 1e12])
    def test_step_too_coarse_for_the_phases(self, tmp_path, eps_prime):
        # dt * |H| about 1e3 integrates and fails the fidelity check; about
        # 1e10 is rejected before any exponential
        payload = json.loads((SCENARIO_DIR / "tripod.json").read_text())
        payload["phases"]["eps_prime"] = [eps_prime] * 3
        payload["steps"] = 100
        scenario = write_scenario(tmp_path, payload)
        assert run("simulate", scenario, tmp_path / "out") == 3

    def test_negative_seed(self, tmp_path, capsys):
        code = run("solve", SCENARIO_DIR / "ntype.json", tmp_path / "out", "--seed", "-1")
        assert code == fourlevel.cli.EXIT_VALIDATION
        assert capsys.readouterr().out == "validation failure: --seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
    @pytest.mark.parametrize("horizon", [1e-310, 1.7e308])
    def test_overflowing_horizon(self, tmp_path, capsys, command, horizon):
        payload = json.loads((SCENARIO_DIR / "tripod.json").read_text())
        payload["T"] = horizon
        scenario = write_scenario(tmp_path, payload)
        assert run(command, scenario, tmp_path / "out") == fourlevel.cli.EXIT_VALIDATION
        assert "overflows" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("name, horizon", [("tripod", 1e-300), ("diamond", 1.75e-308)])
    def test_horizon_too_short_to_propagate(self, tmp_path, command, name, horizon):
        # accepted horizons whose H(t) cannot be propagated: dt |H| overflows
        # (tripod), or the ramp's rate times G overflows to infinite
        # couplings, which coupling_entries rejects by name (diamond); one
        # stdout line and an empty stderr, in a fresh interpreter
        payload = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        payload["T"] = horizon
        scenario = write_scenario(tmp_path, payload)
        proc = run_fresh(command, scenario, tmp_path / "out")
        assert proc.returncode == fourlevel.cli.EXIT_VALIDATION
        assert proc.stdout.startswith("validation failure:") and proc.stdout.count("\n") == 1
        assert proc.stderr == ""

    def test_overflowing_target_fails_with_one_line_alone(self, tmp_path):
        # b . b overflows: TargetSpec's ValueError is the whole output
        scenario = write_scenario(
            tmp_path,
            {
                "config": "tripod",
                "target": [1e308, 0.0, 0.0, 0.0],
                "T": 1.0,
                "phases": {"eps": [0, 0, 0], "eps_prime": [0, 0, 0]},
            },
        )
        proc = run_fresh("solve", scenario, tmp_path / "out")
        assert proc.returncode == fourlevel.cli.EXIT_VALIDATION
        assert proc.stdout == "validation failure: target norm^2 = inf is not 1 within 1e-10\n"
        assert proc.stderr == ""

    def test_verify_reports_a_failed_propagation_as_simulate_does(self, tmp_path, capsys):
        # at T = 1e300 and 100 steps the state drifts off unit norm, so
        # propagate raises AccuracyError: both commands print its one line
        payload = json.loads((SCENARIO_DIR / "tripod.json").read_text())
        scenario = write_scenario(tmp_path, {**payload, "T": 1e300})
        out = {}
        for command in ("simulate", "verify"):
            code = run(command, scenario, tmp_path / command, "--steps", "100")
            assert code == fourlevel.cli.EXIT_ACCURACY
            out[command] = capsys.readouterr().out
        assert out["verify"] == out["simulate"]
        assert out["verify"].startswith("accuracy failure: norm drift ") and out["verify"].count("\n") == 1

    def test_commands_raise_typed_errors_and_print_no_failure_line(self, tmp_path, capsys):
        # main alone prints the failure line; the commands raise
        tripod = load_scenario(SCENARIO_DIR / "tripod.json")
        with pytest.raises(ValueError, match="qomap requires a diamond scenario"):
            fourlevel.cli.cmd_qomap(tripod, tmp_path)
        diamond = load_scenario(SCENARIO_DIR / "diamond.json")
        with pytest.raises(ValueError, match="qomap requires qo.omega_levels"):
            fourlevel.cli.cmd_qomap(dataclasses.replace(diamond, omega_levels=None), tmp_path)
        payload = json.loads((SCENARIO_DIR / "tripod.json").read_text())
        payload["phases"]["eps_prime"] = [1e5] * 3
        coarse = load_scenario(write_scenario(tmp_path, {**payload, "steps": 100}))
        with pytest.raises(AccuracyError, match="final-state fidelity"):
            fourlevel.cli.cmd_simulate(coarse, tmp_path)
        assert "failure" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "simulate", "verify", "qomap"])
    def test_overflowing_detunings_fail_to_load(self, tmp_path, capsys, command):
        # eps' - eps overflows: the phase schedule rejects it while the
        # scenario loads, with no RuntimeWarning on the way (pytest turns one
        # into an error)
        payload = json.loads((SCENARIO_DIR / "diamond.json").read_text())
        payload["phases"] = {"eps": [-1e308, 0, 0], "eps_prime": [1e308, 0, 0]}
        scenario = write_scenario(tmp_path, payload)
        assert run(command, scenario, tmp_path / "out") == fourlevel.cli.EXIT_VALIDATION
        assert capsys.readouterr().out.startswith("validation failure: detunings")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "eps_prime, message",
        [
            # finite detunings, but omega_2 + Delta_2 overflows
            (
                [1e308, math.pi / 2, 0.0],
                "level and field frequencies and phases must be finite",
            ),
            # finite laser frequencies, but delta_3 = 2 (omega_3 - omega_13)
            # overflows, which qomap.json would hold as -Infinity
            (
                [0.0, 1e308, 0.0],
                "rwa_detunings delta_2, delta_3, delta_4 not finite: [   0.  -inf 5200.]",
            ),
        ],
        ids=["field_frequency", "rwa_detuning"],
    )
    def test_qomap_overflowing_laser_frequency(self, tmp_path, capsys, eps_prime, message):
        # QOParams' typed ValueError is reported as one validation failure
        # line, not a traceback (nor a RuntimeWarning, which pytest turns
        # into an error), and no qomap.json is written
        payload = json.loads((SCENARIO_DIR / "diamond.json").read_text())
        payload["phases"]["eps_prime"] = eps_prime
        payload["qo"]["omega_levels"][0] = 1e308
        scenario = write_scenario(tmp_path, payload)
        assert run("qomap", scenario, tmp_path / "out") == fourlevel.cli.EXIT_VALIDATION
        assert capsys.readouterr().out == f"validation failure: {message}\n"
        assert not (tmp_path / "out" / "qomap.json").exists()

    def test_missing_scenario_file(self, tmp_path):
        assert run("solve", tmp_path / "absent.json", tmp_path / "out") == 1

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("solve", ["--steps", "x"], "argument --steps: invalid int value: 'x'"),
            ("bogus", [], "argument command: invalid choice: 'bogus'"),
        ],
        ids=["steps_not_an_int", "unknown_command"],
    )
    def test_rejected_command_line(self, tmp_path, capsys, command, extra, message):
        # a command line argparse rejects is a validation failure: exit 1
        # and one stdout line, not argparse's exit 2 (the solver-failure
        # code) with its usage on stderr
        assert run(command, SCENARIO_DIR / "tripod.json", tmp_path / "out", *extra) == 1
        out, err = capsys.readouterr()
        assert out.startswith(f"validation failure: {message}") and out.count("\n") == 1
        assert err == ""
        assert not (tmp_path / "out").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fourlevel ")

    def test_parser_is_built_on_first_use_and_reused(self, tmp_path, capsys):
        # not at import, which every fresh interpreter pays, and once per
        # process: building it costs more than a parse
        src = Path(fourlevel.cli.__file__).resolve().parents[1]
        subprocess.run(
            [sys.executable, "-c", "import fourlevel.cli as c; assert c._parser.cache_info().currsize == 0"],
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, check=True,
        )
        fourlevel.cli._parser.cache_clear()
        assert run("bogus", SCENARIO_DIR / "tripod.json", tmp_path / "out") == 1
        assert run("solve", SCENARIO_DIR / "tripod.json", tmp_path / "out") == 0
        assert fourlevel.cli._parser.cache_info()[:2] == (1, 1)  # hits, misses

    def test_out_names_a_file(self, tmp_path, capsys):
        # mkdir's FileExistsError is one validation failure line, not a
        # traceback, and the file is left as it was
        out = tmp_path / "out"
        out.write_text("kept")
        assert run("solve", SCENARIO_DIR / "tripod.json", out) == fourlevel.cli.EXIT_VALIDATION
        stdout, stderr = capsys.readouterr()
        assert stdout.startswith(f"validation failure: cannot create output directory {out}: ")
        assert stdout.count("\n") == 1 and stderr == ""
        assert out.read_text() == "kept"
