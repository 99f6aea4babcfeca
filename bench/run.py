#!/usr/bin/env python3
"""Benchmark of the fourlevel pipeline: solve, pulses, propagation, QO map.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md):
  target_sweep    seeded random targets solved for the tripod, diamond and
                  N-type topologies; one operation = one target, one topology
  example_pulses  the bundled scenarios through the CLI in warm rounds in
                  this process; one operation = one command on one scenario
  qo_lab_frame    the diamond mapped to lasers at two carrier scales, the
                  lab-frame and RWA Hamiltonians propagated; one operation =
                  one carrier scale

A round is a fixed set of operations of the workload.  With --trace 0 the
run repeats rounds for S seconds and reports the end-to-end metrics, the
same on every workload: setup_s and round_s, the mean time of a round.
With --trace 1 it runs a fixed number of rounds untraced and then traced
and reports the per-layer metrics and the tracing overhead; on
example_pulses it also runs each command once in a fresh interpreter
(cli.cold_s).  Every output is checked against the reference routines in
reference.py.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import speed
from checks import CheckError
from inputs import REPO, SRC, WORKLOADS, require_repo_package, use_repo_src

OUT = REPO / ".bench_out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_ROUNDS = 3
TRACE_ROUNDS = {"target_sweep": 3, "example_pulses": 2, "qo_lab_frame": 2}
PSI0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)

fourlevel = None  # the package under test, imported from SRC in main()


class Round:
    """Outcome of one round: operations attempted and failed, check
    failures, counts, and named timings, raw and at the reference machine
    speed (see speed.py)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = {}
        self.seconds = {}
        self.cold_s = 0.0  # commands in fresh interpreters, raw (see setup())
        self.meter = speed.Meter()

    @contextlib.contextmanager
    def timed(self, key):
        """Add the time of the block to the named timing."""
        with self.meter.timed() as timing:
            yield
        self.seconds[key] = self.seconds.get(key, 0.0) + timing.raw

    def scaled_total(self):
        return self.meter.scale(sum(self.seconds.values()))

    @contextlib.contextmanager
    def operation(self, label):
        """One operation: an exception fails it, a CheckError marks the
        output wrong."""
        self.attempted += 1
        try:
            yield
        except CheckError as exc:
            self.problems.append(f"{label}: {exc}")
        except Exception:  # noqa: BLE001 - any error of the program fails the operation
            self.failed += 1
            print(f"{label} failed:\n{traceback.format_exc()}", file=sys.stderr)

    @contextlib.contextmanager
    def check(self, label):
        """A check over several operations' outputs; any error marks the
        outputs wrong (a missing file included)."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - reported as a wrong output
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")


class TargetSweep:
    """Solve seeded targets for every topology; check each solution.

    The closed-form topologies solve their share of the round's targets as
    one timed block; each N-type solve (about 100 closed-form solves' worth)
    is timed alone.  The checks run after the timing.
    """

    SOLVERS = (("tripod", "solve_tripod"), ("diamond", "solve_diamond"), ("ntype", "solve_ntype"))

    def __init__(self, inputs, input_dir, run_dir, tracer_gate):
        self.T = float(inputs["T"])
        self.rounds = inputs["rounds"]
        self.gate = tracer_gate

    def run_round(self, index):
        rnd = Round()
        targets = self.rounds[index % len(self.rounds)]
        for config, solver in self.SOLVERS:
            specs = [fourlevel.TargetSpec(np.asarray(b, dtype=float)) for b in targets[config]]
            solve = getattr(fourlevel, solver)
            block = 1 if config == "ntype" else len(specs)
            results = []
            for first in range(0, len(specs), block):
                with rnd.timed(config):
                    for spec in specs[first:first + block]:
                        try:
                            results.append(solve(spec, self.T))
                        except Exception as exc:  # noqa: BLE001 - a failed operation
                            results.append(exc)
            rnd.counts[config] = len(specs)
            for b, solved in zip(targets[config], results):
                with rnd.operation(f"{solver}({b})"), self.gate():
                    if isinstance(solved, Exception):
                        raise solved
                    sched = solved.schedule
                    checks.check_solution(
                        config, b, solved.boundary.as_array(),
                        lambda t: sched.value(t).as_array(),
                        lambda t: sched.rate(t).as_array(), self.T,
                    )
        return rnd


class ExamplePulses:
    """The bundled scenarios through the command line.

    Each round runs the ten commands warm, in this process.  The traced run
    adds a cold pass: each command once in a fresh interpreter.
    """

    def __init__(self, inputs, input_dir, run_dir, tracer_gate):
        self.commands = inputs["commands"]
        self.seed = inputs["seed"]
        self.input_dir = input_dir
        self.run_dir = run_dir
        self.gate = tracer_gate
        self.passes = 0
        self.scenarios = {
            name: json.loads((input_dir / f"{name}.json").read_text())
            for name in dict(self.commands)
        }
        self.reference = None  # the first warm pass's outputs, content-checked

    def _argv(self, name, command, out):
        return [command, "--scenario", str(self.input_dir / f"{name}.json"),
                "--out", str(out / name / command), "--seed", str(self.seed)]

    def _check_pass(self, rnd, out, stdout_of):
        with rnd.check(f"outputs of {out.name}"), self.gate():
            for (name, command), text in stdout_of.items():
                if command == "verify":
                    checks.check_verify_stdout(text)
            if self.reference is None:
                checks.check_example_outputs(out, self.scenarios)
                self.reference = out
            else:
                checks.check_identical(self.reference, out)

    def cold_pass(self, env):
        """Each command once in `python -m fourlevel.cli`, after the warm
        rounds; its files must equal the first warm pass's.  The time stays
        raw, as set-up times do (see setup())."""
        rnd = Round()
        out = self.run_dir / "cold"
        stdout_of = {}
        for name, command in self.commands:
            with rnd.operation(f"cold {command} {name}"):
                start = perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "fourlevel.cli", *self._argv(name, command, out)],
                    env=env, cwd=self.run_dir, capture_output=True, text=True, timeout=170,
                )
                rnd.cold_s += perf_counter() - start
                if proc.returncode != 0:
                    raise RuntimeError(f"exit {proc.returncode}: {proc.stdout}{proc.stderr}")
                stdout_of[name, command] = proc.stdout
        self._check_pass(rnd, out, stdout_of)
        return rnd

    def run_round(self, index):
        rnd = Round()
        self.passes += 1
        out = self.run_dir / f"warm{self.passes}"
        stdout_of = {}
        for name, command in self.commands:
            with rnd.operation(f"{command} {name}"):
                buf = io.StringIO()
                with rnd.timed(command), contextlib.redirect_stdout(buf):
                    code = fourlevel.cli.main(self._argv(name, command, out))
                if code != 0:
                    raise RuntimeError(f"exit {code}: {buf.getvalue()}")
                stdout_of[name, command] = buf.getvalue()
        self._check_pass(rnd, out, stdout_of)
        rnd.counts["bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if out != self.reference:
            shutil.rmtree(out, ignore_errors=True)
        return rnd


class QoLabFrame:
    """The diamond mapped to lasers; lab-frame and RWA propagation."""

    def __init__(self, inputs, input_dir, run_dir, tracer_gate):
        self.scenario_path = input_dir / inputs["scenario"]
        self.scenario = json.loads(self.scenario_path.read_text())
        self.carriers = inputs["carriers"]
        self.rwa_steps = int(inputs["rwa_steps"])
        self.gate = tracer_gate

    def run_round(self, index):
        rnd = Round()
        sc = fourlevel.scenario.load_scenario(self.scenario_path)
        solved = fourlevel.solve_diamond(sc.target, sc.T)
        sched = solved.schedule
        boundary = solved.boundary.as_array()
        b = np.asarray(self.scenario["target"], dtype=float)
        phases = self.scenario["phases"]
        gaps = []

        def couplings(t):
            return fourlevel.rotation.hr_analytic(sched.value(t), sched.rate(t))

        for carrier in self.carriers:
            scale = carrier["scale"]
            with rnd.operation(f"carrier scale {scale:g}"):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    qo = fourlevel.qo.engineered_to_qo(couplings, sc.phases, carrier["omega_levels"])
                if caught:
                    raise CheckError(f"engineered_to_qo warned: {caught[0].message}")
                steps = int(carrier["lab_steps"])
                with rnd.timed("lab"):
                    lab = fourlevel.propagate(
                        lambda t: fourlevel.qo.lab_hamiltonian(qo, t), PSI0, sc.T, steps)
                with rnd.timed("rwa"):
                    rwa = fourlevel.propagate(
                        lambda t: fourlevel.qo.rwa_hamiltonian(qo, t), PSI0, sc.T, self.rwa_steps)
                rnd.counts["lab"] = rnd.counts.get("lab", 0) + len(lab.times) - 1
                rnd.counts["rwa"] = rnd.counts.get("rwa", 0) + len(rwa.times) - 1
                with self.gate():
                    fields = dict(qo.omega_fields)
                    checks.check_resonance(fields)
                    checks.check_fields(fields, checks.ref.carrier_fields(
                        carrier["omega_levels"], phases["eps"], phases["eps_prime"], sc.T))
                    t = np.linspace(0.0, sc.T, 21)
                    h = np.array([fourlevel.qo.rwa_hamiltonian(qo, s) for s in t])
                    checks.check_rwa_hamiltonian(h, t, boundary, self.scenario)
                    checks.check_norm(lab.states, "lab frame")
                    checks.check_norm(rwa.states, "RWA")
                    checks.check_final_populations(rwa.final_state, b, checks.POPULATION_TOL, "RWA")
                    limit = checks.rwa_error_estimate(boundary, sc.T, fields)
                    gaps.append((scale, checks.check_final_populations(
                        lab.final_state, b, limit, f"lab frame at scale {scale:g}")))
        if len(gaps) == len(self.carriers):
            with rnd.check("gap across carrier scales"), self.gate():
                checks.check_gap_falls(gaps)
        return rnd


WORKLOAD_CLASSES = {
    "target_sweep": TargetSweep,
    "example_pulses": ExamplePulses,
    "qo_lab_frame": QoLabFrame,
}


def setup(name, seed, input_dir, env, repeats):
    """Build the inputs `repeats` times, each in a fresh interpreter that
    imports fourlevel.cli; returns the wall times.

    These stay raw: the speed probe does not track fresh interpreters (a
    reading right after a child process exits runs up to 3x slow).
    """
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("inputs.py")),
             "--workload", name, "--seed", str(seed), "--out", str(input_dir)],
            env=env, cwd=input_dir.parent, check=True, timeout=170,
        )
        times.append(perf_counter() - start)
    return times


def per_layer(tracer, rounds, factor, imports, overhead_pct, cold_s):
    """Per-layer metrics from a traced run, per round unless named per solve;
    times at the reference machine speed (factor from the traced rounds'
    probe readings), except the fresh interpreters' (imports, cold pass)."""
    n = len(rounds)
    t = tracer
    h_spans = {"hamiltonian.total_hamiltonian", "rotation.hr_analytic",
               "qo.lab_hamiltonian", "qo.rwa_hamiltonian"}
    solves = ("solvers.solve_tripod", "solvers.solve_diamond", "solvers.solve_ntype")
    ntype = t.calls["solvers.solve_ntype"]
    m = {name: (value, "s") for name, value in imports.items()}
    seconds = {
        "scenario.load_s": t.total("scenario.load_scenario"),
        "solvers.tripod_s": t.total("solvers.solve_tripod"),
        "solvers.diamond_s": t.total("solvers.solve_diamond"),
        "solvers.residual_check_s": sum(
            t.child_seconds(s, {"rotation.hr_numeric"}) for s in solves),
        "solvers.ntype_s": t.total("solvers.solve_ntype"),
        "solvers.lm_s": t.total("solvers.least_squares"),
        "rotation.hr_analytic_s": t.total("rotation.hr_analytic"),
        "rotation.hr_numeric_s": t.total("rotation.hr_numeric"),
        "rotation.ur_of_angles_s": t.total("rotation.ur_of_angles"),
        "hamiltonian.total_hamiltonian_s": t.total("hamiltonian.total_hamiltonian"),
        "hamiltonian.analytic_evolution_s": t.total("hamiltonian.analytic_evolution"),
        "propagator.self_s": t.self_seconds("propagator.propagate", h_spans),
        "propagator.expm_s": t.total("propagator.expm"),
        "propagator.compare_with_analytic_s": t.total("propagator.compare_with_analytic"),
        "qo.engineered_to_qo_s": t.total("qo.engineered_to_qo"),
        "qo.lab_hamiltonian_s": t.total("qo.lab_hamiltonian"),
        "qo.rwa_hamiltonian_s": t.total("qo.rwa_hamiltonian"),
        "cli.simulate_self_s": t.self_seconds("cli.simulate"),
        "cli.verify_self_s": t.self_seconds("cli.verify"),
        "cli.qomap_self_s": t.self_seconds("cli.qomap"),
    }
    m.update({k: (v * factor / n, "s") for k, v in seconds.items()})
    counts = {
        "rotation.hr_analytic_calls": t.calls["rotation.hr_analytic"],
        "rotation.hr_numeric_calls": t.calls["rotation.hr_numeric"],
        "rotation.ur_of_angles_calls": t.calls["rotation.ur_of_angles"],
        "hamiltonian.total_hamiltonian_calls": t.calls["hamiltonian.total_hamiltonian"],
        "propagator.steps": t.steps,
        "propagator.expm_calls": t.calls["propagator.expm"],
        "qo.lab_hamiltonian_calls": t.calls["qo.lab_hamiltonian"],
    }
    m.update({k: (v / n, "count") for k, v in counts.items()})
    m["solvers.lm_calls_per_solve"] = (t.calls["solvers.least_squares"] / ntype if ntype else 0.0, "count")
    m["solvers.lm_nfev_per_solve"] = (t.nfev / ntype if ntype else 0.0, "count")
    m["cli.bytes_written"] = (sum(r.counts.get("bytes", 0) for r in rounds) / n, "bytes")
    m["cli.cold_s"] = (cold_s, "s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def environment():
    import scipy

    commit = None
    if (REPO / ".git").exists():
        proc = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "fourlevel" / "__init__.py").is_file():
        print(f"no fourlevel package under {SRC}", file=sys.stderr)
        return 2

    global fourlevel  # bound by the imports below
    env = use_repo_src()
    import fourlevel.cli
    import fourlevel.qo
    import fourlevel.scenario

    require_repo_package(fourlevel)
    from tracing import Tracer, import_profile

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    input_dir = run_dir / "inputs"
    input_dir.mkdir(parents=True)
    setup_runs = setup(args.workload, args.seed, input_dir, env,
                       1 if args.trace else SETUP_REPEATS)
    inputs = json.loads((input_dir / "inputs.json").read_text())

    tracer = None

    def gate():
        """Checks run with tracing switched off, so they add no spans."""
        return tracer.paused() if tracer else contextlib.nullcontext()

    workload = WORKLOAD_CLASSES[args.workload](inputs, input_dir, run_dir, gate)
    if args.trace:
        # Each round runs untraced and then traced, so that both halves of a
        # pair meet the same machine speed; the overhead is their median ratio.
        tracer = Tracer()
        untraced, rounds = [], []
        for i in range(TRACE_ROUNDS[args.workload]):
            untraced.append(workload.run_round(i))
            with tracer:
                rounds.append(workload.run_round(i))
        overhead = statistics.median(
            t.scaled_total() / u.scaled_total() for t, u in zip(rounds, untraced))
        done = untraced + rounds
        cold_s = 0.0
        if args.workload == "example_pulses":
            done.append(workload.cold_pass(env))
            cold_s = done[-1].cold_s
        profiles = [import_profile(env, run_dir) for _ in range(IMPORT_REPEATS)]
        imports = {k: statistics.median(p[k] for p in profiles) for k in profiles[0]}
        factor = speed.factor([x for r in rounds for x in r.meter.readings])
        metrics = per_layer(tracer, rounds, factor, imports, 100.0 * (overhead - 1.0), cold_s)
    else:
        start = perf_counter()
        rounds = []
        while len(rounds) < MIN_ROUNDS or perf_counter() - start < args.seconds:
            rounds.append(workload.run_round(len(rounds)))
        metrics = {
            "setup_s": (statistics.median(setup_runs), "s"),
            # The mean, not the median: target_sweep's rounds solve different
            # targets on purpose, and the mean weighs every target alike.
            "round_s": (statistics.fmean(r.scaled_total() for r in rounds), "s"),
        }
        done = rounds

    problems = [p for r in done for p in r.problems]
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in done),
        "failed": sum(r.failed for r in done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        environment=environment(), speed_reference_s=speed.REFERENCE_S,
        setup_s=setup_runs,
        rounds=[{"raw_s": r.seconds, "cold_s": r.cold_s, "counts": r.counts,
                 "probe_s": r.meter.readings}
                for r in done],
    )
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"environment": record["environment"], "rounds": len(rounds)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
