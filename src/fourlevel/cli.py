"""Scenario-driven command line front end.

    fourlevel <solve|simulate|qomap|verify> --scenario FILE --out DIR
              [--steps N] [--seed N]

solve     write the boundary angles and residuals (angles.json)
simulate  write coupling and population/phase traces (couplings.csv,
          populations.csv) from a full Schrodinger propagation
qomap     write the quantum-optics mapping of a diamond scenario
          (qomap.json, rabi.csv)
verify    print one PASS/FAIL line per invariant check, exit 3 if one fails

Exit codes: 0 success (--help too), 1 validation failure (a command line
argparse rejects, a bad scenario or option, an --out that cannot be made a
directory, or a ValueError a command raises on its input, such as non-finite
couplings or an H(t) too large at a horizon so short that the pulse rates
overflow, or overflowing laser frequencies), 2 solver failure, 3 accuracy
failure.  The parser and the commands raise these as typed errors, and main
alone prints each as one stdout line ("validation failure: ..."), with
nothing on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .hamiltonian import total_hamiltonian
from .propagator import _CHUNK, AccuracyError, compare_with_analytic, fidelity, propagate
from .qo import TRANSITIONS, check_resonance, engineered_to_qo
from .rotation import CouplingSet, final_state
from .scenario import Scenario, load_scenario
from .solvers import LevelConfig, SolvedAngles, SolverError, solve_diamond, solve_ntype, solve_tripod

EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_ACCURACY = 3

PSI0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def _solve(sc: Scenario) -> SolvedAngles:
    if sc.config is LevelConfig.INVERSE_TRIPOD:
        return solve_tripod(sc.target, sc.T)
    if sc.config is LevelConfig.DIAMOND:
        return solve_diamond(sc.target, sc.T)
    return solve_ntype(sc.target, sc.T, initial_guess=sc.initial_guess)


def _hamiltonian_of_t(solved: SolvedAngles, sc: Scenario):
    def h(t):
        return total_hamiltonian(solved.schedule.couplings(t), sc.phases, t)

    return h


def _expected_final(sc: Scenario) -> np.ndarray:
    return sc.phases.frame(sc.T) * sc.target.b


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows of floats with 12 significant digits ("%.12g") per cell.

    The body is written one _CHUNK of rows at a time, each chunk one bytes
    format string, the row template repeated per row, and one % over its
    cells; bytes % formats a float as str % does."""
    values = np.asarray(rows, dtype=float)
    row = b",".join([b"%.12g"] * len(header)) + b"\n"
    with path.open("wb") as f:
        f.write(",".join(header).encode() + b"\n")
        for lo in range(0, len(values), _CHUNK):
            chunk = values[lo : lo + _CHUNK]
            f.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def cmd_solve(sc: Scenario, out: Path) -> int:
    solved = _solve(sc)
    final_residual = float(np.linalg.norm(final_state(solved.boundary) - sc.target.b))
    payload = {
        "config": sc.config.value,
        "boundary_angles": solved.boundary._asdict(),
        "constraint_residual": float(solved.constraint_residual),
        "final_state_residual": final_residual,
        "within_canonical_ranges": bool(solved.within_canonical_ranges),
    }
    (out / "angles.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out / 'angles.json'}")
    return 0


def cmd_simulate(sc: Scenario, out: Path) -> int:
    solved = _solve(sc)
    traj = propagate(_hamiltonian_of_t(solved, sc), PSI0, sc.T, sc.steps)

    _write_csv(
        out / "couplings.csv",
        ["t", *CouplingSet._fields],
        np.column_stack((traj.times, solved.schedule.couplings(traj.times).as_array())),
    )
    _write_csv(
        out / "populations.csv",
        ["t", "p1", "p2", "p3", "p4", "phi2", "phi3", "phi4"],
        np.column_stack((traj.times, traj.populations, traj.phases)),
    )
    print(f"wrote {out / 'couplings.csv'} and {out / 'populations.csv'}")

    fid = fidelity(traj.final_state, _expected_final(sc))
    if fid < 1.0 - 1e-6:
        raise AccuracyError(f"final-state fidelity {fid:.9f} < 1 - 1e-6")
    print(f"final-state fidelity {fid:.9f}, norm drift {traj.norm_drift:.3e}")
    return 0


def cmd_qomap(sc: Scenario, out: Path) -> int:
    if sc.config is not LevelConfig.DIAMOND:
        raise ValueError("qomap requires a diamond scenario")
    if sc.omega_levels is None:
        raise ValueError("qomap requires qo.omega_levels in the scenario")
    solved = _solve(sc)
    qo = engineered_to_qo(solved.schedule.couplings, sc.phases, sc.omega_levels)
    payload = {
        "omega_levels": list(qo.omega_levels),
        "laser_frequencies": qo.omega_fields,
        "field_phases": qo.field_phases,
        "rwa_detunings": dict(zip(("delta2", "delta3", "delta4"), qo.rwa_detunings)),
        "resonance_residual": check_resonance(qo),
    }
    (out / "qomap.json").write_text(json.dumps(payload, indent=2) + "\n")

    times = np.linspace(0.0, sc.T, sc.steps + 1)
    z = qo.rabi(times)
    _write_csv(
        out / "rabi.csv",
        ["t", *(part + k for k in TRANSITIONS for part in ("re", "im"))],
        np.column_stack((times, np.stack((z.real, z.imag), axis=-1).reshape(len(times), -1))),
    )
    print(f"wrote {out / 'qomap.json'} and {out / 'rabi.csv'}")
    return 0


def cmd_verify(sc: Scenario, out: Path) -> int:
    solved = _solve(sc)
    round_trip = float(np.linalg.norm(final_state(solved.boundary) - sc.target.b))
    checks = [  # (name, value, threshold)
        ("forbidden_couplings_max", solved.constraint_residual, 1e-8),
        ("target_round_trip_residual", round_trip, 1e-8),
    ]
    traj = propagate(_hamiltonian_of_t(solved, sc), PSI0, sc.T, sc.steps)
    checks += [
        ("norm_drift", traj.norm_drift, 1e-8),
        ("analytic_vs_numeric_max", compare_with_analytic(traj, solved, sc.phases), 1e-6),
        ("final_state_infidelity", 1.0 - fidelity(traj.final_state, _expected_final(sc)), 1e-6),
    ]

    failed = False
    for name, value, threshold in checks:
        ok = value < threshold
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name} = {value:.3e} (< {threshold:.0e})")
    return EXIT_ACCURACY if failed else 0


COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "qomap": cmd_qomap,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a rejected command line is a validation failure, not argparse's exit 2
        raise ValueError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="fourlevel",
        description="Inverse-engineer and simulate four-level state-preparation pulses.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--steps", type=int, default=None, help="override scenario steps")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="non-negative integer; accepted, but no solver draws random numbers",
    )
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        sc = load_scenario(args.scenario)
        if args.steps is not None:
            sc = dataclasses.replace(sc, steps=args.steps)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file of that name, or no permission
            raise ValueError(f"cannot create output directory {args.out}: {exc}") from exc
        return COMMANDS[args.command](sc, args.out)
    except ValueError as exc:  # ScenarioError and InvalidHamiltonianError among them
        print(f"validation failure: {exc}")
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}")
        return EXIT_SOLVER
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}")
        return EXIT_ACCURACY


if __name__ == "__main__":
    sys.exit(main())
