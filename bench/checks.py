"""Output checks of the benchmark.

Every check compares the program's output with the reference routines in
reference.py or with a property the method must have, and raises
CheckError on a mismatch.  None of them calls the package under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference as ref

ROUND_TRIP_TOL = 1e-8
FORBIDDEN_TOL = 1e-8
CSV_ZERO_TOL = 1e-10
CSV_MATCH_TOL = 1e-9
POPULATION_TOL = 1e-8
PHASE_TOL = 1e-6
NORM_TOL = 1e-8
RESONANCE_TOL = 1e-12
RWA_MATCH_TOL = 1e-10
SCHEDULE_TOL = 1e-12

ANGLE_KEYS = ("gamma1", "theta1", "phi1", "gamma2", "theta2", "phi2")
RABI_KEYS = ("12", "13", "24", "34")


class CheckError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _wrap(phase):
    return np.mod(np.asarray(phase) + np.pi, 2 * np.pi) - np.pi


# -- target_sweep -----------------------------------------------------------


def check_solution(config, b, boundary, value, rate, T, samples=50):
    """A solved target: round trip to b, forbidden couplings zero on a time
    grid, value(0) the identity and value(T) the boundary angles.

    value and rate map a time to the six angles and their rates; any root
    of the boundary-value problem passes.
    """
    b = np.asarray(b, dtype=float)
    boundary = np.asarray(boundary, dtype=float)
    miss = float(np.linalg.norm(ref.final_state(boundary) - b))
    require(miss < ROUND_TRIP_TOL, f"{config}: final state misses the target by {miss:.3e}")
    start = float(np.max(np.abs(ref.evolution(value(0.0)) - np.eye(4))))
    require(start < SCHEDULE_TOL, f"{config}: U_r(value(0)) differs from I by {start:.3e}")
    end = float(np.max(np.abs(np.asarray(value(T)) - boundary)))
    require(end < SCHEDULE_TOL, f"{config}: value(T) differs from the boundary by {end:.3e}")
    grid = np.linspace(0.0, T, samples)
    angles = np.array([value(t) for t in grid])
    rates = np.array([rate(t) for t in grid])
    omega = ref.couplings(angles, rates)
    idx = [ref.COLUMNS.index(n) for n in ref.FORBIDDEN[config]]
    worst = float(np.max(np.abs(omega[:, idx])))
    require(worst < FORBIDDEN_TOL, f"{config}: forbidden coupling reaches {worst:.3e}")


# -- example_pulses ---------------------------------------------------------


def read_csv(path):
    """(header, rows) of a numeric CSV file."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    require(rows.ndim == 2 and rows.shape[1] == len(header), f"{path}: ragged CSV")
    return header, rows


def _column(header, rows, name):
    require(name in header, f"missing CSV column {name}")
    return rows[:, header.index(name)]


def boundary_of(angles_json):
    return np.array([angles_json["boundary_angles"][k] for k in ANGLE_KEYS])


def check_angles(angles_json, scenario):
    b = np.asarray(scenario["target"], dtype=float)
    miss = float(np.linalg.norm(ref.final_state(boundary_of(angles_json)) - b))
    require(miss < ROUND_TRIP_TOL, f"angles.json misses the target by {miss:.3e}")
    require(angles_json["config"] == scenario["config"], "angles.json names another config")


def check_populations(header, rows, scenario):
    b = np.asarray(scenario["target"], dtype=float)
    pops = np.stack([_column(header, rows, f"p{k}") for k in range(1, 5)], axis=1)
    drift = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))
    require(drift < POPULATION_TOL, f"populations do not sum to 1 (off by {drift:.3e})")
    miss = float(np.max(np.abs(pops[-1] - b * b)))
    require(miss < POPULATION_TOL, f"final populations miss |b|^2 by {miss:.3e}")
    eps_prime = np.asarray(scenario["phases"].get("eps_prime", [0, 0, 0]), dtype=float)
    phases = np.array([_column(header, rows, f"phi{k}")[-1] for k in range(2, 5)])
    populated = b[1:] ** 2 > 1e-6
    err = np.abs(_wrap(phases - eps_prime))[populated]
    worst = float(err.max()) if err.size else 0.0
    require(worst < PHASE_TOL, f"final phases miss the target phases by {worst:.3e}")


def check_couplings(header, rows, angles_json, scenario, samples=25):
    """Forbidden columns zero; the others equal the reference generator of the
    cosine ramp to the boundary angles, at sampled rows."""
    T = float(scenario["T"])
    for name in ref.FORBIDDEN[scenario["config"]]:
        worst = float(np.max(np.abs(_column(header, rows, name))))
        require(worst < CSV_ZERO_TOL, f"forbidden column {name} reaches {worst:.3e}")
    pick = np.unique(np.linspace(0, len(rows) - 1, samples).astype(int))
    t = _column(header, rows, "t")[pick]
    angles, rates = ref.cosine_ramp(boundary_of(angles_json), T, t)
    expected = ref.couplings(angles, rates)
    got = np.stack([_column(header, rows, n)[pick] for n in ref.COLUMNS], axis=1)
    scale = max(1.0, float(np.max(np.abs(expected))))
    worst = float(np.max(np.abs(got - expected)))
    require(worst < CSV_MATCH_TOL * scale, f"couplings differ from the reference by {worst:.3e}")


def check_verify_stdout(text):
    lines = [line for line in text.splitlines() if line.strip()]
    require(bool(lines), "verify printed nothing")
    bad = [line for line in lines if not line.startswith("PASS ")]
    require(not bad, f"verify printed non-PASS lines: {bad}")


def check_qomap(qomap, scenario):
    f = qomap["laser_frequencies"]
    residual = abs(f["13"] + f["34"] - f["12"] - f["24"])
    require(residual < 1e-9, f"qomap.json violates four-photon resonance by {residual:.3e}")
    phases = scenario["phases"]
    delta = ref.detunings(
        phases.get("eps", [0, 0, 0]), phases.get("eps_prime", [0, 0, 0]), float(scenario["T"])
    )
    got = np.array([qomap["rwa_detunings"][f"delta{k}"] for k in (2, 3, 4)])
    worst = float(np.max(np.abs(got / 2 + delta)))
    require(worst < 1e-9, f"RWA diagonal delta/2 differs from -Delta by {worst:.3e}")


def check_rabi(rabi_header, rabi_rows, coup_header, coup_rows):
    """|Rabi| = 2 |Omega| on every row, for the four diamond transitions."""
    t_r = _column(rabi_header, rabi_rows, "t")
    t_c = _column(coup_header, coup_rows, "t")
    require(t_r.shape == t_c.shape and np.allclose(t_r, t_c), "rabi.csv and couplings.csv grids differ")
    for key in RABI_KEYS:
        rabi = np.hypot(_column(rabi_header, rabi_rows, f"re{key}"),
                        _column(rabi_header, rabi_rows, f"im{key}"))
        omega = np.abs(_column(coup_header, coup_rows, f"omega{key}"))
        worst = float(np.max(np.abs(rabi - 2 * omega)))
        scale = max(1.0, float(np.max(rabi)))
        require(worst < CSV_MATCH_TOL * scale, f"|Rabi {key}| differs from 2|Omega| by {worst:.3e}")


def check_identical(reference_dir, other_dir):
    """Every file under reference_dir has a byte-identical twin in other_dir."""
    reference_dir, other_dir = Path(reference_dir), Path(other_dir)
    files = sorted(p.relative_to(reference_dir) for p in reference_dir.rglob("*") if p.is_file())
    others = sorted(p.relative_to(other_dir) for p in other_dir.rglob("*") if p.is_file())
    require(files == others, f"{other_dir} holds other files than {reference_dir}")
    for rel in files:
        require(
            (reference_dir / rel).read_bytes() == (other_dir / rel).read_bytes(),
            f"{rel} differs between repeated runs",
        )


def check_example_outputs(root, scenarios):
    """Content checks of one pass of the example commands under root, laid
    out as root/<scenario>/<command>/<file>; scenarios maps names to the
    parsed scenario files."""
    root = Path(root)
    for name, scenario in scenarios.items():
        angles = json.loads((root / name / "solve" / "angles.json").read_text())
        check_angles(angles, scenario)
        pop_h, pop_rows = read_csv(root / name / "simulate" / "populations.csv")
        check_populations(pop_h, pop_rows, scenario)
        coup_h, coup_rows = read_csv(root / name / "simulate" / "couplings.csv")
        check_couplings(coup_h, coup_rows, angles, scenario)
        if (root / name / "qomap").is_dir():
            check_qomap(json.loads((root / name / "qomap" / "qomap.json").read_text()), scenario)
            rabi_h, rabi_rows = read_csv(root / name / "qomap" / "rabi.csv")
            check_rabi(rabi_h, rabi_rows, coup_h, coup_rows)


# -- qo_lab_frame -----------------------------------------------------------


def check_resonance(fields):
    residual = abs(fields["13"] + fields["34"] - fields["12"] - fields["24"])
    require(residual < RESONANCE_TOL, f"four-photon resonance residual {residual:.3e}")


def check_fields(fields, expected):
    worst = max(abs(fields[k] - expected[k]) for k in expected)
    require(worst < 1e-9, f"laser frequencies differ from the reference by {worst:.3e}")


def check_rwa_hamiltonian(h, t, boundary, scenario):
    """Sampled RWA Hamiltonians (N, 4, 4) against the reference engineered H."""
    phases = scenario["phases"]
    T = float(scenario["T"])
    angles, rates = ref.cosine_ramp(boundary, T, t)
    expected = ref.engineered_hamiltonian(
        ref.generator(angles, rates),
        np.asarray(phases.get("eps", [0, 0, 0]), dtype=float),
        np.asarray(phases.get("eps_prime", [0, 0, 0]), dtype=float),
        T,
        t,
    )
    worst = float(np.max(np.abs(np.asarray(h) - expected)))
    require(worst < RWA_MATCH_TOL, f"RWA Hamiltonian differs from the reference by {worst:.3e}")


def check_norm(states, label):
    drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
    require(drift < NORM_TOL, f"{label}: norm drift {drift:.3e}")


def rwa_error_estimate(boundary, T, fields, samples=201):
    """A-priori size of the RWA error: (max |Rabi| / lowest carrier)^2,
    with |Rabi| = 2 |Omega| from the reference generator."""
    angles, rates = ref.cosine_ramp(boundary, T, np.linspace(0.0, T, samples))
    rabi = 2.0 * float(np.max(np.abs(ref.couplings(angles, rates))))
    return (rabi / min(fields.values())) ** 2


def check_final_populations(final_state, b, tol, label):
    gap = float(np.max(np.abs(np.abs(np.asarray(final_state)) ** 2 - np.asarray(b) ** 2)))
    require(gap < tol, f"{label}: final populations miss |b|^2 by {gap:.3e} (limit {tol:.3e})")
    return gap


def check_gap_falls(gaps):
    """gaps: (carrier scale, lab-frame population gap) pairs."""
    ordered = [g for _, g in sorted(gaps)]
    require(
        all(later < earlier for earlier, later in zip(ordered, ordered[1:])),
        f"lab-frame gap does not fall as the carrier scale grows: {sorted(gaps)}",
    )

