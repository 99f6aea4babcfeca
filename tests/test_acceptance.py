"""Acceptance suite: one test per shipped acceptance criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with
`pytest -s`; under plain `pytest -v` the per-test PASSED/FAILED line carries
the same information) and enforces the stated tolerances and runtime budget.
"""

import math
import sys
import time

import numpy as np

from fourlevel.hamiltonian import PhaseSchedule, total_hamiltonian
from fourlevel.propagator import compare_with_analytic, fidelity, propagate
from fourlevel.qo import check_resonance, engineered_to_qo, lab_hamiltonian, rwa_hamiltonian
from fourlevel.quat4 import (
    Quaternion,
    cayley_rotation,
    decompose_rotation,
    left_isoclinic,
    quat_mul,
    right_isoclinic,
    rotation_angles_from_matrix,
)
from fourlevel.rotation import hr_analytic, hr_numeric, ur_of_angles
from fourlevel.solvers import (
    FORBIDDEN,
    LevelConfig,
    TargetSpec,
    solve_diamond,
    solve_ntype,
    solve_tripod,
)

SQRT3 = math.sqrt(3.0)
PSI0 = np.array([1.0, 0, 0, 0], dtype=complex)
E1 = np.array([1.0, 0, 0, 0])


def report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    sys.stdout.flush()
    assert ok, line


def hamiltonian_of(solved, ph):
    def h(t):
        cs = hr_analytic(solved.schedule.value(t), solved.schedule.rate(t))
        return total_hamiltonian(cs, ph, t)

    return h


def phases(eps_prime, T=1.0):
    return PhaseSchedule(eps=np.zeros(3), eps_prime=np.asarray(eps_prime, float), T=T)


def random_target(rng):
    b = rng.normal(size=4)
    return TargetSpec(b / np.linalg.norm(b))


def random_unit_quat(rng):
    v = rng.normal(size=4)
    return Quaternion.from_array(v / np.linalg.norm(v))


def solve_any(config, target, rng):
    if config is LevelConfig.INVERSE_TRIPOD:
        return solve_tripod(target)
    if config is LevelConfig.DIAMOND:
        return solve_diamond(target)
    return solve_ntype(target, seed=int(rng.integers(1 << 31)))


def test_criterion_1_tripod_example():
    start = time.perf_counter()
    solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
    b = solved.boundary
    angles_ok = (
        abs(b.gamma1 - math.pi / 4) < 1e-14
        and abs(b.theta1 - math.atan(math.sqrt(2))) < 1e-14
        and abs(b.phi1 - math.pi / 4) < 1e-14
    )
    ph = phases([math.pi / 3] * 3)
    traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
    pop_err = float(np.max(np.abs(traj.populations[-1] - [0, 1 / 3, 1 / 3, 1 / 3])))
    phase_err = float(np.max(np.abs(traj.phases[-1] - math.pi / 3)))
    elapsed = time.perf_counter() - start
    ok = angles_ok and pop_err < 1e-6 and phase_err < 1e-5 and elapsed < 1.0
    report(
        1,
        ok,
        f"angles exact={angles_ok}, pop err={pop_err:.2e}, "
        f"phase err={phase_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_diamond_example():
    start = time.perf_counter()
    solved = solve_diamond(
        TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
    )
    b = solved.boundary
    angles_ok = (
        abs(b.gamma1 - math.pi) < 1e-12
        and abs(b.gamma2 - math.pi / 2) < 1e-12
        and abs(b.theta2 + 3 * math.pi / 4) < 1e-12
    )
    residual = float(
        np.linalg.norm(ur_of_angles(b) @ E1 - np.array([0, 1, 1, 0]) / math.sqrt(2))
    )
    ph = phases([0, math.pi / 2, 0])
    traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
    target = np.array([0, 1, 1j, 0], dtype=complex) / math.sqrt(2)
    fid = fidelity(traj.final_state, target)
    elapsed = time.perf_counter() - start
    ok = angles_ok and residual < 1e-9 and fid >= 1 - 1e-6 and elapsed < 1.0
    report(
        2,
        ok,
        f"angles exact={angles_ok}, residual={residual:.2e}, "
        f"fidelity={fid:.9f}, {elapsed:.2f}s",
    )


def test_criterion_3_ntype_example():
    start = time.perf_counter()
    target_b = np.array([0.0, 0.0, 0.0, 1.0])
    solved = solve_ntype(
        TargetSpec(target_b), initial_guess=(math.pi / 6, math.pi / 2, -math.pi / 2)
    )
    residual = float(np.linalg.norm(ur_of_angles(solved.boundary) @ E1 - target_b))
    T = 1.0
    wave_err = 0.0
    for t in np.linspace(0, T, 101):
        cs = hr_analytic(solved.schedule.value(t), solved.schedule.rate(t))
        s = math.sin(math.pi * t / T)
        wave_err = max(
            wave_err,
            abs(cs.omega12 + SQRT3 * math.pi**2 / (4 * T) * s),
            abs(cs.omega34 + SQRT3 * math.pi**2 / (4 * T) * s),
            abs(cs.omega23 + math.pi**2 / (2 * T) * s),
        )
    ph = phases([0, 0, math.pi / 6])
    traj = propagate(hamiltonian_of(solved, ph), PSI0, T, steps=2000)
    target = np.array([0, 0, 0, np.exp(1j * math.pi / 6)], dtype=complex)
    fid = fidelity(traj.final_state, target)
    elapsed = time.perf_counter() - start
    ok = residual < 1e-8 and wave_err < 1e-9 and fid >= 1 - 1e-6 and elapsed < 5.0
    report(
        3,
        ok,
        f"residual={residual:.2e}, waveform err={wave_err:.2e}, "
        f"fidelity={fid:.9f}, {elapsed:.2f}s",
    )


def test_criterion_4_forbidden_coupling_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for config in LevelConfig:
        count = 0
        while count < 50:
            target = random_target(rng)
            try:
                solved = solve_any(config, target, rng)
            except Exception:
                continue  # singular draw; redraw (solvers report honestly)
            T = solved.schedule.horizon
            h = 1e-6 * T
            for t in np.linspace(h, T - h, 200):
                cs = hr_numeric(solved.schedule, t, h=h)
                for name in FORBIDDEN[config]:
                    worst = max(worst, abs(getattr(cs, name)))
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    report(4, ok, f"max forbidden coupling={worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_analytic_vs_numeric():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0

    def check(solved, ph):
        nonlocal worst
        traj = propagate(hamiltonian_of(solved, ph), PSI0, ph.T, steps=2000)
        worst = max(worst, compare_with_analytic(traj, solved, ph))

    check(solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3)), phases([math.pi / 3] * 3))
    check(
        solve_diamond(
            TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
        ),
        phases([0, math.pi / 2, 0]),
    )
    check(
        solve_ntype(
            TargetSpec(np.array([0.0, 0, 0, 1])),
            initial_guess=(math.pi / 6, math.pi / 2, -math.pi / 2),
        ),
        phases([0, 0, math.pi / 6]),
    )
    done = 0
    while done < 20:
        config = list(LevelConfig)[done % 3]
        target = random_target(rng)
        try:
            solved = solve_any(config, target, rng)
        except Exception:
            continue
        ph = PhaseSchedule(eps=rng.normal(size=3), eps_prime=rng.normal(size=3), T=1.0)
        check(solved, ph)
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6
    report(5, ok, f"max analytic/numeric deviation={worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_quaternion_rotation_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    ok = True
    worst = {"ortho": 0.0, "det": 0.0, "hom": 0.0, "comm": 0.0, "planes": 0.0}
    for _ in range(1000):
        q, p = random_unit_quat(rng), random_unit_quat(rng)
        ml, mr = left_isoclinic(q), right_isoclinic(p)
        r = ml @ mr
        worst["ortho"] = max(worst["ortho"], float(np.max(np.abs(r.T @ r - np.eye(4)))))
        worst["det"] = max(worst["det"], abs(np.linalg.det(r) - 1.0))
        worst["hom"] = max(
            worst["hom"],
            float(
                np.max(
                    np.abs(
                        left_isoclinic(q) @ left_isoclinic(p)
                        - left_isoclinic(quat_mul(q, p))
                    )
                )
            ),
        )
        worst["comm"] = max(worst["comm"], float(np.max(np.abs(ml @ mr - mr @ ml))))
        d = decompose_rotation(q, p)
        oracle = rotation_angles_from_matrix(cayley_rotation(q, p))
        worst["planes"] = max(
            worst["planes"],
            float(np.max(np.abs(np.array(sorted([d.angle1, d.angle2])) - oracle))),
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst["ortho"] < 1e-10
        and worst["det"] < 1e-10
        and worst["hom"] < 1e-10
        and worst["comm"] < 1e-12
        and worst["planes"] < 1e-8
        and elapsed < 5.0
    )
    report(
        6,
        ok,
        "worst: " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + f", {elapsed:.1f}s",
    )


def test_criterion_7_qo_closure_and_rwa():
    start = time.perf_counter()
    solved = solve_diamond(
        TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
    )
    ph = phases([0, math.pi / 2, 0])

    def couplings(t):
        return hr_analytic(solved.schedule.value(t), solved.schedule.rate(t))

    gaps = []
    closure_err = 0.0
    resonance = 0.0
    for scale in (1e3, 1e4):
        qo = engineered_to_qo(couplings, ph, np.array([1.0, 1.35, 2.6]) * scale)
        resonance = max(resonance, check_resonance(qo))
        for t in np.linspace(0.0, 1.0, 9):
            closure_err = max(
                closure_err,
                float(
                    np.max(
                        np.abs(rwa_hamiltonian(qo, t) - total_hamiltonian(couplings(t), ph, t))
                    )
                ),
            )
        w_max = max(qo.omega_fields.values())
        steps = int(math.ceil(40.0 * w_max / (2 * math.pi)))
        lab = propagate(lambda t: lab_hamiltonian(qo, t), PSI0, 1.0, steps=steps)
        rwa = propagate(lambda t: rwa_hamiltonian(qo, t), PSI0, 1.0, steps=2000)
        gaps.append(
            float(np.max(np.abs(lab.populations[-1] - rwa.populations[-1])))
        )
    elapsed = time.perf_counter() - start
    ok = (
        closure_err < 1e-10
        and resonance < 1e-12
        and gaps[0] < 1e-3
        and gaps[1] < gaps[0]
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"closure={closure_err:.2e}, resonance={resonance:.2e}, "
        f"RWA gap@1e3={gaps[0]:.2e}, @1e4={gaps[1]:.2e}, {elapsed:.1f}s",
    )
