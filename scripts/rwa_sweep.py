#!/usr/bin/env python3
"""Sweep the carrier frequency and measure the lab-frame vs RWA error.

For the diamond scenario, maps the engineered Hamiltonian to laser
parameters at several carrier scales, propagates both the lab-frame
Hamiltonian (resolving the carrier) and the RWA Hamiltonian, and records
the final-population gap.  The gap should fall roughly as 1/omega.
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from fourlevel.hamiltonian import PhaseSchedule, total_hamiltonian
from fourlevel.propagator import propagate
from fourlevel.qo import engineered_to_qo, lab_hamiltonian, rwa_hamiltonian
from fourlevel.solvers import TargetSpec, solve_diamond

PSI0 = np.array([1.0, 0, 0, 0], dtype=complex)
BASE_LEVELS = np.array([1.0, 1.35, 2.6])


def run(args=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scales", type=float, nargs="+", default=[1e2, 3e2, 1e3, 3e3, 1e4]
    )
    parser.add_argument("--out", type=Path, default=Path("out") / "rwa_sweep.csv")
    opts = parser.parse_args(args)

    solved = solve_diamond(
        TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
    )
    ph = PhaseSchedule(
        eps=np.zeros(3), eps_prime=np.array([0.0, math.pi / 2, 0.0]), T=1.0
    )
    couplings = solved.schedule.couplings

    rows = []
    for scale in opts.scales:
        tic = time.perf_counter()
        qo = engineered_to_qo(couplings, ph, BASE_LEVELS * scale)
        steps = int(math.ceil(40.0 * max(qo.omega_fields.values()) / (2 * math.pi)))
        lab = propagate(lambda t: lab_hamiltonian(qo, t), PSI0, 1.0, steps=steps)
        rwa = propagate(lambda t: rwa_hamiltonian(qo, t), PSI0, 1.0, steps=2000)
        engineered = propagate(
            lambda t: total_hamiltonian(couplings(t), ph, t), PSI0, 1.0, steps=2000
        )
        gap = float(np.max(np.abs(lab.populations[-1] - rwa.populations[-1])))
        exact_gap = float(
            np.max(np.abs(rwa.populations[-1] - engineered.populations[-1]))
        )
        rows.append((scale, steps, gap, exact_gap))
        print(
            f"scale={scale:10.1f}  steps={steps:8d}  lab-vs-RWA={gap:.3e}  "
            f"RWA-vs-engineered={exact_gap:.3e}  ({time.perf_counter() - tic:.1f}s)"
        )

    opts.out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["scale,steps,lab_vs_rwa_gap,rwa_vs_engineered_gap"]
    lines += [f"{s:.12g},{n},{g:.12g},{e:.12g}" for s, n, g, e in rows]
    opts.out.write_text("\n".join(lines) + "\n", newline="\n")
    print(f"wrote {opts.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
