#!/usr/bin/env python3
"""Set-up step of the benchmark: build one workload's inputs from its seed.

    python3 bench/inputs.py --workload NAME --seed N --out DIR

Runs in a fresh interpreter, imports fourlevel.cli from the repository's
own src/ (as every command-line run does), then writes DIR/inputs.json and
the scenario files the workload feeds to the program.  The same seed
always gives the same files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
SCENARIOS = REPO / "scenarios"

WORKLOADS = ("target_sweep", "example_pulses", "qo_lab_frame")

#: target_sweep: targets per round for each topology, and rounds drawn
#: (more than any run uses; a longer run cycles through them again).  An
#: N-type solve costs about 100 closed-form solves; these counts give the
#: closed-form solves about a third of a round's time, so that round_s
#: shows a change to either kind of solver.
TARGETS_PER_ROUND = {"tripod": 96, "diamond": 96, "ntype": 4}
TARGET_ROUNDS = 32

#: example_pulses: the bundled scenarios and the commands run on each.
EXAMPLES = {
    "tripod": ("solve", "simulate", "verify"),
    "diamond": ("solve", "simulate", "verify", "qomap"),
    "ntype": ("solve", "simulate", "verify"),
}

#: qo_lab_frame: carrier scales s (level frequencies (1, 1.35, 2.6) * s, the
#: bundled diamond at s = 1000), lab-frame steps per carrier period, and
#: the RWA step count.
CARRIER_SCALES = (3e2, 1e3)
STEPS_PER_PERIOD = 40
RWA_STEPS = 2000


def use_repo_src() -> dict:
    """Put the repository's src/ first on this interpreter's path and return
    an environment that does the same for child interpreters."""
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def require_repo_package(module) -> None:
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"fourlevel was imported from {origin}, not from {SRC}")


def _copy_scenario(name: str, out: Path) -> dict:
    scenario = json.loads((SCENARIOS / f"{name}.json").read_text())
    (out / f"{name}.json").write_text(json.dumps(scenario, indent=2) + "\n")
    return scenario


def build(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "target_sweep":
        import numpy as np

        rng = np.random.default_rng(seed)
        rounds = []
        for _ in range(TARGET_ROUNDS):
            draw = {}
            for config, n in TARGETS_PER_ROUND.items():
                b = rng.normal(size=(n, 4))
                draw[config] = (b / np.linalg.norm(b, axis=1, keepdims=True)).tolist()
            rounds.append(draw)  # each target uniform on the unit 3-sphere
        inputs = {"T": 1.0, "rounds": rounds}
    elif workload == "example_pulses":
        for name in EXAMPLES:
            _copy_scenario(name, out)
        inputs = {"seed": seed, "commands": [[n, c] for n, cmds in EXAMPLES.items() for c in cmds]}
    elif workload == "qo_lab_frame":
        from reference import carrier_fields

        scenario = _copy_scenario("diamond", out)
        phases = scenario["phases"]
        T = float(scenario["T"])
        runs = []
        for scale in CARRIER_SCALES:
            levels = [w * scale / 1000.0 for w in scenario["qo"]["omega_levels"]]
            top = max(carrier_fields(levels, phases["eps"], phases["eps_prime"], T).values())
            steps = math.ceil(STEPS_PER_PERIOD * top * T / (2 * math.pi))
            runs.append({"scale": scale, "omega_levels": levels, "lab_steps": int(steps)})
        inputs = {"scenario": "diamond.json", "carriers": runs, "rwa_steps": RWA_STEPS}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs["workload"] = workload
    (out / "inputs.json").write_text(json.dumps(inputs) + "\n")
    return inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    use_repo_src()
    import fourlevel.cli

    require_repo_package(fourlevel.cli)
    build(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
