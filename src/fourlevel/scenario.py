"""Scenario files: strict JSON descriptions of a solve/simulate run."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hamiltonian import PhaseSchedule
from .propagator import DEFAULT_STEPS, _check_steps
from .solvers import LevelConfig, TargetSpec, _finite_real

_ALLOWED_KEYS = {
    "config",
    "target",
    "T",
    "phases",
    "ansatz",
    "steps",
    "free_params",
    "initial_guess",
    "qo",
}
_ALLOWED_PHASE_KEYS = {"eps", "eps_prime"}
_ALLOWED_QO_KEYS = {"omega_levels"}
_ANSATZ = {"name": "cosine_ramp"}  # the only ansatz: the solvers' pulse is rotation.CosineRamp
#: The optional keys that one config alone reads.
_CONFIG_KEYS = {"free_params": LevelConfig.DIAMOND, "initial_guess": LevelConfig.N_TYPE, "qo": LevelConfig.DIAMOND}


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    config: LevelConfig
    target: TargetSpec
    phases: PhaseSchedule
    steps: int = DEFAULT_STEPS
    initial_guess: tuple[float, float, float] | None = None
    omega_levels: np.ndarray | None = None

    def __post_init__(self):
        try:
            _check_steps(self.steps)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    @property
    def T(self) -> float:  # the horizon, held and checked by the phase schedule
        return self.phases.T


def _require_number(obj, name: str) -> float:
    if not _finite_real(obj):
        raise ScenarioError(f"{name} must be a finite number")
    return float(obj)


def _require_floats(obj, n: int, name: str) -> np.ndarray:
    if not (isinstance(obj, list) and len(obj) == n):
        raise ScenarioError(f"{name} must be {n} finite numbers")
    return np.array([_require_number(v, f"{name}[{i}]") for i, v in enumerate(obj)])


def load_scenario(path: str | Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("config", "target", "T", "phases"):
        if key not in raw:
            raise ScenarioError(f"scenario is missing required key {key!r}")

    try:
        config = LevelConfig(raw["config"])
    except ValueError as exc:
        raise ScenarioError(f"unknown config {raw['config']!r}") from exc
    for key, owner in _CONFIG_KEYS.items():
        if key in raw and config is not owner:
            raise ScenarioError(f"{key} is read by the {owner.value} config alone, not {config.value}")

    b = _require_floats(raw["target"], 4, "target")
    T = _require_number(raw["T"], "T")

    phases_raw = raw["phases"]
    if not isinstance(phases_raw, dict) or set(phases_raw) - _ALLOWED_PHASE_KEYS:
        raise ScenarioError("phases must be an object with keys eps, eps_prime")
    eps = _require_floats(phases_raw.get("eps", [0, 0, 0]), 3, "phases.eps")
    epsp = _require_floats(
        phases_raw.get("eps_prime", [0, 0, 0]), 3, "phases.eps_prime"
    )

    ansatz = raw.get("ansatz", _ANSATZ)
    if ansatz != _ANSATZ:
        raise ScenarioError(f"unknown ansatz {ansatz!r}, expected {_ANSATZ!r}")

    initial_guess = None
    if "initial_guess" in raw:
        initial_guess = tuple(_require_floats(raw["initial_guess"], 3, "initial_guess"))

    omega_levels = None
    if "qo" in raw:
        qo_raw = raw["qo"]
        if not isinstance(qo_raw, dict) or set(qo_raw) != _ALLOWED_QO_KEYS:
            raise ScenarioError("qo must be an object with key omega_levels")
        omega_levels = _require_floats(qo_raw["omega_levels"], 3, "qo.omega_levels")

    try:
        # TargetSpec checks free_params' names (solvers.FREE_PARAMS) and values
        target = TargetSpec(b, raw.get("free_params", {}))
        phases = PhaseSchedule(eps=eps, eps_prime=epsp, T=T)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    return Scenario(
        config=config,
        target=target,
        phases=phases,
        steps=raw.get("steps", DEFAULT_STEPS),
        initial_guess=initial_guess,
        omega_levels=omega_levels,
    )
