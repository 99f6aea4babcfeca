import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import fourlevel.solvers
from fourlevel.cli import main
from fourlevel.rotation import (
    AnglePair,
    CosineRamp,
    final_state,
    hr_analytic,
    ur_of_angles,
)
from fourlevel.solvers import (
    FORBIDDEN,
    LevelConfig,
    NoSolutionFoundError,
    SingularParameterizationError,
    SolverError,
    TargetSpec,
    _finish,
    solve_diamond,
    solve_ntype,
    solve_tripod,
)

from conftest import (
    hr_numeric,
    ntype_boundary,
    ntype_converged_candidates,
    ntype_cut_loop_roots,
    ntype_lm,
    ntype_single_batch_root,
    rotation_distance,
    topology_couplings,
)

E1 = np.array([1.0, 0, 0, 0])
SQRT3 = math.sqrt(3.0)
NTYPE_SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "ntype.json"


#: initial-guess angles, sin(theta) = 0 included
GUESS_ANGLES = st.sampled_from([0.0, math.pi]) | st.floats(-7.0, 7.0)

#: the bundled ntype.json target and its initial guess, an exact root
E4 = np.array([0.0, 0.0, 0.0, 1.0])
E4_ROOT = (math.pi / 6, math.pi / 2, -math.pi / 2)


def random_target(rng) -> TargetSpec:
    b = rng.normal(size=4)
    return TargetSpec(b / np.linalg.norm(b))


class TestTargetSpec:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            TargetSpec(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            TargetSpec(np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TargetSpec(np.array([bad, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, True, "1.0", 10**400],
        ids=["nan", "inf", "-inf", "bool", "str", "int-beyond-float"],
    )
    def test_rejects_bad_free_param_value(self, value):
        with pytest.raises(ValueError, match="free_params.theta1 must be a finite number"):
            TargetSpec(E1, {"theta1": value})

    def test_rejects_unknown_free_param(self):
        # a misspelled key would otherwise leave theta1 at its default
        with pytest.raises(ValueError, match="thta1"):
            TargetSpec(E1, {"thta1": 1.0})

    def test_rejects_free_params_not_a_mapping(self):
        with pytest.raises(ValueError, match="map names"):
            TargetSpec(E1, [("theta1", 1.0)])

    def test_accepts_real_free_params(self):
        for value in (1, 1.0, np.float64(1.0)):
            target = TargetSpec(np.array([0.0, 1.0, 0.0, 0.0]), {"theta1": value})
            assert solve_diamond(target).boundary.theta1 == 1.0


class TestSolveTripod:
    def test_symmetric_superposition(self):
        solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
        b = solved.boundary
        assert abs(b.gamma1 - math.pi / 4) < 1e-14
        assert abs(b.theta1 - math.atan(math.sqrt(2))) < 1e-14
        assert abs(b.phi1 - math.pi / 4) < 1e-14
        # both quaternion factors share the same angles
        assert (b.gamma1, b.theta1, b.phi1) == (b.gamma2, b.theta2, b.phi2)
        assert solved.within_canonical_ranges

    def test_identity_target(self):
        solved = solve_tripod(TargetSpec(E1))
        assert solved.boundary.gamma1 == 0.0
        assert solved.boundary.theta1 == 0.0 and solved.boundary.phi1 == 0.0

    def test_single_level_target(self):
        solved = solve_tripod(TargetSpec(np.array([0.0, 1.0, 0.0, 0.0])))
        b = solved.boundary
        assert abs(b.gamma1 - math.pi / 4) < 1e-14
        assert b.theta1 == 0.0 and b.phi1 == 0.0
        assert np.linalg.norm(ur_of_angles(b) @ E1 - [0, 1, 0, 0]) < 1e-12

    def test_random_round_trip(self, rng):
        for _ in range(25):
            target = random_target(rng)
            solved = solve_tripod(target)
            assert np.linalg.norm(ur_of_angles(solved.boundary) @ E1 - target.b) < 1e-10

    def test_constraint_residual_small(self, rng):
        solved = solve_tripod(random_target(rng))
        assert solved.constraint_residual < 1e-9


class TestSolveDiamond:
    def test_loop_superposition(self):
        target = TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
        solved = solve_diamond(target)
        b = solved.boundary
        assert abs(b.gamma1 - math.pi) < 1e-12
        assert abs(b.gamma2 - math.pi / 2) < 1e-12
        assert abs(b.theta2 + 3 * math.pi / 4) < 1e-12
        assert b.phi1 == 0.0 and b.phi2 == 0.0
        assert not solved.within_canonical_ranges  # theta2 < 0

    def test_identity_target(self):
        solved = solve_diamond(TargetSpec(E1))
        assert solved.boundary.gamma1 == 0.0 and solved.boundary.gamma2 == 0.0

    def test_singular_theta1_reported(self):
        target = TargetSpec(np.array([0.0, 1.0, 0.0, 0.0]), {"theta1": 0.0})
        with pytest.raises(SingularParameterizationError, match="theta1"):
            solve_diamond(target)

    def test_random_round_trip(self, rng):
        count = 0
        while count < 25:
            target = random_target(rng)
            theta1 = rng.uniform(0.3, math.pi - 0.3)
            try:
                solved = solve_diamond(
                    TargetSpec(target.b, {"theta1": theta1})
                )
            except SingularParameterizationError:
                continue
            assert np.linalg.norm(ur_of_angles(solved.boundary) @ E1 - target.b) < 1e-9
            count += 1

    @pytest.mark.parametrize("solver", [solve_tripod, solve_diamond])
    def test_closed_form_boundary_is_python_floats(self, solver, rng):
        # the generator is read with math's trig, and stays in floats
        solved = solver(random_target(rng))
        assert all(type(v) is float for v in dataclasses.astuple(solved.boundary))
        assert all(type(v) is float for v in dataclasses.astuple(solved.schedule.generator))
        assert type(solved.constraint_residual) is float

    def test_default_theta1_is_right_angle(self, rng):
        target = random_target(rng)
        solved = solve_diamond(target)
        assert solved.boundary.theta1 == math.pi / 2


class TestSolveNType:
    def test_top_level_target_seeded(self):
        solved = solve_ntype(
            TargetSpec(np.array([0.0, 0.0, 0.0, 1.0])),
            initial_guess=(math.pi / 6, math.pi / 2, -math.pi / 2),
        )
        b = solved.boundary
        assert abs(b.theta1 - math.pi / 6) < 1e-9
        assert abs(b.theta2 - math.pi / 2) < 1e-9
        assert abs(b.gamma2 + math.pi / 2) < 1e-9
        assert abs(b.gamma1 - math.pi) < 1e-9
        assert b.phi1 == math.pi / 2 and b.phi2 == math.pi / 2

    def test_gamma_rate_lock(self):
        solved = solve_ntype(
            TargetSpec(np.array([0.0, 0.0, 0.0, 1.0])),
            initial_guess=(math.pi / 6, math.pi / 2, -math.pi / 2),
        )
        b = solved.boundary
        assert abs(
            b.gamma1 + math.sin(b.theta2) / math.sin(b.theta1) * b.gamma2
        ) < 1e-9

    def test_identity_target(self):
        solved = solve_ntype(TargetSpec(E1))
        assert np.linalg.norm(ur_of_angles(solved.boundary) @ E1 - E1) < 1e-8

    def test_random_round_trip(self, rng):
        for _ in range(10):
            target = random_target(rng)
            solved = solve_ntype(target)
            assert np.linalg.norm(ur_of_angles(solved.boundary) @ E1 - target.b) < 1e-8

    def test_boundary_is_python_floats(self, rng):
        # numpy scalars would double the cost of every generator evaluation
        solved = solve_ntype(random_target(rng))
        assert all(type(v) is float for v in dataclasses.astuple(solved.boundary))
        assert all(type(v) is float for v in dataclasses.astuple(solved.schedule.generator))

    def test_deterministic_for_fixed_seed(self, rng, tmp_path):
        # the library takes no seed; the command line's --seed, run twice
        # with the same value, writes the same angles.json
        for scenario in ntype_scenarios(rng, tmp_path):
            written = {cli_solve(scenario, tmp_path / f"run{i}", 7) for i in range(2)}
            assert len(written) == 1

    def test_seed_changes_no_result(self, rng, tmp_path):
        # the loop search draws nothing, and --seed is only validated
        for scenario in ntype_scenarios(rng, tmp_path):
            written = {cli_solve(scenario, tmp_path / str(seed), seed) for seed in (0, 7, 2**31 - 1)}
            assert len(written) == 1

    def test_failure_carries_best_residual(self, monkeypatch):
        # every target on the sphere is reachable, and the solver may reach
        # a residual of exactly 0, so force a failure by refining no
        # bracket: the lock's sign changes are left at their grid cells,
        # and this target has no axis-family root
        monkeypatch.setattr(fourlevel.solvers, "_NTYPE_REFINE_STEPS", 0)
        target = TargetSpec(np.array([0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(NoSolutionFoundError) as info:
            solve_ntype(target)
        assert 1e-8 < info.value.best_residual < math.inf

    @pytest.mark.parametrize(
        "kind, rng_seed", [("none", 0), ("converging", 1), ("failing", 2), ("irregular", 3)]
    )
    def test_staged_solve_equals_single_batch(self, kind, rng_seed):
        # a guess that converges alone under Levenberg-Marquardt selects the
        # root that one batch over the guess and all starts picks; a guess
        # that does not selects the converged candidate nearest it; without
        # a regular guess, the loop search finds a root of no larger pulse
        # area than that batch's
        rng = np.random.default_rng(rng_seed)
        for _ in range(10):
            x0 = rng.uniform([0.2, 0.2, -3.0], [2.9, 2.9, 3.0])
            b = ntype_state(*x0)
            guess = ntype_guess(kind, x0, b, rng)
            seed = int(rng.integers(1 << 31))  # the single batch's draws
            solved = solve_ntype(TargetSpec(b), initial_guess=guess).boundary
            assert np.linalg.norm(final_state(solved) - b) < 1e-8
            if kind == "failing":
                assert_nearest_candidate(b, guess, solved)
                continue
            try:
                expected = ntype_single_batch_root(b, guess, seed)
            except NoSolutionFoundError:
                continue
            if kind == "converging":
                assert same_root(solved, expected, 1e-10)
            else:
                assert pulse_area(solved) <= pulse_area(expected) + 1e-9

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    @pytest.mark.parametrize("guess", [E4_ROOT, None])
    def test_rejects_bad_seed(self, seed, guess):
        # solve_ntype has no seed: any seed is rejected, with or without a guess
        with pytest.raises(TypeError, match="seed"):
            solve_ntype(TargetSpec(E4), initial_guess=guess, seed=seed)

    def test_singular_initial_guess_falls_back_to_the_starts(self, rng):
        # |sin(theta1)| < 1e-6 is valid scenario input; such a guess selects
        # nothing, and the solve is the guess-free one, bit for bit
        for target in (TargetSpec(E4), random_target(rng), random_target(rng)):
            free = solve_ntype(target)
            for guess in ((0.0, 1.0, 1.0), (math.pi, -2.0, 5.0), (9e-7, 1.0, 1.0)):
                solved = solve_ntype(target, initial_guess=guess)
                assert solved.boundary == free.boundary
                assert solved.constraint_residual == free.constraint_residual
        assert math.sin(free.boundary.theta1) != 0.0

    @pytest.mark.parametrize(
        "guess",
        [
            (math.nan, 1.0, 1.0),
            (math.inf, 1.0, 1.0),
            (1.0, -math.inf, 1.0),
            (1.0, 1.0, math.nan),
            (True, 1.0, 1.0),
            (1.0, 2.0),
            (1.0, 2.0, 3.0, 4.0),
            (1.0, "2.0", 3.0),
            (1.0, 2.0, 10**400),
            1.0,
        ],
        ids=[
            "nan", "inf", "-inf", "nan-gamma2", "bool", "two", "four", "str", "int-beyond-float",
            "scalar",
        ],
    )
    def test_rejects_bad_initial_guess(self, guess):
        # a NaN guess used to be ignored silently, and its distances would
        # make the selection arbitrary
        with pytest.raises(ValueError, match="initial_guess must be three finite real numbers"):
            solve_ntype(TargetSpec(E4), initial_guess=guess)

    def test_accepts_real_initial_guess(self):
        # a list, an array and ints are sequences of real numbers too
        expected = solve_ntype(TargetSpec(E4), initial_guess=E4_ROOT).boundary
        for guess in (list(E4_ROOT), np.array(E4_ROOT)):
            assert solve_ntype(TargetSpec(E4), initial_guess=guess).boundary == expected
        solve_ntype(TargetSpec(E4), initial_guess=(1, 2, 3))

    def test_generated_roots_come_back_as_guesses(self):
        # 240 roots polished by Levenberg-Marquardt from seeded angles, of
        # pulse area up to 54, 145 of them above the fixed turns' 3 pi: each,
        # given as the guess, is the root returned, and the same root
        # perturbed off the root selects the converged candidate nearest it.
        # Five of these roots have a second lock root within one sample step
        # on the loop, which the 128 samples alone miss
        rng = np.random.default_rng(15)
        x0 = rng.uniform([0.2, 0.2, -12.0], [2.9, 2.9, 12.0], size=(240, 3))
        x0[:, :2] += rng.choice([0.0, math.pi], size=(240, 2))
        areas = []
        for x in x0:
            b = ntype_state(*x)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                root, res = ntype_lm(x[None, :], b, 1e-8)
            assert res[0] <= 1e-12
            root = root[0]
            guess = tuple(root.tolist())
            areas.append(pulse_area(ntype_boundary(*guess)))
            solved = solve_ntype(TargetSpec(b), initial_guess=guess).boundary
            assert same_root(solved, ntype_boundary(*guess), 1e-10)
            perturbed = tuple((root + rng.normal(scale=0.05, size=3)).tolist())
            solved = solve_ntype(TargetSpec(b), initial_guess=perturbed).boundary
            assert_nearest_candidate(b, perturbed, solved)
        assert sum(area > 3 * math.pi for area in areas) == 145

    def test_guess_beside_a_near_root(self):
        # this root's lock has a second root less than one sample step away
        # on the loop: the samples miss the pair, so the guess-free search
        # has no candidate near it; the guess's own samples find it
        guess = (5.355490075442916, 1.6884535704496506, 3.163628227043148)
        b = ntype_state(*guess)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            free = fourlevel.solvers._ntype_loop_roots(b)
        assert np.min(np.abs(turn(free[:, :2] - guess[:2])).max(axis=1)) > 0.01
        solved = solve_ntype(TargetSpec(b), initial_guess=guess).boundary
        assert same_root(solved, ntype_boundary(*guess), 1e-10)

    def test_initial_guess_wins_when_it_converges(self):
        # the caller's root is kept although the search finds one of smaller area
        guess = (1.0, 2.0, 2.5)
        target = TargetSpec(ntype_state(*guess))
        seeded = solve_ntype(target, initial_guess=guess).boundary
        free = solve_ntype(target).boundary
        assert abs(seeded.theta1 - guess[0]) < 1e-9
        assert pulse_area(free) < pulse_area(seeded) - 0.1

    def test_angles_returned_modulo_two_pi(self, rng):
        for _ in range(10):
            b = solve_ntype(random_target(rng)).boundary
            assert 0.0 <= b.theta1 < 2 * math.pi and 0.0 <= b.theta2 < 2 * math.pi

    def test_pulse_area_below_two_pi(self):
        # the smallest-area root rule keeps |gamma1(T)| + |gamma2(T)| < 2 pi
        rng = np.random.default_rng(50)
        for _ in range(50):
            target = random_target(rng)
            rng.integers(1 << 31)  # an unused draw: it keeps the sequence of targets
            b = solve_ntype(target).boundary
            assert abs(b.gamma1) + abs(b.gamma2) < 2 * math.pi

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_signed_axis_targets(self, k, sign):
        check_root_or_solver_error(sign * np.eye(4)[k], initial_guess=None)

    @settings(max_examples=40, deadline=None)
    @given(
        v=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
        initial_guess=st.none() | st.tuples(*[GUESS_ANGLES] * 3),
    )
    def test_random_targets_give_root_or_solver_error(self, v, initial_guess):
        check_root_or_solver_error(np.array(v) / np.linalg.norm(v), initial_guess)

    def test_round_trip_from_generated_roots(self):
        # targets b = q p of seeded lock-satisfying angles of area at most
        # 3 pi, half of them placed 1e-10..1e-4 (in gamma1) off a fold of
        # the loop, where its two square-root branches join: the solve finds
        # that root or one of smaller area
        rng = np.random.default_rng(10)
        for i in range(60):
            if i % 2:
                g2, delta = rng.uniform(0.1, math.pi - 0.1), rng.uniform(0.0, 2 * math.pi)
                g1 = math.atan2(math.sin(g2), -math.cos(g2) * math.cos(delta))  # the fold
                g1 += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10, -4)
                theta2 = math.atan2(-g1 * math.sin(delta), g1 * math.cos(delta) + g2)
                theta1 = theta2 + delta
            else:
                theta1, theta2 = rng.uniform(0.0, 2 * math.pi, 2)
                g2 = rng.uniform(-3.0, 3.0)
                g1 = -math.sin(theta2) / math.sin(theta1) * g2
            if abs(math.sin(theta1)) < 0.05 or abs(g1) + abs(g2) > 3 * math.pi:
                continue
            b = ntype_state(theta1, theta2, g2)
            solved = solve_ntype(TargetSpec(b))
            assert pulse_area(solved.boundary) <= abs(g1) + abs(g2) + 1e-9
            assert np.linalg.norm(final_state(solved.boundary) - b) <= 1e-8
            assert solved.constraint_residual <= 1e-8

    def test_area_at_most_single_batch(self):
        # the batch of the Levenberg-Marquardt grid and seeded draws is the
        # reference: the loop search finds its root or one of smaller area
        rng = np.random.default_rng(40)
        for _ in range(40):
            target = random_target(rng)
            seed = int(rng.integers(1 << 31))
            expected = ntype_single_batch_root(target.b, seed=seed)
            solved = solve_ntype(target).boundary
            assert pulse_area(solved) <= pulse_area(expected) + 1e-9

    def test_near_axis_targets_give_root_or_no_solution(self, monkeypatch):
        # +-e_k plus noise of size 1e-16..1e-3: a root within 1e-8, or
        # NoSolutionFoundError; never NaN and never another error.  Against
        # the search with 16-part cuts alone (31 of these 600 fail there):
        # no new failure, and each root of the same pulse area within 1e-9
        rng = np.random.default_rng(11)
        targets = []
        for i in range(600):
            b = np.eye(4)[i % 4] * (1.0 if i % 8 < 4 else -1.0)
            b = b + 10.0 ** rng.uniform(-16, -3) * rng.normal(size=4)
            targets.append(b / np.linalg.norm(b))
        roots = [near_axis_root(b) for b in targets]
        monkeypatch.setattr(fourlevel.solvers, "_ntype_loop_roots", ntype_cut_loop_roots)
        cut_roots = [near_axis_root(b) for b in targets]
        assert sum(root is None for root in cut_roots) == 31
        for root, cut_root in zip(roots, cut_roots):
            if root is None:
                assert cut_root is None
            elif cut_root is not None:
                assert abs(pulse_area(root) - pulse_area(cut_root)) <= 1e-9

    def test_loop_roots_match_the_cut_oracle(self, monkeypatch):
        # 200 seeded targets: the secant finish gives the candidates of
        # 16-part cuts alone, in the same (k, m, psi) order and each within
        # 1e-10, and the solve picks the same root, converged to rounding
        rng = np.random.default_rng(14)
        targets = [random_target(rng) for _ in range(200)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            found = [fourlevel.solvers._ntype_loop_roots(t.b) for t in targets]
            expected = [ntype_cut_loop_roots(t.b) for t in targets]
        roots = [solve_ntype(t).boundary for t in targets]
        monkeypatch.setattr(fourlevel.solvers, "_ntype_loop_roots", ntype_cut_loop_roots)
        for target, x, y, root in zip(targets, found, expected, roots):
            assert x.shape == y.shape
            assert np.max(np.abs(turn(x[:, :2] - y[:, :2])), initial=0.0) <= 1e-10
            assert np.max(np.abs(x[:, 2] - y[:, 2]), initial=0.0) <= 1e-10
            cut_root = solve_ntype(target).boundary
            assert abs(turn(root.theta1 - cut_root.theta1)) <= 1e-10
            assert abs(turn(root.theta2 - cut_root.theta2)) <= 1e-10
            assert abs(root.gamma2 - cut_root.gamma2) <= 1e-10
            assert abs(pulse_area(root) - pulse_area(cut_root)) <= 1e-9
            assert np.linalg.norm(final_state(root) - target.b) <= 1e-12

    def test_lock_evaluations_per_solve(self, monkeypatch):
        # one lock call per refinement step, every bracket at once: the
        # sample, three 16-part cuts (15 points per bracket) and secant
        # steps (8 points), in place of the sample and eleven cuts; near an
        # axis the cuts alone; with no refinement the sample alone
        points = []
        lock = fourlevel.solvers._ntype_lock

        def spy(psi, b, k, m):
            points.append(np.shape(psi)[-1])
            return lock(psi, b, k, m)

        monkeypatch.setattr(fourlevel.solvers, "_ntype_lock", spy)
        solve_ntype(TargetSpec(np.full(4, 0.5)))
        assert points == [129, 15, 15, 15, 8, 8]
        points.clear()
        solve_ntype(TargetSpec(E4))
        assert points == [129] + [15] * 11
        points.clear()
        monkeypatch.setattr(fourlevel.solvers, "_NTYPE_REFINE_STEPS", 0)
        with pytest.raises(NoSolutionFoundError):
            solve_ntype(TargetSpec(np.full(4, 0.5)))
        assert points == [129]

    @pytest.mark.parametrize("guess", [None, (1.0, 2.0, 0.5)])
    def test_collapsed_loop_is_skipped(self, monkeypatch, guess):
        # for b2 = b4 = 0 the loop is one point and the lock's sign changes
        # on it are rounding noise: the search evaluates no lock, and the
        # axis families give the root that the full search gave (16 lock
        # calls), with or without a guess
        calls = []
        lock = fourlevel.solvers._ntype_lock

        def spy(psi, b, k, m):
            calls.append(np.shape(psi))
            return lock(psi, b, k, m)

        monkeypatch.setattr(fourlevel.solvers, "_ntype_lock", spy)
        target = TargetSpec(np.array([0.6, 0.0, 0.8, 0.0]))
        solved = solve_ntype(target, initial_guess=guess)
        assert calls == []
        half_pi = math.pi / 2
        assert solved.boundary == AnglePair(
            half_pi, 1.1071487177940904, half_pi, -half_pi, 2.0344439357957027, half_pi
        )
        assert np.linalg.norm(final_state(solved.boundary) - target.b) < 1e-15

    def test_illinois_steps_close_a_curved_bracket(self, monkeypatch):
        # a lock exp(2000 (psi - psi0)) - 1 bends across the bracket that the
        # cuts leave, so plain regula falsi keeps its steep end and creeps;
        # halving the kept end's value brings the bracket to the final width
        # within the four secant steps, with no cuts after them
        psi0, points = 4.0 / 3.0, []

        def lock(psi, b, k, m):
            points.append(np.shape(psi)[-1])
            curve = np.expm1(np.minimum(2000.0 * (psi - psi0), 30.0))
            return np.where((k == 0) & (m == 0), curve, 1.0)

        monkeypatch.setattr(fourlevel.solvers, "_ntype_lock", lock)
        monkeypatch.setattr(fourlevel.solvers, "_ntype_loop", lambda psi, b: (psi,) * 4)
        roots = fourlevel.solvers._ntype_loop_roots(np.full(4, 0.5))
        assert points == [129, 15, 15, 15, 8, 8, 8, 8]
        assert roots.shape == (1, 3)
        assert abs(roots[0, 0] - psi0) <= 2 * math.pi / 128 / 16**11


def near_axis_root(b):
    """solve_ntype's boundary for b, checked finite and within 1e-8, or None
    if it raises NoSolutionFoundError (its best residual checked)."""
    try:
        solved = solve_ntype(TargetSpec(b))
    except NoSolutionFoundError as exc:
        assert 1e-8 < exc.best_residual < math.inf
        return None
    assert np.all(np.isfinite(dataclasses.astuple(solved.boundary)))
    assert np.linalg.norm(final_state(solved.boundary) - b) < 1e-8
    assert solved.constraint_residual < 1e-8
    return solved.boundary


def turn(angle):
    """An angle, or angle difference, wrapped into [-pi, pi)."""
    return (angle + math.pi) % (2 * math.pi) - math.pi


def ntype_state(theta1, theta2, gamma2):
    """The unit state q p reached from (theta1, theta2, gamma2(T)), gamma1(T)
    set by the lock."""
    b = final_state(ntype_boundary(theta1, theta2, gamma2))
    return b / np.linalg.norm(b)


def pulse_area(boundary):
    return abs(boundary.gamma1) + abs(boundary.gamma2)


def same_root(a, b, tol):
    """Whether two N-type boundaries agree within tol, theta modulo 2 pi."""
    return (
        abs(turn(a.theta1 - b.theta1)) <= tol
        and abs(turn(a.theta2 - b.theta2)) <= tol
        and abs(a.gamma1 - b.gamma1) <= tol
        and abs(a.gamma2 - b.gamma2) <= tol
    )


def assert_nearest_candidate(b, guess, solved):
    """solved is, in the guess's form, the converged candidate nearest the
    guess by the rotation-vector distance, ties within 1e-9 allowed."""
    candidates = ntype_converged_candidates(b, guess)
    target = ntype_boundary(*guess)
    dist = rotation_distance(solved, target)
    assert np.linalg.norm(final_state(solved) - b) <= 1e-8
    assert dist <= min(rotation_distance(c, target) for c in candidates) + 1e-9
    assert min(rotation_distance(c, solved) for c in candidates) <= 1e-16
    assert math.cos(solved.theta1 - target.theta1) >= 0.0
    assert math.cos(solved.theta2 - target.theta2) >= 0.0


def ntype_guess(kind, root, b, rng):
    """An initial guess of the given kind for a target b with the given root:
    none, a perturbed root that converges alone, one that does not, or one
    with sin(theta1) = 0."""
    if kind == "none":
        return None
    if kind == "irregular":
        return (0.0, *rng.uniform(-7.0, 7.0, 2))
    while True:
        if kind == "converging":
            guess = root + rng.normal(scale=1e-2, size=3)
        else:
            guess = rng.uniform(-7.0, 7.0, 3)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _, res = ntype_lm(guess[None, :], b, 1e-8)
        if (res[0] <= 1e-8) == (kind == "converging"):
            return tuple(float(v) for v in guess)


def ntype_scenarios(rng, tmp_path) -> list[Path]:
    """The bundled N-type scenario, and a copy with a random target and no
    initial guess."""
    payload = json.loads(NTYPE_SCENARIO.read_text())
    del payload["initial_guess"]
    payload["target"] = random_target(rng).b.tolist()
    free = tmp_path / "ntype_free.json"
    free.write_text(json.dumps(payload))
    return [NTYPE_SCENARIO, free]


def cli_solve(scenario: Path, out: Path, seed: int) -> str:
    """The angles.json that the command line's solve writes with --seed."""
    assert main(["solve", "--scenario", str(scenario), "--out", str(out), "--seed", str(seed)]) == 0
    return (out / "angles.json").read_text()


def check_root_or_solver_error(b, initial_guess):
    """solve_ntype gives a finite root within 1e-8 or a SolverError, never
    NaN and never another error (numpy's LinAlgError among them)."""
    try:
        solved = solve_ntype(TargetSpec(b), initial_guess=initial_guess)
    except SolverError:
        return
    assert np.all(np.isfinite(dataclasses.astuple(solved.boundary)))
    assert np.linalg.norm(final_state(solved.boundary) - b) < 1e-8
    assert solved.constraint_residual < 1e-8


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("solver", [solve_tripod, solve_diamond, solve_ntype])
def test_solvers_reject_bad_horizon(solver, horizon):
    with pytest.raises(ValueError, match="horizon"):
        solver(TargetSpec(np.array([0.0, 1.0, 1.0, 1.0]) / SQRT3), horizon)


@pytest.mark.parametrize("horizon", [1e-310, 1.7e308])
@pytest.mark.parametrize("solver", [solve_tripod, solve_diamond, solve_ntype])
def test_solvers_reject_overflowing_horizon(solver, horizon):
    # pi/T overflows at a subnormal T and pi*T at the top of the float
    # range: the ramp's rate or phase would turn the residual into NaN
    with pytest.raises(ValueError, match="overflows"):
        solver(TargetSpec(np.array([0.0, 1.0, 1.0, 1.0]) / SQRT3), horizon)


@pytest.mark.parametrize("horizon", [1.75e-308, 5.72e307])
@pytest.mark.parametrize("solver", [solve_tripod, solve_diamond, solve_ntype])
def test_extreme_accepted_horizon_gives_a_finite_residual(solver, horizon):
    # the least and the largest T accepted: the ramp's peak rate pi/(2T)
    # stays finite, so a zero entry of G cannot make the residual NaN
    solved = solver(TargetSpec(np.array([0.0, 1.0, 1.0, 1.0]) / SQRT3), horizon)
    assert math.isfinite(solved.constraint_residual)


class TestForbiddenCouplings:
    @pytest.mark.parametrize("config", list(LevelConfig))
    def test_forbidden_vanish_on_grid(self, config, rng):
        target = random_target(rng)
        if config is LevelConfig.INVERSE_TRIPOD:
            solved = solve_tripod(target)
        elif config is LevelConfig.DIAMOND:
            solved = solve_diamond(target)
        else:
            solved = solve_ntype(target)
        T = solved.schedule.horizon
        for t in np.linspace(1e-4, T - 1e-4, 40):
            cs = hr_numeric(solved.schedule, t, h=1e-6 * T)
            for name in FORBIDDEN[config]:
                assert abs(getattr(cs, name)) < 1e-8

    @pytest.mark.parametrize(
        "config, boundary",
        [
            # tripod factors with different theta
            (LevelConfig.INVERSE_TRIPOD, AnglePair(0.9, 0.4, 0.3, 0.9, 1.3, 0.3)),
            # diamond with phi1 != 0
            (LevelConfig.DIAMOND, AnglePair(0.9, math.pi / 2, 0.5, 0.7, 1.0, 0.0)),
            # N-type with phi2 != pi/2 and unlocked gamma rates
            (LevelConfig.N_TYPE, AnglePair(0.9, 0.6, math.pi / 2, 0.7, 1.1, 0.2)),
        ],
    )
    def test_residual_sees_broken_constraint(self, config, boundary):
        # the solvers' residual check reads the exact generator; on a
        # schedule that breaks the topology's constraint it must report the
        # forbidden couplings the finite-difference oracle finds on its grid,
        # whose odd point count puts the ramp's peak t = T/2 on it
        sched = CosineRamp(boundary, 1.0)
        residual = _finish(config, boundary, 1.0).constraint_residual
        h = 1e-6
        oracle = max(
            abs(getattr(hr_numeric(sched, t, h=h), name))
            for t in np.linspace(h, 1.0 - h, 51)
            for name in FORBIDDEN[config]
        )
        assert residual > 1e-8
        assert abs(residual - oracle) < 1e-8

    @pytest.mark.parametrize("config", list(LevelConfig))
    @pytest.mark.parametrize("samples", [2, 50, 200])
    @settings(max_examples=50, deadline=None)
    @given(
        angles=st.tuples(*[st.floats(-2 * math.pi, 2 * math.pi)] * 6),
        log_horizon=st.floats(-9.0, 9.0),
    )
    def test_residual_equals_the_generator_on_its_grid(self, config, samples, angles, log_horizon):
        # on a grid of `samples` times, r'(t) G equals the generator of the
        # schedule; the residual is G's largest forbidden entry times the
        # exact peak rate pi/(2T), and no grid value exceeds it
        boundary, T = AnglePair(*angles), 10.0**log_horizon
        solved = _finish(config, boundary, T)
        generator = solved.schedule.generator
        g = generator.as_array()
        grid = np.linspace(1e-6 * T, T - 1e-6 * T, samples)
        ramp = solved.schedule.couplings(grid).as_array()
        exact = hr_analytic(solved.schedule.value(grid), solved.schedule.rate(grid)).as_array()
        peak = 0.5 * math.pi / T
        scale = max(1.0, np.linalg.norm(g))
        np.testing.assert_allclose(ramp, exact, rtol=0, atol=1e-14 * scale * peak)
        forbidden = [getattr(generator, n) for n in FORBIDDEN[config]]
        assert solved.constraint_residual == max(map(abs, forbidden)) * peak
        names = [f.name for f in dataclasses.fields(generator)]
        on_grid = np.abs(ramp[:, [names.index(n) for n in FORBIDDEN[config]]])
        assert np.all(on_grid <= solved.constraint_residual)


class TestCouplingSchedules:
    def test_zero_at_endpoints(self, rng):
        for config, solver in (
            (LevelConfig.INVERSE_TRIPOD, solve_tripod),
            (LevelConfig.DIAMOND, solve_diamond),
            (LevelConfig.N_TYPE, solve_ntype),
        ):
            solved = solver(random_target(rng))
            np.testing.assert_allclose(
                topology_couplings(config, solved, 0.0).as_array(), 0, atol=1e-12
            )

    def test_tripod_peak(self):
        solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
        cs = topology_couplings(LevelConfig.INVERSE_TRIPOD, solved, 0.5)
        peak = math.pi**2 / (8 * SQRT3)
        np.testing.assert_allclose(
            [cs.omega12, cs.omega13, cs.omega14], [peak] * 3, atol=1e-12
        )
        assert cs.omega23 == cs.omega24 == cs.omega34 == 0.0

    def test_ntype_waveforms(self):
        solved = solve_ntype(
            TargetSpec(np.array([0.0, 0.0, 0.0, 1.0])),
            initial_guess=(math.pi / 6, math.pi / 2, -math.pi / 2),
        )
        T = 1.0
        for t in np.linspace(0, T, 17):
            cs = topology_couplings(LevelConfig.N_TYPE, solved, t)
            s = math.sin(math.pi * t / T)
            assert abs(cs.omega12 + SQRT3 * math.pi**2 / (4 * T) * s) < 1e-9
            assert abs(cs.omega34 + SQRT3 * math.pi**2 / (4 * T) * s) < 1e-9
            assert abs(cs.omega23 + math.pi**2 / (2 * T) * s) < 1e-9
            assert cs.omega13 == cs.omega14 == cs.omega24 == 0.0

    def test_tripod_pulse_area(self, rng):
        target = random_target(rng)
        solved = solve_tripod(target)
        b = solved.boundary
        area, _ = scipy.integrate.quad(
            lambda t: topology_couplings(
                LevelConfig.INVERSE_TRIPOD, solved, t
            ).omega12,
            0.0,
            1.0,
        )
        assert abs(area - b.gamma1 * math.cos(b.theta1)) < 1e-8

    def test_generator_matches_closed_forms(self, rng):
        # the generator equals the closed forms for the diamond and N-type
        # and is -2 times the tripod's spherical-coordinate pulse
        for config, solver, factor in (
            (LevelConfig.INVERSE_TRIPOD, solve_tripod, -2.0),
            (LevelConfig.DIAMOND, solve_diamond, 1.0),
            (LevelConfig.N_TYPE, solve_ntype, 1.0),
        ):
            solved = solver(random_target(rng))
            for t in np.linspace(0.0, 1.0, 11):
                np.testing.assert_allclose(
                    hr_analytic(solved.schedule.value(t), solved.schedule.rate(t)).as_array(),
                    factor * topology_couplings(config, solved, t).as_array(),
                    atol=1e-9,
                )
