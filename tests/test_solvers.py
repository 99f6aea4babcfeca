import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourlevel.rotation
import fourlevel.solvers
from fourlevel.cli import main
from fourlevel.rotation import (
    AnglePair,
    CosineRamp,
    final_state,
    hr_analytic,
    rotation_vectors,
    ur_of_angles,
)
from fourlevel.solvers import (
    FORBIDDEN,
    LevelConfig,
    NoSolutionFoundError,
    SolvedAngles,
    SolverError,
    TargetSpec,
    solve_diamond,
    solve_ntype,
    solve_tripod,
)

from conftest import (
    every_bracket,
    hr_numeric,
    ntype_all_pairs_root,
    ntype_boundary,
    ntype_converged_candidates,
    ntype_cut_loop_roots,
    ntype_cut_refine,
    ntype_lm,
    ntype_single_batch_root,
    ntype_vector_candidates,
    ntype_vectors,
    pulse_area,
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


@st.composite
def diamond_manifold_targets(draw):
    """(b, theta1), theta1 in [-7, 7] and b a unit target on or near the
    plane span{e1, (0, cos theta1, sin theta1, 0)}, an axis +-e_k, or a
    state with sin(gamma2) near 0.  Plane and axis points get noise of 0 or
    10^U(-16, -3) before they are normalized."""
    theta1 = draw(st.floats(-7.0, 7.0))
    E, G = math.cos(theta1), math.sin(theta1)
    scale = draw(st.just(0.0) | st.floats(-16.0, -3.0).map(lambda u: 10.0**u))
    kind = draw(st.sampled_from(["plane", "axis", "gamma2"]))
    if kind == "gamma2":
        gamma1, theta2 = draw(st.floats(-7.0, 7.0)), draw(st.floats(-7.0, 7.0))
        gamma2 = draw(st.sampled_from([0.0, math.pi])) + draw(st.sampled_from([1.0, -1.0])) * scale
        return final_state(AnglePair(gamma1, theta1, 0.0, gamma2, theta2, 0.0)), theta1
    if kind == "plane":
        a = draw(st.floats(-math.pi, math.pi))
        b = np.array([math.cos(a), math.sin(a) * E, math.sin(a) * G, 0.0])
    else:
        b = draw(st.sampled_from([1.0, -1.0])) * np.eye(4)[draw(st.integers(0, 3))]
    b = b + scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    return b / np.linalg.norm(b), theta1


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

    def test_rejects_an_overflowing_norm_without_a_warning(self):
        # b . b overflows to inf, which the norm test rejects; pytest turns a
        # RuntimeWarning on the way into an error
        with pytest.raises(ValueError, match=r"target norm\^2 = inf is not 1"):
            TargetSpec(np.array([1e308, 0.0, 0.0, 0.0]))

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
        v1, v2 = solved.schedule.v1, solved.schedule.v2
        quarter = math.pi / (2 * math.sqrt(2))  # pi/2 along -(i + j)/sqrt(2)
        np.testing.assert_allclose(v1, [0.0, math.pi, 0.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(v2, [-quarter, -quarter, 0.0], rtol=0, atol=1e-12)
        assert v1[2] == v2[2] == 0.0
        # the view takes gamma2 = -pi/2 (theta2 = pi/4, phi2 = 0) for v2
        assert not solved.within_canonical_ranges

    def test_identity_target(self):
        solved = solve_diamond(TargetSpec(E1))
        assert solved.boundary.gamma1 == 0.0 and solved.boundary.gamma2 == 0.0

    def test_target_on_the_q_only_plane(self):
        # e2 at theta1 = 0 lies on the plane span{e1, (0, cos theta1,
        # sin theta1, 0)}, where every gamma1 zeroes the k part of conj(q) b
        solved = solve_diamond(TargetSpec(np.array([0.0, 1.0, 0.0, 0.0]), {"theta1": 0.0}))
        assert tuple(solved.boundary) == (0.0, 0.0, 0.0, math.pi / 2, 0.0, 0.0)

    def test_random_round_trip(self, rng):
        for _ in range(25):
            target = random_target(rng)
            theta1 = rng.uniform(0.3, math.pi - 0.3)
            solved = solve_diamond(TargetSpec(target.b, {"theta1": theta1}))
            assert np.linalg.norm(ur_of_angles(solved.boundary) @ E1 - target.b) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(diamond_manifold_targets())
    def test_manifold_targets_solve_exactly(self, drawn):
        # the plane that q alone reaches, the axes and sin(gamma2) -> 0 are
        # ordinary points of p = conj(q) b: each solves to rounding, with
        # gamma2 in [0, pi] and forbidden couplings of exactly 0
        b, theta1 = drawn
        solved = solve_diamond(TargetSpec(b, {"theta1": theta1}))
        v1, v2 = solved.schedule.v1, solved.schedule.v2
        a = solved.boundary
        assert all(type(v) is float and math.isfinite(v) for v in (*v1, *v2, *a))
        assert math.hypot(*v2) <= math.pi + 1e-15  # p's angle, in [0, pi] to rounding
        assert v1[2] == 0.0 and v2[2] == 0.0 and solved.constraint_residual == 0.0
        assert a.phi1 == 0.0 and a.phi2 == 0.0
        assert np.linalg.norm(final_state(a) - b) <= 1e-14

    @pytest.mark.parametrize("solver", [solve_tripod, solve_diamond])
    def test_closed_form_boundary_is_python_floats(self, solver, rng):
        # the vectors are floats, and the generator read off them stays so
        solved = solver(random_target(rng))
        assert all(type(v) is float for v in (*solved.schedule.v1, *solved.schedule.v2))
        assert all(type(v) is float for v in tuple(solved.boundary))
        assert all(type(v) is float for v in tuple(solved.schedule.generator))
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
        # the lock gamma1 sin(theta1) + gamma2 sin(theta2) = 0 is v1z + v2z = 0,
        # and phi = pi/2 is v1y = v2y = 0: both hold by assignment
        solved = solve_ntype(
            TargetSpec(np.array([0.0, 0.0, 0.0, 1.0])),
            initial_guess=(math.pi / 6, math.pi / 2, -math.pi / 2),
        )
        v1, v2 = solved.schedule.v1, solved.schedule.v2
        assert v1[1] == v2[1] == 0.0 and v1[2] == -v2[2]
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
        assert all(type(v) is float for v in tuple(solved.boundary))
        assert all(type(v) is float for v in tuple(solved.schedule.generator))

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
            solved = solve_ntype(TargetSpec(b), initial_guess=guess).schedule
            assert np.linalg.norm(final_state(solved.final) - b) < 1e-8
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
        # a guess whose vectors are not finite (sin(theta1) = 0, so gamma1(T)
        # = z / 0, or gamma1(T) beyond the float range) is valid scenario
        # input; it selects nothing, and the solve is the guess-free one, bit
        # for bit.  A guess with sin(theta1) near 0 but finite vectors selects
        # a root, as any other does
        for target in (TargetSpec(E4), random_target(rng), random_target(rng)):
            free = solve_ntype(target)
            for guess in ((0.0, 1.0, 1.0), (0.0, 0.0, 1.0), (1e-300, 1.0, 1e300)):
                solved = solve_ntype(target, initial_guess=guess)
                assert solved.schedule == free.schedule
                assert solved.constraint_residual == free.constraint_residual
            for guess in ((math.pi, -2.0, 5.0), (9e-7, 1.0, 1.0)):
                check_root_or_solver_error(target.b, guess)

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
            areas.append(pulse_area(ntype_vectors(*guess)))
            solved = solve_ntype(TargetSpec(b), initial_guess=guess).schedule
            assert same_root(solved, ntype_vectors(*guess), 1e-10)
            perturbed = tuple((root + rng.normal(scale=0.05, size=3)).tolist())
            solved = solve_ntype(TargetSpec(b), initial_guess=perturbed).schedule
            assert_nearest_candidate(b, perturbed, solved)
        assert sum(area > 3 * math.pi for area in areas) == 145

    def test_guess_beside_a_near_root(self):
        # this root's lock has a second root less than one sample step away
        # on the loop: the samples miss the pair, so the guess-free search
        # has no candidate near it; the guess's own samples find it
        guess = (5.355490075442916, 1.6884535704496506, 3.163628227043148)
        b = ntype_state(*guess)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            free = loop_roots(b)
        assert np.min(np.abs(turn(free[:, [1, 3]] - guess[:2])).max(axis=1)) > 0.01
        solved = solve_ntype(TargetSpec(b), initial_guess=guess).schedule
        assert same_root(solved, ntype_vectors(*guess), 1e-10)

    def test_guess_turns_beyond_the_float_range(self, monkeypatch):
        # at gamma2(T) = 1e200 the guess's own turns put two candidates at
        # |v| = inf, where sin |v| raises and _ntype_candidate gives the
        # residual inf; the solve still returns a converged root
        raised, exp = [], fourlevel.solvers._exp

        def spy(v):
            try:
                return exp(v)
            except ValueError:
                raised.append(v)
                raise

        monkeypatch.setattr(fourlevel.solvers, "_exp", spy)
        b = np.full(4, 0.5)
        solved = solve_ntype(TargetSpec(b), initial_guess=(1.0, 1.0, 1e200))
        assert len(raised) == 2
        assert np.linalg.norm(final_state(solved.boundary) - b) <= 1e-8
        generator = solved.schedule.generator
        assert [getattr(generator, n) for n in FORBIDDEN[LevelConfig.N_TYPE]] == [0.0] * 3

    @staticmethod
    def assert_nearest_candidate(b, guess, solved):
        # the solve's root is the one nearest the guess by |v|^2 - 2 v.v',
        # the distance less the common |v'|^2, on the guess's scale, among
        # the cut oracle's candidates within rounding
        target = ntype_vectors(*guess)
        scale = max(map(abs, target[0] + target[1]))

        def nearness(c):
            return sum(x / scale * (x / scale - 2 * (y / scale)) for u, w in zip(c[:2], target) for x, y in zip(u, w))

        candidates = ntype_converged_candidates(b, guess)
        least = min(map(nearness, candidates))
        assert least < 0.0 and nearness(solved) - least <= 1e-12 * abs(least)
        assert min(rotation_distance(c, solved) for c in candidates) <= 1e-16

    @pytest.mark.parametrize("guess", [(1.0, 1.0, 1e200), (1.0, 1.0, -1e200), (0.3, 2.0, 1e300), (2.0, 1.0, 1.7e308)])
    def test_overflowing_guess_distances_select_the_nearest_root(self, guess):
        # every squared distance to these guesses overflows, and the solve
        # took the first converged candidate (area 8.32 for (1, 1, 1e200))
        b = np.full(4, 0.5)
        self.assert_nearest_candidate(b, guess, solve_ntype(TargetSpec(b), initial_guess=guess).schedule)

    @pytest.mark.parametrize("guess", [(1.0, 1.0, 1e100), (1.0, 1.0, -1e100), (1.0, 1.0, 1e30), (1.0, 1.0, 1e20)])
    def test_guess_distances_equal_to_rounding_select_the_nearest_root(self, guess):
        # every squared distance to these guesses is finite, and they differ
        # by less than their rounding (each about 1e200, apart by about 1e100,
        # for (1, 1, 1e100)): the solve took the first converged candidate,
        # of area 8.32, where the nearest has area 17.0
        b = np.full(4, 0.5)
        solved = solve_ntype(TargetSpec(b), initial_guess=guess).schedule
        self.assert_nearest_candidate(b, guess, solved)
        if guess == (1.0, 1.0, 1e100):
            assert pulse_area(solved) == pytest.approx(17.0084, abs=1e-4)

    def test_initial_guess_wins_when_it_converges(self):
        # the caller's root is kept although the search finds one of smaller area
        guess = (1.0, 2.0, 2.5)
        target = TargetSpec(ntype_state(*guess))
        seeded = solve_ntype(target, initial_guess=guess).schedule
        free = solve_ntype(target).schedule
        assert same_root(seeded, ntype_vectors(*guess), 1e-9)
        assert pulse_area(free) < pulse_area(seeded) - 0.1

    def test_boundary_view_is_in_its_ranges(self, rng):
        # the boundary is the view of (x1, 0, z), (x2, 0, -z): theta in
        # [0, pi], phi = pi/2 where z != 0, and gamma_i = +-|v_i|
        for _ in range(10):
            ramp = solve_ntype(random_target(rng)).schedule
            b = ramp.final
            assert 0.0 <= b.theta1 <= math.pi and 0.0 <= b.theta2 <= math.pi
            assert b.phi1 == b.phi2 == math.pi / 2
            assert (abs(b.gamma1), abs(b.gamma2)) == (math.hypot(*ramp.v1), math.hypot(*ramp.v2))

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
            assert pulse_area(solved.schedule) <= abs(g1) + abs(g2) + 1e-9
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
            solved = solve_ntype(target).schedule
            assert pulse_area(solved) <= pulse_area(expected) + 1e-9

    def test_near_axis_targets_give_root_or_no_solution(self, monkeypatch):
        # +-e_k plus noise of size 1e-16..1e-3: every draw solves, finite,
        # within 1e-8, with forbidden entries of exactly 0 (31 of these 600
        # raised when gamma1(T) came from dividing by sin(theta1)).  The
        # search with 16-part cuts alone solves them all too, each root of
        # the same pulse area within 1e-9
        rng = np.random.default_rng(11)
        targets = []
        for i in range(600):
            b = np.eye(4)[i % 4] * (1.0 if i % 8 < 4 else -1.0)
            b = b + 10.0 ** rng.uniform(-16, -3) * rng.normal(size=4)
            targets.append(b / np.linalg.norm(b))
        roots = [near_axis_root(b) for b in targets]
        monkeypatch.setattr(fourlevel.solvers, "_ntype_refine", ntype_cut_refine)
        cut_roots = [near_axis_root(b) for b in targets]
        for root, cut_root in zip(roots, cut_roots):
            assert abs(pulse_area(root) - pulse_area(cut_root)) <= 1e-9

    def test_loop_roots_match_the_cut_oracle(self, monkeypatch):
        # 200 seeded targets: the secant finish gives the candidates of
        # 16-part cuts alone, in the same (k, m, psi) order and each within
        # 1e-10, and the solve picks the same root, converged to rounding
        rng = np.random.default_rng(14)
        targets = [random_target(rng) for _ in range(200)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            found = [loop_roots(t.b) for t in targets]
            expected = [ntype_cut_loop_roots(t.b) for t in targets]
        roots = [solve_ntype(t).schedule for t in targets]
        monkeypatch.setattr(fourlevel.solvers, "_ntype_refine", ntype_cut_refine)
        for target, x, y, root in zip(targets, found, expected, roots):
            assert x.shape == y.shape
            assert np.max(np.abs(turn(x[:, [1, 3]] - y[:, [1, 3]])), initial=0.0) <= 1e-10
            assert np.max(np.abs(x[:, [0, 2]] - y[:, [0, 2]]), initial=0.0) <= 1e-10
            cut_root = solve_ntype(target).schedule
            assert same_root(root, cut_root, 1e-10)
            assert abs(pulse_area(root) - pulse_area(cut_root)) <= 1e-9
            assert np.linalg.norm(final_state(root.final) - target.b) <= 1e-12

    def test_lock_evaluations_per_solve(self, monkeypatch):
        # off the axes the lock is sampled in one call, 129 points for every
        # turn pair, and the brackets that the pulse-area bound keeps, 2 of
        # the 18 of (1/2, 1/2, 1/2, 1/2) (6 with the two-stage split), are
        # then refined each on its own in 5 float evaluations; near an
        # axis one call per 16-part cut, 15 points for every bracket (18
        # near e4) at once; the bundled target e4, with b3 = 0, takes its roots
        # from the axis families alone, with or without its guess; with no
        # refinement the sample alone
        loop = fourlevel.solvers._ntype_loop_constants(np.full(4, 0.5))
        assert len(fourlevel.solvers._ntype_loop_brackets(loop)[-1]) == 18
        calls, per_bracket = spy_lock_evaluations(monkeypatch)
        solve_ntype(TargetSpec(np.full(4, 0.5)))
        assert calls[0] == 129 and set(calls[1:]) == {"float"}
        assert per_bracket == [5] * 2 and len(calls) == 1 + sum(per_bracket)
        calls.clear()
        per_bracket.clear()
        near_e4 = np.array([0.0, 0.0, 1e-4, 1.0])
        solve_ntype(TargetSpec(near_e4 / np.linalg.norm(near_e4)))
        assert calls == [129] + [15 * 18] * 11
        assert per_bracket == []
        calls.clear()
        solve_ntype(TargetSpec(E4))
        solve_ntype(TargetSpec(E4), initial_guess=E4_ROOT)
        assert calls == []
        monkeypatch.setattr(fourlevel.solvers, "_NTYPE_REFINE_STEPS", 0)
        with pytest.raises(NoSolutionFoundError):
            solve_ntype(TargetSpec(np.full(4, 0.5)))
        assert calls == [129]
        assert set(per_bracket) == {0}

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
        # both factors turn by pi/2, about (1, 0, 2)/sqrt(5) and (1, 0, -2)/sqrt(5)
        x, z = math.pi / (2 * math.sqrt(5)), math.pi / math.sqrt(5)
        v1, v2 = solved.schedule.v1, solved.schedule.v2
        np.testing.assert_allclose([v1, v2], [[x, 0.0, z], [x, 0.0, -z]], rtol=0, atol=1e-15)
        assert v1[1] == v2[1] == 0.0 and v1[2] == -v2[2]
        assert np.linalg.norm(final_state(solved.boundary) - target.b) < 1e-15

    @pytest.mark.parametrize("kind", ["random", "near_axis", "b3_to_zero", "b2_b4_to_zero", "e1_b3_to_zero"])
    def test_staged_solve_equals_the_all_pairs_oracle(self, kind, monkeypatch):
        # 520 seeded targets of each kind: the guess-free solve refines the
        # brackets in increasing pulse-area bound, stops once no bracket can
        # win, and builds an axis family only where it can converge, yet
        # returns the boundary of the search over every pair and family bit
        # for bit, and on a failure the same least residual; with the margin
        # set to inf nothing is pruned: every bracket is refined, and no bit
        # changes either
        targets = ntype_stress_targets(kind, 520, np.random.default_rng(18))
        expected = [all_pairs_outcome(b) for b in targets]
        assert [solve_outcome(b) for b in targets] == expected
        monkeypatch.setattr(fourlevel.solvers, "_NTYPE_STAGE_MARGIN", math.inf)
        refined = spy_refined_brackets(monkeypatch)
        assert [solve_outcome(b) for b in targets[::2]] == expected[::2]
        assert all(taken == given for given, taken in refined) and sum(given for given, _ in refined) > 0

    @pytest.mark.parametrize("kind", ["random", "near_axis", "b3_to_zero", "b2_b4_to_zero", "e1_b3_to_zero"])
    def test_area_bound_holds_for_every_bracket(self, kind):
        # 200 seeded targets of each kind, every bracket refined (the bound
        # switched off): each converged candidate's pulse area |v1| + |v2|
        # is at least its bracket's bound less 1e-8, so a bracket whose bound
        # exceeds the least converged area by 1e-6 holds no root that wins
        solvers = fourlevel.solvers
        converged = 0
        for b in ntype_stress_targets(kind, 200, np.random.default_rng(33)):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                brackets = solvers._ntype_loop_brackets(solvers._ntype_loop_constants(b))
                roots = solvers._ntype_refine(b, brackets, every_bracket(brackets))
                candidates = [solvers._ntype_candidate(b.tolist(), r) for r in roots]
            for bound, (_, res, area) in zip(solvers._ntype_bounds(brackets), candidates):
                if res <= 1e-8:
                    assert bound <= area + 1e-8
                    converged += 1
        assert converged > 1000

    def test_second_stage_runs_only_without_a_small_area_root(self, monkeypatch):
        # the bound keeps few brackets: on 200 random targets, with 18.4
        # brackets each, at most 2.5 are refined per solve on average (2.2
        # measured; 6.1 with the two-stage split) and at least one; a
        # failure, which has no converged area to bound the rest, refines
        # every bracket
        _, per_bracket = spy_lock_evaluations(monkeypatch)
        rng = np.random.default_rng(19)
        for _ in range(200):
            before = len(per_bracket)
            solve_ntype(random_target(rng))
            assert len(per_bracket) > before
        assert len(per_bracket) <= 2.5 * 200
        per_bracket.clear()
        monkeypatch.setattr(fourlevel.solvers, "_NTYPE_REFINE_STEPS", 0)
        with pytest.raises(NoSolutionFoundError):
            solve_ntype(TargetSpec(np.full(4, 0.5)))
        assert len(per_bracket) == 18

    def test_axis_families_only_where_reachable(self, monkeypatch):
        # _ntype_axis_roots runs for no generic target; for b3 = 0 it builds
        # the q = +-1 and p = +-1 families, for b2 = b4 = 0 the odd-pi/2 one
        calls = []
        axis = fourlevel.solvers._ntype_axis_roots

        def spy(b, *families):
            calls.append(families)
            return axis(b, *families)

        monkeypatch.setattr(fourlevel.solvers, "_ntype_axis_roots", spy)
        rng = np.random.default_rng(20)
        for _ in range(100):
            solve_ntype(random_target(rng))
        assert calls == []
        solve_ntype(TargetSpec(np.array([0.5, 0.5, 0.0, math.sqrt(0.5)])))
        assert calls == [(True, False)]
        calls.clear()
        solve_ntype(TargetSpec(np.array([0.6, 0.0, 0.8, 0.0])))
        assert calls == [(False, True)]

    def test_reachability_changes_no_axis_root(self, monkeypatch):
        # 305 targets with b2 = b4 = 0 (+-e1, +-e3, (0.6, 0, 0.8, 0) and 300
        # of the form (cos a, 0, sin a, 0)), where every root comes from an
        # axis family, 200 each of b3 -> 0 and random targets, and 60 with
        # 1e-8 + 3e-15 < hypot(b2, b4) <= 2e-8, just past the odd-pi/2
        # family's reach, every other one with a random guess: the roots, or
        # the best residual of a failure, are those of the solve that builds
        # every family, bit for bit, with a guess too
        rng = np.random.default_rng(21)
        targets = [np.eye(4)[0], -np.eye(4)[0], np.eye(4)[2], -np.eye(4)[2], np.array([0.6, 0, 0.8, 0])]
        targets += [np.array([math.cos(a), 0.0, math.sin(a), 0.0]) for a in rng.uniform(0, 2 * math.pi, 300)]
        targets += ntype_stress_targets("b3_to_zero", 200, rng) + ntype_stress_targets("random", 200, rng)
        guesses = [tuple(rng.uniform(-7.0, 7.0, 3)) if i % 2 else None for i in range(len(targets))]
        band = np.random.default_rng(22)
        for h in band.uniform(1e-8 + 3e-15, 2e-8, 60):
            a, beta = band.uniform(0, 2 * math.pi, 2)
            r = math.sqrt(1.0 - h * h)
            b = np.array([r * math.cos(a), h * math.cos(beta), r * math.sin(a), h * math.sin(beta)])
            assert fourlevel.solvers._NTYPE_QUARTER_REACH < math.hypot(b[1], b[3]) <= 2e-8
            targets.append(b)
            guesses.append(tuple(band.uniform(-7.0, 7.0, 3)) if len(targets) % 2 else None)
        cases = list(zip(targets, guesses))
        roots = [solve_outcome(b, g) for b, g in cases]
        monkeypatch.setattr(fourlevel.solvers, "_NTYPE_UNIT_REACH", math.inf)
        monkeypatch.setattr(fourlevel.solvers, "_NTYPE_QUARTER_REACH", math.inf)
        assert [solve_outcome(b, g) for b, g in cases] == roots

    def test_every_bracket_closes_within_the_bound(self, monkeypatch):
        # on 300 seeded targets, every bracket of every turn pair closes in
        # at most 16 interpolation steps and 45 halvings, 61 evaluations (the
        # bound of _ntype_falsi), and the brackets take at most 5.3 on average
        # (4.80 measured; 6.18 with Illinois steps alone)
        _, per_bracket = spy_lock_evaluations(monkeypatch)
        rng = np.random.default_rng(24)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(300):
                loop_roots(random_target(rng).b)
        assert len(per_bracket) > 5000
        assert max(per_bracket) <= 61 and np.mean(per_bracket) <= 5.3
        # a lock that steps from 5e-324 down to 0 at psi0 takes two values,
        # so no inverse quadratic step: regula falsi's point is always the
        # right end, held final/2 inside it, and the Illinois halving takes
        # the left end's value to 0 too, where the point is the midpoint;
        # the bracket closes by halvings
        psi0, final = 4.0 / 3.0, 2 * math.pi / 128 / 16**11
        monkeypatch.setattr(
            fourlevel.solvers, "_ntype_lock", turn_pair_lock(lambda psi: np.where(psi < psi0, 5e-324, 0.0))
        )
        monkeypatch.setattr(fourlevel.solvers, "_ntype_loop", lambda psi, b: (psi,) * 4)
        _, per_bracket = spy_lock_evaluations(monkeypatch)
        roots = loop_roots(np.full(4, 0.5))
        assert roots.shape == (1, 4) and 45 <= per_bracket[0] <= 61
        assert abs(roots[0, 0] - psi0) <= final

    def test_b3_zero_brackets_stay_within_their_count(self, monkeypatch):
        # with b3 = 0 every root has q = +-1 or p = +-1, or for |b4| <= 1e-8
        # may lie on the line z = 0 (solve_ntype): the search samples no lock
        # for (cos 1, 0, 0, sin 1), with or without a guess, nor for
        # (cos 1, sin 1, 0, b4), b4 = 0 or 1e-12, without one (the loop
        # search took 292 and 549 float evaluations on the first two); a
        # guess there keeps the loop, one sample with the guess's four points
        # and its refinement, and selects the nearest converged candidate
        calls, _ = spy_lock_evaluations(monkeypatch)
        guess = (1.0, 2.0, 0.5)
        cases = [((math.cos(1), 0.0, 0.0, math.sin(1)), g) for g in (None, guess)]
        cases += [((math.cos(1), math.sin(1), 0.0, b4), None) for b4 in (0.0, 1e-12)]
        for b, initial_guess in cases:
            solved = solve_ntype(TargetSpec(np.array(b)), initial_guess=initial_guess)
            assert np.linalg.norm(final_state(solved.boundary) - b) <= 1e-8
            assert calls == []
        for b4 in (0.0, 1e-12):
            b = np.array([math.cos(1), math.sin(1), 0.0, b4])
            solved = solve_ntype(TargetSpec(b), initial_guess=guess).schedule
            assert calls[0] == 133 and len(calls) > 1
            assert_nearest_candidate(b, guess, solved)
            calls.clear()

    @settings(max_examples=60, deadline=None)
    @given(
        v=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.just(0.0) | st.floats(-1.0, 1.0)).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
        guess=st.tuples(*[st.floats(-7.0, 7.0)] * 3).filter(lambda g: abs(math.sin(g[0])) > 1e-3),
    )
    def test_b3_zero_roots_come_from_the_axis_families(self, v, guess):
        # targets with b3 = 0, b4 = 0 on some draws.  The guess-free solve,
        # which samples no lock, gives the root of the search over every
        # turn pair and family, or one whose pulse area is within the
        # residual tolerance of it: where two roots tie (near -e1, q = -1
        # against p = -1), or where a loop candidate converged only to about
        # 1e-9 undercuts the exact family root by as much (b4 near but not
        # 0; rare).  For |b4| > 1e-8 a guess, which samples no lock either,
        # selects the root nearest it among the loop's and the families'
        # (the loop's candidates that converge only to 1e-9..1e-8, for |b4|
        # up to about 1e-7, are no roots); for |b4| <= 1e-8 the loop runs,
        # and the guess selects a root at least as near as every converged
        # family candidate
        b = np.array([v[0], v[1], 0.0, v[2]]) / np.linalg.norm(v)
        solved, expected = solve_ntype(TargetSpec(b)).schedule, ntype_all_pairs_root(b)
        assert same_root(solved, expected, 1e-12) or abs(pulse_area(solved) - pulse_area(expected)) <= 1e-8
        assert np.linalg.norm(final_state(solved.final) - b) <= 1e-8
        solved = solve_ntype(TargetSpec(b), initial_guess=guess).schedule
        if abs(b[3]) > 1e-8:
            assert_nearest_candidate(b, guess, solved, residual_tol=1e-12)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                families = fourlevel.solvers._ntype_axis_roots(b, True, True)
            vectors, res = ntype_vector_candidates(b, families)
            target = ntype_vectors(*guess)
            nearest = min(rotation_distance(c, target) for c, r in zip(vectors, res) if r <= 1e-8)
            assert rotation_distance(solved, target) <= nearest + 1e-9
            assert np.linalg.norm(final_state(solved.final) - b) <= 1e-8

    def test_illinois_steps_close_a_curved_bracket(self, monkeypatch):
        # a lock exp(100 (psi - psi0)) - 1 bends across its sample bracket,
        # so plain regula falsi keeps its steep end and creeps, 65 steps in
        # the reference loop below; halving the kept end's value (Illinois)
        # closes the bracket in 12, and the library, which also takes inverse
        # quadratic steps wherever they fall inside the bracket, in 11
        psi0, final = 4.0 / 3.0, 2 * math.pi / 128 / 16**11
        curve = turn_pair_lock(lambda psi: np.expm1(100.0 * (psi - psi0)))
        monkeypatch.setattr(fourlevel.solvers, "_ntype_lock", curve)
        monkeypatch.setattr(fourlevel.solvers, "_ntype_loop", lambda psi, b: (psi,) * 4)
        _, per_bracket = spy_lock_evaluations(monkeypatch)
        b = np.full(4, 0.5)
        roots = loop_roots(b)
        assert per_bracket == [11]
        assert roots.shape == (1, 4)
        assert abs(roots[0, 0] - psi0) <= final
        _, _, psi, widths, f, (n, *_), (j, *_) = fourlevel.solvers._ntype_loop_brackets(
            fourlevel.solvers._ntype_loop_constants(b)
        )
        left, width, f_lo, f_hi = psi[j], widths[j], f[n, j], f[n, j + 1]

        def regula_falsi(illinois):  # the point held final/2 inside either end
            lo, hi, a_lo, a_hi, kept, steps = left, left + width, f_lo, f_hi, 0, 0
            while hi - lo > final:
                x = min(max(lo + (hi - lo) * (a_lo / (a_lo - a_hi)), lo + final / 2), hi - final / 2)
                f, steps = curve(x, None, 0.0, 0.0), steps + 1
                if f <= 0.0:  # keeps hi, halving its value if it kept hi last time too
                    lo, a_lo, a_hi, kept = x, f, a_hi / 2 if illinois and kept == 1 else a_hi, 1
                else:
                    hi, a_hi, a_lo, kept = x, f, a_lo / 2 if illinois and kept == -1 else a_lo, -1
            return steps

        assert regula_falsi(illinois=False) == 65 and regula_falsi(illinois=True) == 12

    def test_float_and_array_loops_agree(self):
        # _ntype_loop is one body over numpy's ufuncs on arrays and math's
        # functions on floats: on 10,000 seeded (psi, b, k, m) the angles and
        # the lock agree within 1e-12, and the float lock is a float
        rng = np.random.default_rng(25)
        solvers = fourlevel.solvers
        for _ in range(100):
            b = random_target(rng).b
            psi = rng.uniform(0.0, 2 * math.pi + 0.05, 100)
            k, m = rng.integers(-1, 2, (2, 100)).astype(float)
            loop = solvers._ntype_loop_constants(b)
            angles = np.array(solvers._ntype_loop(psi, loop))
            lock = solvers._ntype_lock(psi, loop, k, m)
            for i, p in enumerate(psi.tolist()):
                floats = solvers._ntype_loop(p, loop)
                np.testing.assert_allclose(floats, angles[:, i], rtol=0, atol=1e-12)
                f = solvers._ntype_lock(p, loop, float(k[i]), float(m[i]))
                assert type(f) is float and abs(f - lock[i]) <= 1e-12


def ntype_stress_targets(kind, n, rng) -> list[np.ndarray]:
    """n seeded unit targets: random, +-e_k plus noise of size 10^U(-16, -3),
    or random with b3, or b2 and b4 together, scaled by 10^U(-16, -3) (every
    eighth exactly 0); or +-e1 plus noise of size 10^U(-5, -3) with b3 so
    scaled, whose roots near p = +-1 lie near the loop's folds."""
    targets = []
    for i in range(n):
        b, scale = rng.normal(size=4), 0.0 if i % 8 == 0 else 10.0 ** rng.uniform(-16, -3)
        if kind == "near_axis":
            b = np.eye(4)[i % 4] * (1.0 if i % 8 < 4 else -1.0) + 10.0 ** rng.uniform(-16, -3) * b
        elif kind == "b3_to_zero":
            b[2] *= scale
        elif kind == "b2_b4_to_zero":
            b[[1, 3]] *= scale
        elif kind == "e1_b3_to_zero":
            b = np.eye(4)[0] * (1.0 if i % 2 else -1.0) + 10.0 ** rng.uniform(-5, -3) * b
            b[2] *= scale
        targets.append(b / np.linalg.norm(b))
    return targets


def solve_outcome(b, guess=None):
    """solve_ntype's vectors (v1, v2) for b, or its best residual if it fails."""
    try:
        return solve_ntype(TargetSpec(b), initial_guess=guess).schedule[:2]
    except NoSolutionFoundError as exc:
        return exc.best_residual


def loop_roots(b):
    """The library's loop search over every turn pair, with no bracket left
    out: _ntype_loop_brackets, every bracket refined by _ntype_refine, as an
    (n, 4) array."""
    brackets = fourlevel.solvers._ntype_loop_brackets(fourlevel.solvers._ntype_loop_constants(b))
    return np.reshape([*fourlevel.solvers._ntype_refine(b, brackets, every_bracket(brackets))], (-1, 4))


def spy_refined_brackets(monkeypatch):
    """Spies on the library's _ntype_refine: a list with, for each call, the
    number of brackets it is given and the number of roots taken from it."""
    refined = []
    refine = fourlevel.solvers._ntype_refine

    def spy(b, brackets, order):
        refined.append([len(order), 0])
        for root in refine(b, brackets, order):
            refined[-1][1] += 1
            yield root

    monkeypatch.setattr(fourlevel.solvers, "_ntype_refine", spy)
    return refined


def spy_lock_evaluations(monkeypatch):
    """Spies on the library's lock as it stands: the lists of its calls, each
    the number of points (over every bracket) or "float", and of the float
    evaluations each _ntype_falsi call makes."""
    calls, per_bracket = [], []
    solvers = fourlevel.solvers
    lock, falsi = solvers._ntype_lock, solvers._ntype_falsi

    def spy_lock(psi, b, k, m):
        calls.append("float" if isinstance(psi, float) else np.size(psi))
        return lock(psi, b, k, m)

    def spy_falsi(*bracket):
        before = len(calls)
        root = falsi(*bracket)
        per_bracket.append(len(calls) - before)
        return root

    monkeypatch.setattr(solvers, "_ntype_lock", spy_lock)
    monkeypatch.setattr(solvers, "_ntype_falsi", spy_falsi)
    return calls, per_bracket


def turn_pair_lock(shape):
    """A stand-in lock: shape(psi) for the turn pair (0, 0) and 1 for every
    other, on a float or an array as _ntype_lock."""

    def lock(psi, b, k, m):
        f = np.where((np.asarray(k) == 0) & (np.asarray(m) == 0), shape(psi), 1.0)
        return float(f) if isinstance(psi, float) else f

    return lock


def all_pairs_outcome(b):
    """ntype_all_pairs_root's vectors for b, or its best residual."""
    try:
        return ntype_all_pairs_root(b)
    except NoSolutionFoundError as exc:
        return exc.best_residual


def near_axis_root(b):
    """solve_ntype's ramp for b, checked finite, within 1e-8 and with a
    constraint residual of exactly 0."""
    solved = solve_ntype(TargetSpec(b))
    assert np.all(np.isfinite(tuple(solved.boundary)))
    assert np.linalg.norm(final_state(solved.boundary) - b) < 1e-8
    assert solved.constraint_residual == 0.0
    return solved.schedule


def turn(angle):
    """An angle, or angle difference, wrapped into [-pi, pi)."""
    return (angle + math.pi) % (2 * math.pi) - math.pi


def ntype_state(theta1, theta2, gamma2):
    """The unit state q p reached from (theta1, theta2, gamma2(T)), gamma1(T)
    set by the lock."""
    b = final_state(ntype_boundary(theta1, theta2, gamma2))
    return b / np.linalg.norm(b)


def same_root(a, b, tol):
    """Whether two vector pairs (v1, v2), or CosineRamps, agree within tol
    relative to their largest component, or to 1."""
    parts = np.array([a[:2], b[:2]], dtype=float)
    return np.max(np.abs(parts[0] - parts[1])) <= tol * max(1.0, np.max(np.abs(parts)))


def assert_nearest_candidate(b, guess, solved, residual_tol=1e-8):
    """solved is the candidate converged within residual_tol nearest the
    guess by the rotation-vector distance, ties within 1e-9 allowed."""
    candidates = ntype_converged_candidates(b, guess, residual_tol)
    target = ntype_vectors(*guess)
    dist = rotation_distance(solved, target)
    assert np.linalg.norm(final_state(solved.final) - b) <= 1e-8
    assert dist <= min(rotation_distance(c, target) for c in candidates) + 1e-9
    assert min(rotation_distance(c, solved) for c in candidates) <= 1e-16


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


def check_root_or_solver_error(b, initial_guess, solver=None):
    """solve_ntype (or solver, which takes no guess) gives a finite root
    within 1e-8, with forbidden entries of exactly 0, or a SolverError;
    never NaN and never another error (numpy's LinAlgError among them)."""
    try:
        if solver is None:
            solved = solve_ntype(TargetSpec(b), initial_guess=initial_guess)
        else:
            solved = solver(TargetSpec(b))
    except SolverError:
        return
    assert np.all(np.isfinite(tuple(solved.boundary)))
    assert np.linalg.norm(final_state(solved.boundary) - b) < 1e-8
    assert solved.constraint_residual == 0.0


@st.composite
def singular_manifold_targets(draw):
    """(solver, b): for the N-type a signed axis +-e_k, or the state of
    vectors v1 = (x1, 0, z), v2 = (x2, 0, -z) with |z| small, where sin(theta1)
    and sin(theta2) tend to 0; for the tripod +-e1.  The axes get noise of 0
    or 10^U(-16, -3), and z is 0 or +-10^U(-16, -3)."""
    scale = draw(st.just(0.0) | st.floats(-16.0, -3.0).map(lambda u: 10.0**u))
    kind = draw(st.sampled_from(["ntype_axis", "ntype_sin_theta1", "tripod_e1"]))
    if kind == "ntype_sin_theta1":
        x1, x2 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
        z = draw(st.sampled_from([1.0, -1.0])) * scale
        b = final_state(CosineRamp((x1, 0.0, z), (x2, 0.0, -z), 1.0).final)
        return solve_ntype, b / np.linalg.norm(b)
    k = draw(st.integers(0, 3)) if kind == "ntype_axis" else 0
    b = draw(st.sampled_from([1.0, -1.0])) * np.eye(4)[k]
    b = b + scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    return (solve_ntype if kind == "ntype_axis" else solve_tripod), b / np.linalg.norm(b)


@settings(max_examples=150, deadline=None)
@given(singular_manifold_targets())
def test_singular_manifold_targets_give_root_or_solver_error(drawn):
    # near the axes and at sin(theta1) -> 0 the vectors have no singular
    # point: a root within 1e-8 with exact-zero forbidden entries, or a
    # typed SolverError, never NaN
    solver, b = drawn
    check_root_or_solver_error(b, None, solver)


@pytest.mark.parametrize("horizon", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solver", [solve_tripod, solve_diamond, solve_ntype])
def test_solvers_reject_bad_horizon(solver, horizon):
    with pytest.raises(ValueError, match="^horizon T must be finite and positive"):
        solver(TargetSpec(np.array([0.0, 1.0, 1.0, 1.0]) / SQRT3), horizon)


@pytest.mark.parametrize("horizon", [5e-324, 1e-310, 1.7e-308, 5.73e307, 1.7e308])
@pytest.mark.parametrize("solver", [solve_tripod, solve_diamond, solve_ntype])
def test_solvers_reject_overflowing_horizon(solver, horizon):
    # pi/T overflows at a subnormal T and just below the least T accepted,
    # and pi*T just above the largest and at the top of the float range: the
    # ramp's rate or phase would turn the residual into NaN
    with pytest.raises(ValueError, match="^horizon T = .* out of range: pi/T or pi\\*T overflows$"):
        solver(TargetSpec(np.array([0.0, 1.0, 1.0, 1.0]) / SQRT3), horizon)


@pytest.mark.parametrize("horizon", [1.75e-308, 5.72e307])
@pytest.mark.parametrize("solver", [solve_tripod, solve_diamond, solve_ntype])
def test_extreme_accepted_horizon_gives_a_finite_residual(solver, horizon):
    # the least and the largest T accepted: the ramp's peak rate pi/(2T)
    # stays finite, so a zero entry of G cannot make the residual NaN
    solved = solver(TargetSpec(np.array([0.0, 1.0, 1.0, 1.0]) / SQRT3), horizon)
    assert math.isfinite(solved.constraint_residual)
    ramp = solved.schedule
    assert ramp.horizon == horizon and CosineRamp(ramp.v1, ramp.v2, horizon) == ramp


class TestForbiddenCouplings:
    @pytest.mark.parametrize("config", list(LevelConfig))
    def test_forbidden_entries_are_exact_zeros(self, config):
        # each solver assigns rotation vectors that meet its constraints
        # (tripod v1 = v2, diamond v1z = v2z = 0, N-type v1y = v2y = 0 and
        # v1z = -v2z), so G's forbidden entries are 0.0, not rounding: on
        # seeded random targets (the diamond at random theta1 too) and the
        # signed axes
        rng = np.random.default_rng(26)
        targets = [random_target(rng) for _ in range(150)]
        targets += [TargetSpec(sign * e) for sign in (1.0, -1.0) for e in np.eye(4)]
        if config is LevelConfig.DIAMOND:
            free = [{"theta1": rng.uniform(-7, 7)} for _ in range(150)]
            targets += [TargetSpec(random_target(rng).b, f) for f in free]
        solver = {LevelConfig.INVERSE_TRIPOD: solve_tripod, LevelConfig.DIAMOND: solve_diamond}
        for target in targets:
            solved = solver.get(config, solve_ntype)(target)
            generator = solved.schedule.generator
            forbidden = [getattr(generator, n) for n in FORBIDDEN[config]]
            assert forbidden == [0.0] * len(forbidden)
            assert solved.constraint_residual == 0.0

    @pytest.mark.parametrize("config", list(LevelConfig))
    @pytest.mark.parametrize("horizon", [1e-9, 1.0, 1e9])
    def test_residual_is_a_view_that_no_solve_reads(self, config, horizon, monkeypatch):
        # a solve returns its pulse alone and reads no generator off it; the
        # residual view is G's largest forbidden entry times pi/(2T), bit
        # for bit as the solve computed it when it was a field: on seeded
        # solves (0.0 each) and on ramps to seeded vectors that break the
        # constraints
        rng = np.random.default_rng(35)
        targets = [random_target(rng) for _ in range(40)]
        solver = {LevelConfig.INVERSE_TRIPOD: solve_tripod, LevelConfig.DIAMOND: solve_diamond}
        read_off, reads = fourlevel.rotation._read_off, []
        monkeypatch.setattr(fourlevel.rotation, "_read_off", lambda *v: reads.append(v) or read_off(*v))
        solved = [solver.get(config, solve_ntype)(target, horizon) for target in targets]
        assert reads == []
        monkeypatch.undo()
        ramps = [CosineRamp(*rng.uniform(-7.0, 7.0, (2, 3)).tolist(), horizon) for _ in range(40)]
        solved += [SolvedAngles(config, ramp) for ramp in ramps]
        for s in solved:
            generator = read_off(s.schedule.v1, s.schedule.v2)
            worst = max(abs(getattr(generator, name)) for name in FORBIDDEN[config])
            expected = worst * (0.5 * math.pi / horizon)
            assert float.hex(s.constraint_residual) == float.hex(expected)
        assert all(s.constraint_residual > 0.0 for s in solved[len(targets):])

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
        sched = CosineRamp(*rotation_vectors(boundary), 1.0)
        residual = SolvedAngles(config, sched).constraint_residual
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
        solved = SolvedAngles(config, CosineRamp(*rotation_vectors(boundary), T))
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
        names = list(generator._fields)
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
        area, _ = pytest.importorskip("scipy.integrate").quad(
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
