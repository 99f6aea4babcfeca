import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import fourlevel.solvers
from fourlevel.rotation import (
    AnglePair,
    cosine_ramp_schedule,
    final_state,
    hr_analytic,
    hr_numeric,
    ur_of_angles,
)
from fourlevel.solvers import (
    FORBIDDEN,
    LevelConfig,
    NoSolutionFoundError,
    SingularParameterizationError,
    SolverError,
    TargetSpec,
    _forbidden_residual,
    solve_diamond,
    solve_ntype,
    solve_tripod,
)

from conftest import ntype_single_batch_root, topology_couplings

E1 = np.array([1.0, 0, 0, 0])
SQRT3 = math.sqrt(3.0)


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
        # the residual check's hr_analytic takes math's trig only on floats
        solved = solver(random_target(rng))
        assert all(type(v) is float for v in dataclasses.astuple(solved.boundary))
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
            solved = solve_ntype(target, seed=3)
            assert np.linalg.norm(ur_of_angles(solved.boundary) @ E1 - target.b) < 1e-8

    def test_boundary_is_python_floats(self, rng):
        # numpy scalars would double the cost of every generator evaluation
        boundary = solve_ntype(random_target(rng), seed=3).boundary
        assert all(type(v) is float for v in dataclasses.astuple(boundary))

    def test_deterministic_for_fixed_seed(self, rng):
        target = random_target(rng)
        a = solve_ntype(target, seed=7).boundary
        b = solve_ntype(target, seed=7).boundary
        assert a == b

    def test_seed_changes_no_result(self, rng):
        # the loop search draws nothing; seed is only validated
        for _ in range(3):
            target = random_target(rng)
            roots = {solve_ntype(target, seed=seed).boundary for seed in (0, 7, 2**31 - 1)}
            assert len(roots) == 1

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

    def test_failure_best_residual_covers_the_guess(self, monkeypatch):
        # a guess near the root is closer than every unrefined loop
        # candidate, so the least residual of a failed solve is the guess's
        monkeypatch.setattr(fourlevel.solvers, "_NTYPE_MAX_ITER", 0)
        monkeypatch.setattr(fourlevel.solvers, "_NTYPE_REFINE_STEPS", 0)
        root = np.array([1.0, 2.0, 0.8])
        b = ntype_state(*root)
        guess = tuple(root + [1e-4, 0.0, 0.0])
        with pytest.raises(NoSolutionFoundError) as guessed:
            solve_ntype(TargetSpec(b), initial_guess=guess)
        with pytest.raises(NoSolutionFoundError) as free:
            solve_ntype(TargetSpec(b))
        _, res = fourlevel.solvers._ntype_lm(np.array([guess]), b, 1e-8)
        assert guessed.value.best_residual == res[0]
        assert 1e-8 < guessed.value.best_residual < free.value.best_residual

    @pytest.mark.parametrize(
        "kind, rng_seed", [("none", 0), ("converging", 1), ("failing", 2), ("irregular", 3)]
    )
    def test_staged_solve_equals_single_batch(self, kind, rng_seed):
        # a guess that converges alone is the root one batch over the guess
        # and all starts picks, bit for bit; without one, the loop search
        # finds a root of no larger pulse area than that batch's
        rng = np.random.default_rng(rng_seed)
        for _ in range(10):
            x0 = rng.uniform([0.2, 0.2, -3.0], [2.9, 2.9, 3.0])
            b = ntype_state(*x0)
            guess = ntype_guess(kind, x0, b, rng)
            seed = int(rng.integers(1 << 31))
            solved = solve_ntype(TargetSpec(b), initial_guess=guess, seed=seed).boundary
            assert np.linalg.norm(final_state(solved) - b) < 1e-8
            try:
                expected = ntype_single_batch_root(b, guess, seed)
            except NoSolutionFoundError:
                continue
            if kind == "converging":
                assert solved == expected
            else:
                assert pulse_area(solved) <= pulse_area(expected) + 1e-9

    def test_converged_guess_skips_the_batch(self, monkeypatch):
        calls = []
        lm = fourlevel.solvers._ntype_lm

        def spy(x, b, residual_tol):
            calls.append(len(x))
            return lm(x, b, residual_tol)

        monkeypatch.setattr(fourlevel.solvers, "_ntype_lm", spy)
        solve_ntype(TargetSpec(E4), initial_guess=E4_ROOT)
        assert calls == [1]
        calls.clear()
        solve_ntype(TargetSpec(E4), initial_guess=(0.0, 1.0, 1.0))  # sin(theta1) = 0
        assert calls == [1]  # stage 2 runs no Levenberg-Marquardt
        calls.clear()
        solve_ntype(TargetSpec(E4))
        assert calls == []

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    @pytest.mark.parametrize("guess", [E4_ROOT, None])
    def test_rejects_bad_seed(self, seed, guess):
        # whether or not the guess alone converges
        with pytest.raises(ValueError, match="seed"):
            solve_ntype(TargetSpec(E4), initial_guess=guess, seed=seed)

    def test_singular_initial_guess_falls_back_to_the_starts(self):
        # sin(theta1) = 0 is valid scenario input; the guess fails alone and
        # the loop search still finds a root
        target = TargetSpec(np.array([0.0, 0.0, 0.0, 1.0]))
        solved = solve_ntype(target, initial_guess=(0.0, 1.0, 1.0))
        assert np.linalg.norm(final_state(solved.boundary) - target.b) < 1e-8
        assert math.sin(solved.boundary.theta1) != 0.0

    def test_initial_guess_wins_when_it_converges(self):
        # the caller's root is kept although stage 2 finds one of smaller area
        guess = (1.0, 2.0, 2.5)
        target = TargetSpec(ntype_state(*guess))
        seeded = solve_ntype(target, initial_guess=guess).boundary
        free = solve_ntype(target).boundary
        assert abs(seeded.theta1 - guess[0]) < 1e-9
        assert pulse_area(free) < pulse_area(seeded) - 0.1

    def test_angles_returned_modulo_two_pi(self, rng):
        for _ in range(10):
            b = solve_ntype(random_target(rng), seed=3).boundary
            assert 0.0 <= b.theta1 < 2 * math.pi and 0.0 <= b.theta2 < 2 * math.pi

    def test_pulse_area_below_two_pi(self):
        # the smallest-area root rule keeps |gamma1(T)| + |gamma2(T)| < 2 pi
        rng = np.random.default_rng(50)
        for _ in range(50):
            b = solve_ntype(random_target(rng), seed=int(rng.integers(1 << 31))).boundary
            assert abs(b.gamma1) + abs(b.gamma2) < 2 * math.pi

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_signed_axis_targets(self, k, sign):
        check_root_or_solver_error(sign * np.eye(4)[k], seed=0, initial_guess=None)

    @settings(max_examples=40, deadline=None)
    @given(
        v=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
        seed=st.integers(0, 2**31 - 1),
        initial_guess=st.none() | st.tuples(*[GUESS_ANGLES] * 3),
    )
    def test_random_targets_give_root_or_solver_error(self, v, seed, initial_guess):
        check_root_or_solver_error(np.array(v) / np.linalg.norm(v), seed, initial_guess)

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
            solved = solve_ntype(target, seed=seed).boundary
            assert pulse_area(solved) <= pulse_area(expected) + 1e-9

    def test_near_axis_targets_give_root_or_no_solution(self):
        # +-e_k plus noise of size 1e-16..1e-3: a root within 1e-8, or
        # NoSolutionFoundError; never NaN and never another error
        rng = np.random.default_rng(11)
        for i in range(48):
            b = np.eye(4)[i % 4] * (1.0 if i % 8 < 4 else -1.0)
            b = b + 10.0 ** rng.uniform(-16, -3) * rng.normal(size=4)
            b /= np.linalg.norm(b)
            try:
                solved = solve_ntype(TargetSpec(b))
            except NoSolutionFoundError as exc:
                assert 1e-8 < exc.best_residual < math.inf
                continue
            assert np.all(np.isfinite(dataclasses.astuple(solved.boundary)))
            assert np.linalg.norm(final_state(solved.boundary) - b) < 1e-8
            assert solved.constraint_residual < 1e-8


def ntype_state(theta1, theta2, gamma2):
    """The unit state q p reached from (theta1, theta2, gamma2(T)), gamma1(T)
    set by the lock."""
    gamma1 = -math.sin(theta2) / math.sin(theta1) * gamma2
    b = final_state(AnglePair(gamma1, theta1, math.pi / 2, gamma2, theta2, math.pi / 2))
    return b / np.linalg.norm(b)


def pulse_area(boundary):
    return abs(boundary.gamma1) + abs(boundary.gamma2)


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
            _, res = fourlevel.solvers._ntype_lm(guess[None, :], b, 1e-8)
        if (res[0] <= 1e-8) == (kind == "converging"):
            return tuple(float(v) for v in guess)


def check_root_or_solver_error(b, seed, initial_guess):
    """solve_ntype gives a finite root within 1e-8 or a SolverError, never
    NaN and never another error (numpy's LinAlgError among them)."""
    try:
        solved = solve_ntype(TargetSpec(b), seed=seed, initial_guess=initial_guess)
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
        # forbidden couplings the finite-difference oracle finds on its grid
        sched = cosine_ramp_schedule(boundary, 1.0)
        residual = _forbidden_residual(config, boundary, 1.0)
        h = 1e-6
        oracle = max(
            abs(getattr(hr_numeric(sched, t, h=h), name))
            for t in np.linspace(h, 1.0 - h, 50)
            for name in FORBIDDEN[config]
        )
        assert residual > 1e-8
        assert abs(residual - oracle) < 1e-8

    @pytest.mark.parametrize("config", list(LevelConfig))
    @pytest.mark.parametrize("samples", [2, 50, 200])
    def test_residual_equals_the_generator_on_its_grid(self, config, samples, rng):
        # G read once and scaled by the ramp's peak rate equals the largest
        # forbidden entry of the exact generator on the sampling grid
        for _ in range(50):
            boundary = AnglePair.from_array(rng.uniform(-2 * math.pi, 2 * math.pi, 6))
            T = float(rng.uniform(0.1, 10.0))
            sched = cosine_ramp_schedule(boundary, T)
            grid = np.linspace(1e-6 * T, T - 1e-6 * T, samples)
            cs = hr_analytic(sched.value(grid), sched.rate(grid))
            expected = max(np.max(np.abs(getattr(cs, n))) for n in FORBIDDEN[config])
            residual = _forbidden_residual(config, boundary, T, samples)
            assert abs(residual - expected) <= 1e-14 * max(1.0, expected)


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
