import math

import numpy as np
import pytest
import scipy.integrate

from fourlevel.rotation import hr_analytic, hr_numeric, ur_of_angles
from fourlevel.solvers import (
    FORBIDDEN,
    LevelConfig,
    NoSolutionFoundError,
    SingularParameterizationError,
    TargetSpec,
    solve_diamond,
    solve_ntype,
    solve_tripod,
)

from conftest import topology_couplings

E1 = np.array([1.0, 0, 0, 0])
SQRT3 = math.sqrt(3.0)


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

    def test_deterministic_for_fixed_seed(self, rng):
        target = random_target(rng)
        a = solve_ntype(target, seed=7).boundary
        b = solve_ntype(target, seed=7).boundary
        assert a == b

    def test_failure_carries_best_residual(self):
        # an unreachable "target" cannot exist on the sphere, so force a
        # failure by shrinking the residual tolerance below attainable
        target = TargetSpec(np.array([0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(NoSolutionFoundError) as info:
            solve_ntype(target, residual_tol=1e-18)
        assert info.value.best_residual >= 0.0


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
