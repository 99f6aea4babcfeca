import copy
import json
import math
import pickle
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourlevel.quat4 import (
    Quaternion,
    cayley_rotation,
    is_rotation_matrix,
    left_isoclinic,
    quat_mul,
    right_isoclinic,
)
from fourlevel.cli import main
from fourlevel.rotation import (
    AnglePair,
    CosineRamp,
    CouplingSet,
    final_state,
    _largest_magnitude,
    _read_off,
    hr_analytic,
    rotation_vectors,
    spherical_to_quats,
    ur_of_angles,
)
from fourlevel.solvers import SolvedAngles, TargetSpec, solve_tripod

from conftest import angles as angle_floats
from conftest import (
    Schedule,
    check_consistency,
    constant_schedule,
    couplings_from_matrix,
    hr_numeric,
)

SQRT3 = math.sqrt(3.0)
ZERO = AnglePair(0, 0, 0, 0, 0, 0)


def random_angle_pair(rng) -> AnglePair:
    return AnglePair.from_array(rng.uniform(-2 * math.pi, 2 * math.pi, size=6))


def ramp_to(final: AnglePair, T: float) -> CosineRamp:
    """The cosine ramp to the rotation vectors of the angles final."""
    return CosineRamp(*rotation_vectors(final), T)


class TestSphericalToQuats:
    def test_zero_gammas(self):
        q, p = spherical_to_quats(AnglePair(0, 1.1, 2.2, 0, 0.3, 0.4))
        assert q.as_array()[0] == 1.0 and p.as_array()[0] == 1.0
        assert np.allclose(q.as_array()[1:], 0) and np.allclose(p.as_array()[1:], 0)

    def test_symmetric_direction(self):
        q, _ = spherical_to_quats(
            AnglePair(math.pi / 4, math.atan(math.sqrt(2)), math.pi / 4, 0, 0, 0)
        )
        np.testing.assert_allclose(
            q.as_array(),
            [math.sqrt(0.5), 1 / math.sqrt(6), 1 / math.sqrt(6), 1 / math.sqrt(6)],
            atol=1e-12,
        )

    @given(*(angle_floats for _ in range(6)))
    @settings(max_examples=200, deadline=None)
    def test_always_unit(self, g1, t1, p1, g2, t2, p2):
        q, p = spherical_to_quats(AnglePair(g1, t1, p1, g2, t2, p2))
        assert abs(q.norm - 1.0) < 1e-12
        assert abs(p.norm - 1.0) < 1e-12


class TestUrOfAngles:
    def test_identity(self):
        np.testing.assert_allclose(ur_of_angles(ZERO), np.eye(4))

    def test_symmetric_transfer_column(self):
        # equal angle pairs send |1> to equal superposition of |2>,|3>,|4>
        a = AnglePair(
            math.pi / 4, math.atan(math.sqrt(2)), math.pi / 4,
            math.pi / 4, math.atan(math.sqrt(2)), math.pi / 4,
        )
        np.testing.assert_allclose(
            ur_of_angles(a)[:, 0], [0, 1 / SQRT3, 1 / SQRT3, 1 / SQRT3], atol=1e-12
        )

    def test_matches_quaternion_route(self, rng):
        for _ in range(200):
            a = random_angle_pair(rng)
            np.testing.assert_allclose(
                ur_of_angles(a), cayley_rotation(*spherical_to_quats(a)), atol=1e-12
            )

    def test_always_rotation(self, rng):
        for _ in range(100):
            assert is_rotation_matrix(ur_of_angles(random_angle_pair(rng)), atol=1e-10)


class TestFinalState:
    def test_is_first_column_of_rotation(self, rng):
        # U_r e_1 = q p, checked against the isoclinic matrices
        for _ in range(200):
            a = random_angle_pair(rng)
            q, p = spherical_to_quats(a)
            np.testing.assert_allclose(
                final_state(a), cayley_rotation(q, p)[:, 0], atol=1e-12
            )
            np.testing.assert_allclose(
                final_state(a), quat_mul(q, p).as_array(), atol=1e-15
            )


class TestHrAnalytic:
    def test_zero_rates(self, rng):
        out = hr_analytic(random_angle_pair(rng), ZERO)
        np.testing.assert_allclose(out.as_array(), 0, atol=1e-15)

    def test_symmetric_pair_magnitudes(self):
        # with equal angle pairs the generator drives only level 1 and its
        # couplings are twice the gamma rate times the direction cosines
        th, ph, dg = 1.1, 0.4, 0.37
        a = AnglePair(0.8, th, ph, 0.8, th, ph)
        adot = AnglePair(dg, 0, 0, dg, 0, 0)
        out = hr_analytic(a, adot)
        np.testing.assert_allclose(
            out.as_array(),
            [
                -2 * dg * math.cos(th),
                -2 * dg * math.sin(th) * math.cos(ph),
                -2 * dg * math.sin(th) * math.sin(ph),
                0.0,
                0.0,
                0.0,
            ],
            atol=1e-12,
        )

    def test_matches_finite_difference(self, rng):
        # linear angle path through (a, adot) evaluated at its midpoint
        for _ in range(100):
            a = random_angle_pair(rng)
            adot = AnglePair.from_array(rng.uniform(-2, 2, size=6))
            sched = Schedule(
                value=lambda t, a=a, adot=adot: AnglePair.from_array(
                    a.as_array() + (t - 0.5) * adot.as_array()
                ),
                rate=lambda t, adot=adot: adot,
                horizon=1.0,
            )
            np.testing.assert_allclose(
                hr_analytic(a, adot).as_array(),
                hr_numeric(sched, 0.5, h=1e-6).as_array(),
                atol=1e-6,
            )


class TestHrNumeric:
    def test_constant_schedule(self, rng):
        sched = constant_schedule(random_angle_pair(rng), 1.0)
        np.testing.assert_allclose(
            hr_numeric(sched, 0.5).as_array(), 0, atol=1e-10
        )

    def test_peak_of_symmetric_ramp(self):
        th, ph = math.atan(math.sqrt(2)), math.pi / 4
        final = AnglePair(math.pi / 4, th, ph, math.pi / 4, th, ph)
        sched = ramp_to(final, 1.0)
        peak = math.pi**2 / (8 * SQRT3)  # gamma rate at T/2 times cos(theta)
        out = hr_numeric(sched, 0.5, h=1e-6)
        # generator convention: rotation advances through 2*gamma
        np.testing.assert_allclose(
            [out.omega12, out.omega13, out.omega14], [-2 * peak] * 3, atol=1e-5
        )
        np.testing.assert_allclose(
            [out.omega23, out.omega24, out.omega34], 0, atol=1e-8
        )

    def test_second_order_in_h(self, rng):
        final = random_angle_pair(rng)
        sched = ramp_to(final, 1.0)
        exact = hr_analytic(sched.value(0.3), sched.rate(0.3)).as_array()
        err_h = np.max(np.abs(hr_numeric(sched, 0.3, h=1e-3).as_array() - exact))
        err_h2 = np.max(np.abs(hr_numeric(sched, 0.3, h=5e-4).as_array() - exact))
        assert err_h2 < err_h / 3.0  # halving h must shrink the error ~4x

    def test_boundary_one_sided_warns(self):
        sched = ramp_to(AnglePair(1, 1, 1, 1, 1, 1), 1.0)
        with pytest.warns(UserWarning):
            hr_numeric(sched, 0.0)
        with pytest.warns(UserWarning):
            hr_numeric(sched, 1.0)

    def test_rejects_bad_arguments(self):
        sched = constant_schedule(ZERO, 1.0)
        with pytest.raises(ValueError):
            hr_numeric(sched, 1.5)
        with pytest.raises(ValueError):
            hr_numeric(sched, 0.5, h=0.0)

    def test_antisymmetry_of_raw_generator(self, rng):
        # the read-off generator comes from an orthogonal path, so the raw
        # finite-difference matrix is antisymmetric up to O(h^2)
        sched = ramp_to(random_angle_pair(rng), 1.0)
        h = 1e-5
        u_p = ur_of_angles(sched.value(0.4 + h))
        u_m = ur_of_angles(sched.value(0.4 - h))
        omega = (u_p - u_m) / (2 * h) @ ur_of_angles(sched.value(0.4)).T
        assert np.max(np.abs(omega + omega.T)) < 1e-6


class TestSchedules:
    def test_cosine_ramp_endpoints(self):
        # the ramp ends at its AnglePair view, whose rotation vectors are the
        # stored ones: the same rotation as final, in the view's form
        final = AnglePair(1.3, 0.7, -0.2, -0.9, 2.0, 0.1)
        sched = ramp_to(final, 2.0)
        view = sched.final
        start = sched.value(0.0)
        assert start.gamma1 == 0.0 and start.gamma2 == 0.0
        assert start.theta1 == view.theta1 and start.phi2 == view.phi2
        np.testing.assert_allclose(
            sched.value(2.0).as_array(), view.as_array(), atol=1e-12
        )
        np.testing.assert_allclose(rotation_vectors(view), sched[:2], rtol=0, atol=1e-15)
        np.testing.assert_allclose(final_state(view), final_state(final), rtol=0, atol=1e-15)
        np.testing.assert_allclose(sched.rate(0.0).as_array(), 0, atol=1e-12)
        np.testing.assert_allclose(sched.rate(2.0).as_array(), 0, atol=1e-12)

    def test_consistency_check_passes(self):
        sched = ramp_to(AnglePair(1, 2, 3, -1, -2, -3), 1.0)
        assert check_consistency(sched) < 1e-6

    def test_consistency_check_catches_mismatch(self):
        good = ramp_to(AnglePair(1, 0, 0, 1, 0, 0), 1.0)
        bad = Schedule(
            value=good.value, rate=lambda t: AnglePair(1, 0, 0, 1, 0, 0), horizon=1.0
        )
        with pytest.raises(ValueError):
            check_consistency(bad)


def _ramp_generator_matrix(final: AnglePair) -> np.ndarray:
    """G = gamma1(T) M_L(n1) + gamma2(T) M_R(n2) for the pure unit axes
    n = (cos theta, sin theta cos phi, sin theta sin phi)."""

    def axis(th, ph):
        return Quaternion(
            0.0, math.cos(th), math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph)
        )

    return final.gamma1 * left_isoclinic(axis(final.theta1, final.phi1)) + (
        final.gamma2 * right_isoclinic(axis(final.theta2, final.phi2))
    )


class TestCosineRampGenerator:
    # with theta and phi constant the two factors turn about fixed axes, so
    # the generator is r'(t) G for one constant G, and the commuting
    # isoclinic factors give U_r(t) = exp(r(t) G), r(t) = (1 - cos(pi t/T))/2;
    # the ramp stores the rotation vectors of final, reads the same G off
    # them, and its couplings are r'(t) G
    @given(
        st.tuples(*(angle_floats for _ in range(6))),
        st.floats(0.1, 10.0),
        st.floats(1e-6, 1.0 - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_generator_is_ramp_rate_times_constant_matrix(self, angles, T, u):
        expm = pytest.importorskip("scipy.linalg").expm
        final = AnglePair(*angles)
        sched = ramp_to(final, T)
        t = u * T
        g = _ramp_generator_matrix(final)
        rate = 0.5 * math.pi / T * math.sin(math.pi * t / T)
        ramp = 0.5 * (1.0 - math.cos(math.pi * t / T))
        generator = hr_analytic(sched.value(t), sched.rate(t)).to_matrix()
        scale = max(1.0, np.linalg.norm(g))
        np.testing.assert_allclose(generator, rate * g, rtol=0, atol=1e-14 * scale)
        assert sched[:2] == rotation_vectors(final)
        np.testing.assert_allclose(sched.generator.to_matrix(), g, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(
            sched.couplings(t).to_matrix(), generator, rtol=0, atol=1e-14 * scale
        )
        np.testing.assert_allclose(
            ur_of_angles(sched.value(t)), expm(ramp * g), rtol=0, atol=1e-12
        )


class TestFloatRoute:
    # Python floats, np.float64 and arrays all take numpy's cos and sin, so a
    # float call gives the bits of the per-time call
    @given(
        st.tuples(*(angle_floats for _ in range(6))),
        st.tuples(*(st.floats(-1e3, 1e3) for _ in range(6))),
    )
    @settings(max_examples=300, deadline=None)
    def test_float_call_equals_float64_call(self, angles, rates):
        a, adot = AnglePair(*angles), AnglePair(*rates)
        a64 = AnglePair(*map(np.float64, angles))
        adot64 = AnglePair(*map(np.float64, rates))
        g, g64 = hr_analytic(a, adot), hr_analytic(a64, adot64)
        pairs = [
            (g.as_array(), g64.as_array()),
            (final_state(a), final_state(a64)),
            (ur_of_angles(a), ur_of_angles(a64)),
        ]
        for x, y in pairs:
            assert x.tobytes() == y.tobytes()

    def test_infinite_float_angle_raises(self):
        # NaN and +-inf, in any field, as a float, an np.float64 or an array
        # (the others floats or arrays of other shapes), raise a ValueError
        # that names the field, on every public route from angles
        good = AnglePair(0.3, 1.1, -0.7, 2.0, 0.4, 0.9)
        routes = [
            ("angles", final_state),
            ("angles", ur_of_angles),
            ("angles", spherical_to_quats),
            ("angles", rotation_vectors),
            ("angles", lambda a: hr_analytic(a, good)),
            ("angle rates", lambda a: hr_analytic(good, a)),
        ]
        for base in (good, tuple(np.full((2, 1), v) for v in good)):
            for i, name in enumerate(AnglePair._fields):
                for bad in (math.nan, math.inf, -math.inf):
                    for value in (bad, np.float64(bad), np.array([0.1, bad, 0.2])):
                        a = AnglePair(*base[:i], value, *base[i + 1 :])
                        for what, call in routes:
                            with pytest.raises(ValueError, match=f"^{what} not finite: {name}$"):
                                call(a)
        with pytest.raises(ValueError, match="^angles not finite: gamma1, phi2$"):
            final_state(AnglePair(math.nan, 0.0, 0.0, 0.0, 0.0, np.array([1.0, math.inf])))


class TestCouplingSet:
    def test_matrix_round_trip(self, rng):
        cs = CouplingSet(*rng.normal(size=6))
        m = cs.to_matrix()
        np.testing.assert_allclose(m, -m.T)
        assert couplings_from_matrix(m) == cs


ANGLE_FIELDS = ("gamma1", "theta1", "phi1", "gamma2", "theta2", "phi2")


class TestValueTypes:
    # AnglePair, CouplingSet, CosineRamp and SolvedAngles are immutable
    # named tuples: fixed field names and order, no assignment
    def values(self):
        final = AnglePair(1.3, 0.7, -0.2, -0.9, 2.0, 0.1)
        ramp = ramp_to(final, 2.0)
        solved = solve_tripod(TargetSpec(np.array([0.5, 0.5, 0.5, 0.5])))
        return [final, ramp.generator, ramp, solved]

    def test_field_names_and_order(self):
        assert AnglePair._fields == ANGLE_FIELDS
        assert CouplingSet._fields == (
            "omega12", "omega13", "omega14", "omega23", "omega24", "omega34"
        )
        assert CosineRamp._fields == ("v1", "v2", "horizon")
        # the boundary angles, their canonical-range flag and the
        # forbidden-coupling residual are views of the schedule, not fields
        assert SolvedAngles._fields == ("config", "schedule")

    def test_fields_cannot_be_assigned(self):
        for value in self.values():
            for name in value._fields:
                with pytest.raises(AttributeError):
                    setattr(value, name, 0.0)
            with pytest.raises(AttributeError):
                value.extra = 0.0  # no instance dict

    def test_copies_and_pickles_equal_the_original(self):
        for value in self.values():
            for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert type(other) is type(value) and other == value

    def test_ramp_replace_rebuilds_the_generator(self):
        ramp = CosineRamp((1.3, 0.7, -0.2), (-0.9, 2.0, 0.1), 2.0)
        moved = ramp._replace(v1=(0.4, 1.1, 0.3))
        assert moved == CosineRamp((0.4, 1.1, 0.3), (-0.9, 2.0, 0.1), 2.0)
        assert moved.generator == _read_off((0.4, 1.1, 0.3), (-0.9, 2.0, 0.1))
        assert ramp._replace(horizon=3.0).peak_rate == 0.5 * math.pi / 3.0
        with pytest.raises(ValueError, match="horizon"):
            ramp._replace(horizon=-1.0)
        with pytest.raises(ValueError, match="^rotation vectors not finite: v2$"):
            ramp._replace(v2=(0.0, math.nan, 0.0))
        with pytest.raises(ValueError, match="unexpected field"):
            ramp._replace(generator=ramp.generator)

    def test_ramp_make_builds_through_new(self):
        v1, v2 = (1.3, 0.7, -0.2), (-0.9, 2.0, 0.1)
        assert CosineRamp._make((v1, v2, 2.0)) == CosineRamp(v1, v2, 2.0)
        with pytest.raises(ValueError, match="horizon"):
            CosineRamp._make((v1, v2, -1.0))
        with pytest.raises(TypeError):
            CosineRamp._make((v1, v2, 2.0, "junk"))

    def test_ramp_rejects_non_finite_vectors(self):
        # a NaN in the boundary gave NaN couplings; the ramp names each bad
        # vector, and the map from angles each bad angle
        good = (0.3, -1.1, 0.7)
        for i in range(3):
            for bad in (math.nan, math.inf, -math.inf):
                v = good[:i] + (bad,) + good[i + 1 :]
                with pytest.raises(ValueError, match="^rotation vectors not finite: v1$"):
                    CosineRamp(v, good, 1.0)
                with pytest.raises(ValueError, match="^rotation vectors not finite: v1, v2$"):
                    CosineRamp(v, v, 1.0)
        with pytest.raises(ValueError, match="^angles not finite: gamma1$"):
            rotation_vectors(AnglePair(math.nan, 0.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="unpack"):  # three components each
            CosineRamp((0.0, 0.0), good, 1.0)
        # components that are finite but sum past the float range pass
        assert CosineRamp((1e308, 1e308, 0.0), good, 1.0).v1 == (1e308, 1e308, 0.0)

    @pytest.mark.parametrize("kind", [AnglePair, CouplingSet])
    def test_array_round_trip(self, kind, rng):
        values = rng.uniform(-2 * math.pi, 2 * math.pi, size=6)
        floats = kind(*values.tolist())
        assert all(type(v) is float for v in floats)
        assert floats.as_array().tobytes() == values.tobytes()
        if kind is AnglePair:
            assert AnglePair.from_array(values) == floats
        stacked = rng.normal(size=(5, 3, 6))
        arrays = kind(*np.moveaxis(stacked, -1, 0))
        assert arrays.as_array().tobytes() == stacked.tobytes()
        if kind is AnglePair:
            back = AnglePair.from_array(np.moveaxis(stacked, -1, 0))
            assert all(np.array_equal(x, y) for x, y in zip(back, arrays))

    @given(st.tuples(*(angle_floats for _ in range(6))), st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_ramp_generator_is_read_at_construction(self, angles, T):
        # the vectors of angles are gamma_i(T) n_i in floats, with the
        # reference's expressions, and G is read off them, so both are the
        # same bit for bit
        def vector(g, th, ph):
            st = math.sin(th)
            return g * math.cos(th), g * (st * math.cos(ph)), g * (st * math.sin(ph))

        (lx, ly, lz), (rx, ry, rz) = vector(*angles[:3]), vector(*angles[3:])
        reference = (-(lx + rx), -(ly + ry), -(lz + rz), rz - lz, ly - ry, rx - lx)
        final = AnglePair(*angles)
        ramp = ramp_to(final, T)
        generator = ramp.generator
        assert ramp[:2] == (vector(*angles[:3]), vector(*angles[3:]))
        assert generator == reference
        assert all(type(v) is float for v in generator)
        assert np.array(generator).tobytes() == np.array(reference).tobytes()  # signed zeros too

    @pytest.mark.parametrize("method", ["value", "rate", "ramp_rate", "couplings"])
    @pytest.mark.parametrize("T", [1.0, 1e-300])
    def test_ramp_rejects_a_time_whose_phase_overflows(self, method, T):
        # pi t/T overflows at a finite t (t = 1e308 of couplings gave nan,
        # t = inf a RuntimeWarning, t = nan nan); that t, the largest |t|
        # alone or among 2048, is named, and times up to the float range
        # of pi t/T pass
        ramp = CosineRamp((1.3, 0.7, -0.2), (-0.9, 2.0, 0.1), T)
        f = getattr(ramp, method)
        t = np.linspace(0.0, 1.0, 2048)
        t[7] = -3e308 * T / math.pi
        for times, named in ((1e308 * T, 1e308 * T), (t, t[7]), (math.inf, math.inf), (math.nan, math.nan)):
            with pytest.raises(ValueError, match=re.escape(f"overflows there: {named}") + "$"):
                f(times)
        assert np.isfinite(np.asarray(f(np.array([0.0, 5e307 * T])))).all()
        assert np.asarray(f(np.empty(0))).size == 0

    def test_largest_magnitude_takes_no_temporary_the_size_of_t(self):
        # two ufunc reductions, not np.abs(t) or np.isfinite(t): the peak
        # allocation stays far below t's 800 KB
        t = np.linspace(-2.0, 1.0, 100_000)
        tracemalloc.start()
        try:
            assert _largest_magnitude(t) == -2.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        for times, expected in ((3.0, 3.0), (np.empty(0), 0.0), (np.array([[1.0, -4.0], [2.0, 0.5]]), -4.0)):
            assert _largest_magnitude(times) == expected
        assert math.isnan(_largest_magnitude(np.array([1.0, math.nan, math.inf])))

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-320])
    def test_ramp_rejects_bad_horizon(self, T):
        # a NaN horizon gave NaN couplings and T = -1 a peak rate of -pi/2
        with pytest.raises(ValueError, match="horizon"):
            CosineRamp((1.3, 0.7, -0.2), (-0.9, 2.0, 0.1), T)

    @pytest.mark.parametrize("name", ["tripod", "diamond", "ntype"])
    def test_angles_json_lists_boundary_angles_in_field_order(self, tmp_path, name, capsys):
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json"
        assert main(["solve", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        angles = json.loads((tmp_path / "angles.json").read_text())["boundary_angles"]
        assert tuple(angles) == ANGLE_FIELDS
        assert all(type(v) is float for v in angles.values())
