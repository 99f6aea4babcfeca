import math

import numpy as np
import pytest
from hypothesis import given, settings

from fourlevel.quat4 import (
    Quaternion,
    RotationKind,
    _exp,
    _log,
    _require_finite,
    _sandwich,
    cayley_rotation,
    decompose_rotation,
    hamilton,
    is_rotation_matrix,
    left_isoclinic,
    quat_exp,
    quat_mul,
    right_isoclinic,
)

from conftest import random_unit_quaternion, rotation_angles_from_matrix, unit_quaternions

ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


class TestQuatMul:
    def test_identity_element(self):
        q = Quaternion(0.5, 0.5, 0.5, 0.5)
        assert quat_mul(ONE, q) == q
        assert quat_mul(q, ONE) == q

    def test_ij_equals_k(self):
        assert quat_mul(I, J) == K
        assert hamilton(I, J) == K  # a Quaternion is the tuple the algebra takes

    def test_pure_unit_squares_to_minus_one(self):
        assert quat_mul(I, I) == Quaternion(-1, 0, 0, 0)

    def test_anticommutation(self):
        assert quat_mul(J, I) == Quaternion(0, 0, 0, -1)

    @given(unit_quaternions(), unit_quaternions())
    @settings(max_examples=200, deadline=None)
    def test_norm_multiplicative(self, a, b):
        assert abs(quat_mul(a, b).norm - a.norm * b.norm) < 1e-12


class TestQuatExp:
    def test_zero_angle(self):
        assert quat_exp(I, 0.0) == ONE

    def test_quarter_turn(self):
        q = quat_exp(I, math.pi / 2)
        assert abs(q.w) < 1e-15 and abs(q.x - 1) < 1e-15

    def test_eighth_turn_j(self):
        # cos(pi/4) + j sin(pi/4)
        q = quat_exp(J, math.pi / 4)
        np.testing.assert_allclose(
            q.as_array(), [0.7071067811865476, 0.0, 0.7071067811865476, 0.0], atol=1e-12
        )

    def test_rejects_non_pure(self):
        with pytest.raises(ValueError):
            quat_exp(Quaternion(0.5, 0.5, 0.5, 0.5), 1.0)


class TestIsoclinic:
    def test_identity(self):
        np.testing.assert_allclose(left_isoclinic(ONE), np.eye(4))
        np.testing.assert_allclose(right_isoclinic(ONE), np.eye(4))

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            left_isoclinic(Quaternion(1, 1, 0, 0))
        with pytest.raises(ValueError):
            right_isoclinic(Quaternion(0.5, 0, 0, 0))

    def test_left_homomorphism(self, rng):
        for _ in range(100):
            a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
            np.testing.assert_allclose(
                left_isoclinic(a) @ left_isoclinic(b),
                left_isoclinic(quat_mul(a, b)),
                atol=1e-10,
            )

    def test_right_antihomomorphism(self, rng):
        for _ in range(100):
            a, b = random_unit_quaternion(rng), random_unit_quaternion(rng)
            np.testing.assert_allclose(
                right_isoclinic(a) @ right_isoclinic(b),
                right_isoclinic(quat_mul(b, a)),
                atol=1e-10,
            )

    def test_left_right_commute(self, rng):
        for _ in range(100):
            q, p = random_unit_quaternion(rng), random_unit_quaternion(rng)
            ml, mr = left_isoclinic(q), right_isoclinic(p)
            np.testing.assert_allclose(ml @ mr, mr @ ml, atol=1e-12)

    def test_isoclinic_rotates_all_vectors_equally(self, rng):
        q = random_unit_quaternion(rng)
        r = cayley_rotation(q, ONE)
        expected = None
        for _ in range(20):
            c = rng.normal(size=4)
            c /= np.linalg.norm(c)
            ang = math.acos(np.clip(c @ (r @ c), -1, 1))
            if expected is None:
                expected = ang
            assert abs(ang - expected) < 1e-9


def literal_left(q):
    w, x, y, z = q
    return [[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]]


def literal_right(p):
    w, x, y, z = p
    return [[w, -x, -y, -z], [x, w, z, -y], [y, -z, w, x], [z, y, -x, w]]


def basis_and_random_quaternions(n: int = 200):
    """+-1, +-i, +-j, +-k and n seeded unit quaternions, as (w, x, y, z) float tuples."""
    units = [tuple(float(s * (k == i)) for k in range(4)) for i in range(4) for s in (1, -1)]
    v = np.random.default_rng(28).normal(size=(n, 4))
    return units + [tuple(r) for r in (v / np.linalg.norm(v, axis=1, keepdims=True)).tolist()]


class TestOneBuilder:
    """M_L(q), M_R(p) and U_r come from one builder of the matrix of C -> q C p."""

    def test_factors_equal_the_literal_cayley_matrices(self):
        for q in basis_and_random_quaternions():
            # both normalize their input first
            u = Quaternion.unit(*q)
            u = (u.w, u.x, u.y, u.z)
            assert np.array_equal(left_isoclinic(Quaternion(*q)), literal_left(u))
            assert np.array_equal(right_isoclinic(Quaternion(*q)), literal_right(u))

    def test_stack_equals_the_per_sample_calls_bit_for_bit(self):
        quats = basis_and_random_quaternions(100)
        qs, ps = quats[:54], quats[54:]
        stacked = _sandwich(tuple(np.array(qs).T), tuple(np.array(ps).T))
        assert stacked.shape == (54, 4, 4)
        for n, (q, p) in enumerate(zip(qs, ps)):
            assert stacked[n].tobytes() == np.ascontiguousarray(_sandwich(q, p)).tobytes()

    def test_exp_of_zero_is_exactly_one(self):
        assert _exp((0.0, 0.0, 0.0)) == (1.0, 0.0, 0.0, 0.0)
        assert _exp((0, 0, 0)) == (1.0, 0.0, 0.0, 0.0)

    def test_exp_on_arrays_equals_the_per_element_calls(self):
        v = np.random.default_rng(3).uniform(-4.0, 4.0, size=(3, 50))
        v[:, 7] = 0.0
        stacked = np.array(_exp(tuple(v)))
        for n in range(50):
            assert stacked[:, n].tobytes() == np.array(_exp(tuple(v[:, n].tolist()))).tobytes()

    def test_log_inverts_exp_below_pi(self):
        rng = np.random.default_rng(4)
        axes = rng.normal(size=(300, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        for u, g in zip(axes, rng.uniform(0.0, math.pi * (1 - 1e-9), 300)):
            v = tuple((g * u).tolist())
            np.testing.assert_allclose(_log(*map(float, _exp(v))), v, rtol=0, atol=1e-14)
        assert _log(*map(float, _exp((0.0, 0.0, 0.0)))) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("tiny", [4.40674373e-316, 5e-324, 2e-308, 1e-301])
    def test_log_of_a_subnormal_vector_part(self, tiny):
        # (-1, 0, t, t) for tiny t: x / h of two subnormals kept about 26
        # bits, so the tripod's vector had |v| = pi/2 - 5e-9 and missed its
        # target by 1.05e-8; v is pi along (0, 1, 1) / sqrt(2)
        v = _log(-1.0, 0.0, tiny, tiny)
        np.testing.assert_allclose(v, (0.0, math.pi / 2**0.5, math.pi / 2**0.5), rtol=1e-15, atol=0)
        assert abs(math.hypot(*v) - math.pi) <= 1e-15


class TestCayleyRotation:
    def test_identity(self):
        np.testing.assert_allclose(cayley_rotation(ONE, ONE), np.eye(4))

    def test_wx_plane_rotation(self):
        # equal left/right factors along i rotate e1 into e2 at gamma = pi/4
        q = Quaternion(math.cos(math.pi / 4), math.sin(math.pi / 4), 0, 0)
        out = cayley_rotation(q, q) @ np.array([1.0, 0, 0, 0])
        np.testing.assert_allclose(out, [0, 1, 0, 0], atol=1e-15)

    def test_matches_quaternion_product(self, rng):
        for _ in range(50):
            q, p = random_unit_quaternion(rng), random_unit_quaternion(rng)
            c = random_unit_quaternion(rng)
            via_matrix = cayley_rotation(q, p) @ c.as_array()
            via_product = quat_mul(quat_mul(q, c), p).as_array()
            np.testing.assert_allclose(via_matrix, via_product, atol=1e-12)

    def test_always_a_rotation(self, rng):
        for _ in range(100):
            r = cayley_rotation(random_unit_quaternion(rng), random_unit_quaternion(rng))
            assert is_rotation_matrix(r, atol=1e-10)

    def test_rejects_a_matrix_that_is_not_4x4(self):
        assert not is_rotation_matrix(np.eye(3))


class TestDecomposeRotation:
    def test_identity(self):
        d = decompose_rotation(ONE, ONE)
        assert d.kind is RotationKind.IDENTITY
        assert d.angle1 == 0.0 and d.angle2 == 0.0

    def test_minus_one_pair_is_identity_rotation(self):
        d = decompose_rotation(Quaternion(-1, 0, 0, 0), Quaternion(-1, 0, 0, 0))
        assert d.kind is RotationKind.IDENTITY

    def test_identity_kind_exactly_when_the_rotation_is_identity(self, rng):
        # (-1, 1) and (1, -1) give -I: left-isoclinic, M_L(-1), both angles pi
        pairs = [(q, p) for q in (ONE, -ONE) for p in (ONE, -ONE)]
        pairs += [(random_unit_quaternion(rng), random_unit_quaternion(rng)) for _ in range(100)]
        for q, p in pairs:
            d = decompose_rotation(q, p)
            is_identity = np.max(np.abs(cayley_rotation(q, p) - np.eye(4))) <= 1e-12
            assert (d.kind is RotationKind.IDENTITY) == is_identity, (q, p)
        for q, p in ((-ONE, ONE), (ONE, -ONE)):
            d = decompose_rotation(q, p)
            assert d.kind is RotationKind.LEFT_ISOCLINIC
            assert d.angle1 == d.angle2 == math.pi

    def test_shared_axis_angles(self):
        g1, g2 = 0.7, 0.3
        d = decompose_rotation(quat_exp(I, g1), quat_exp(I, g2))
        assert abs(d.angle1 - (g1 + g2)) < 1e-12
        assert abs(d.angle2 - (g1 - g2)) < 1e-12

    def test_left_isoclinic_kind(self):
        d = decompose_rotation(quat_exp(J, 0.9), ONE)
        assert d.kind is RotationKind.LEFT_ISOCLINIC
        assert abs(d.angle1 - d.angle2) < 1e-12

    def test_right_isoclinic_kind(self):
        d = decompose_rotation(ONE, quat_exp(K, 1.2))
        assert d.kind is RotationKind.RIGHT_ISOCLINIC

    def test_simple_rotation_kind(self):
        d = decompose_rotation(quat_exp(I, 0.4), quat_exp(I, -0.4))
        assert d.kind is RotationKind.SIMPLE
        assert min(d.angle1, d.angle2) < 1e-12

    def test_angles_match_eigenvalue_oracle(self, rng):
        for _ in range(100):
            q, p = random_unit_quaternion(rng), random_unit_quaternion(rng)
            d = decompose_rotation(q, p)
            oracle = rotation_angles_from_matrix(cayley_rotation(q, p))
            np.testing.assert_allclose(
                sorted([d.angle1, d.angle2]), oracle, atol=1e-8
            )

    def test_planes_orthogonal_and_invariant(self, rng):
        for _ in range(50):
            q, p = random_unit_quaternion(rng), random_unit_quaternion(rng)
            d = decompose_rotation(q, p)
            r = cayley_rotation(q, p)
            assert np.max(np.abs(d.plane1 @ d.plane2.T)) < 1e-9
            for plane in (d.plane1, d.plane2):
                rotated = plane @ r.T
                # projection back onto the plane must preserve each vector
                residual = rotated - (rotated @ plane.T) @ plane
                assert np.max(np.abs(residual)) < 1e-8

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("sep", [1e-12, 1e-9, 1e-7, 1e-5, 1e-4])
    def test_near_coincident_axes_give_exact_planes(self, sign, sep):
        # v = +-u + sep * noise: the planes must hold to rounding however
        # close to coincident or anti-aligned the axes come
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            v = sign * u + sep * rng.normal(size=3)
            v /= np.linalg.norm(v)
            g1, g2 = rng.uniform(0.1, 3.0, size=2)
            q = quat_exp(Quaternion(0.0, *u), g1)
            p = quat_exp(Quaternion(0.0, *v), g2)
            d = assert_planes_hold_to_rounding(q, p)
            for plane in (d.plane1, d.plane2):
                assert np.max(np.abs(plane @ plane.T - np.eye(2))) <= 1e-12
            assert np.max(np.abs(d.plane1 @ d.plane2.T)) <= 1e-12

    @given(unit_quaternions(), unit_quaternions())
    @settings(max_examples=200, deadline=None)
    def test_each_plane_turns_through_its_own_angle(self, q, p):
        assert_planes_carry_their_angles(q, p)

    def test_factors_near_plus_minus_one_pair_planes_and_angles(self):
        # near gamma = pi, sin(gamma) carries the rounding of pi: the axis
        # must still come out unit
        rng = np.random.default_rng(11)
        for _ in range(500):
            pair = []
            for _ in range(2):
                a = np.r_[rng.choice([1.0, -1.0]), 10 ** rng.uniform(-16, -3) * rng.normal(size=3)]
                pair.append(Quaternion.from_array(a / np.linalg.norm(a)))
            assert_planes_carry_their_angles(*pair)
            assert_planes_carry_their_angles(pair[0], random_unit_quaternion(rng))

    @pytest.mark.parametrize(
        "q, p",
        [
            (ONE, ONE),
            (-ONE, ONE),
            (ONE, -ONE),
            (-ONE, -ONE),
            (quat_exp(J, 0.9), ONE),
            (quat_exp(J, 0.9), -ONE),
            (ONE, quat_exp(K, 1.2)),
            (-ONE, quat_exp(K, 1.2)),
            (quat_exp(I, 0.7), quat_exp(I, 0.3)),
            (quat_exp(I, 0.7), quat_exp(-I, 0.3)),
            (quat_exp(I, 0.4), quat_exp(-I, 0.4)),
            (quat_exp(K, 2.5), quat_exp(K, 2.9)),
            (ONE, quat_exp(-I, 1.2)),
            (-ONE, quat_exp(-I, 1.2)),
            (quat_exp(I, 0.9), ONE),
            (quat_exp(I, 0.9), -ONE),
            (quat_exp(I, 0.9), quat_exp(-I, 1.2)),
        ],
    )
    def test_exact_special_cases_pair_planes_and_angles(self, q, p):
        assert_planes_hold_to_rounding(q, p)

    @pytest.mark.parametrize(
        "q, p, axis, plane",
        [
            (ONE, ONE, I, "plane1"),
            (quat_exp(J, 0.9), ONE, J, "plane1"),
            (ONE, quat_exp(K, 1.2), K, "plane1"),
            (quat_exp(I, 0.7), quat_exp(I, 0.3), I, "plane1"),
            # for v = -u the identity element turns through gamma1 - gamma2
            (quat_exp(I, 0.7), quat_exp(-I, 0.3), I, "plane2"),
        ],
    )
    def test_coincident_axes_put_span_one_u_in_its_plane(self, q, p, axis, plane):
        basis = getattr(decompose_rotation(q, p), plane)
        span = np.array([ONE.as_array(), axis.as_array()])
        np.testing.assert_allclose(basis.T @ basis, span.T @ span, atol=1e-12)

    def test_sign_canonical(self, rng):
        q, p = random_unit_quaternion(rng), random_unit_quaternion(rng)
        d1 = decompose_rotation(q, p)
        d2 = decompose_rotation(-q, -p)
        assert abs(d1.angle1 - d2.angle1) < 1e-12
        assert abs(d1.angle2 - d2.angle2) < 1e-12


def assert_planes_hold_to_rounding(q, p):
    """Each plane_i is invariant under R, and each of its rows c satisfies
    c . R c = cos(angle_i), both to 1e-12; returns the decomposition."""
    d = decompose_rotation(q, p)
    r = cayley_rotation(q, p)
    for plane, angle in ((d.plane1, d.angle1), (d.plane2, d.angle2)):
        rotated = plane @ r.T
        assert np.max(np.abs(rotated - (rotated @ plane.T) @ plane)) <= 1e-12
        assert np.max(np.abs(np.sum(plane * rotated, axis=1) - math.cos(angle))) <= 1e-12
    return d


def assert_planes_carry_their_angles(q, p):
    """Each row c of plane_i satisfies c . R c = cos(angle_i)."""
    d = decompose_rotation(q, p)
    r = cayley_rotation(q, p)
    for plane, angle in ((d.plane1, d.angle1), (d.plane2, d.angle2)):
        np.testing.assert_allclose(
            np.einsum("ij,ij->i", plane, plane @ r.T), math.cos(angle), atol=1e-12
        )


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_unit_rejects(self, bad):
        with pytest.raises(ValueError, match=str(bad)):
            Quaternion.unit(bad, 0, 0, 0)
        with pytest.raises(ValueError, match=str(bad)):
            Quaternion.unit(0, 0, bad, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rotations_reject(self, bad):
        for call in (
            lambda: left_isoclinic(Quaternion(bad, 0, 0, 0)),
            lambda: right_isoclinic(Quaternion(bad, 0, 0, 0)),
            lambda: cayley_rotation(Quaternion(bad, 0, 0, 0), ONE),
            lambda: cayley_rotation(ONE, Quaternion(bad, 0, 0, 0)),
            lambda: decompose_rotation(Quaternion(bad, 0, 0, 0), ONE),
            lambda: decompose_rotation(ONE, Quaternion(bad, 0, 0, 0)),
        ):
            with pytest.raises(ValueError, match="quaternion components not finite: w$"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_construction_rejects(self, bad):
        with pytest.raises(ValueError, match="not finite: w$"):
            quat_mul(Quaternion(bad, 0, 0, 0), ONE)
        with pytest.raises(ValueError, match="not finite: x, z$"):
            Quaternion(0.0, bad, 0.5, bad)
        with pytest.raises(ValueError, match="not finite: y$"):
            ONE._replace(y=bad)  # _make builds through __new__ too
        # array fields too, each tested as a whole
        with pytest.raises(ValueError, match="not finite: y$"):
            Quaternion(np.zeros(3), np.ones(3), np.array([0.0, bad, 0.0]), 0.0)
        Quaternion(np.zeros(3), np.ones(3), np.zeros(3), 0.0)

    def test_finite_fields_whose_sum_overflows_pass(self):
        # the sum is only a fast test: finite fields whose sum overflows, or
        # whose sum is inf - inf, are tested one by one and pass, or named
        Quaternion(1e308, 1e308, 1e308, 0.0)
        Quaternion(np.float64(1.7e308), np.float64(1.7e308), -1e308, -1e308)
        _require_finite("fields", "ab", (np.full(3, 1e308), np.full(3, 1e308)))
        with pytest.raises(ValueError, match="not finite: w, x$"):
            Quaternion(math.inf, -math.inf, 0.0, 0.0)

    def test_one_nan_among_arrays_is_named(self):
        # six 2048-arrays, as hr_analytic checks per chunk of angles
        names = ("gamma1", "theta1", "phi1", "gamma2", "theta2", "phi2")
        rng = np.random.default_rng(26)
        for bad in range(6):
            fields = list(rng.normal(size=(6, 2048)))
            fields[bad][int(rng.integers(2048))] = math.nan
            with pytest.raises(ValueError, match=f"^angles not finite: {names[bad]}$"):
                _require_finite("angles", names, fields)
            fields[bad] = np.zeros(2048)
            _require_finite("angles", names, fields)

    def test_mixed_float_and_tuple_fields(self):
        # a float beside a tuple, as a CosineRamp's vectors are checked
        _require_finite("fields", ("a", "b"), (1.0, (2.0, 3.0, 4.0)))
        with pytest.raises(ValueError, match="^fields not finite: b$"):
            _require_finite("fields", ("a", "b"), (1.0, (2.0, math.nan, 4.0)))
        with pytest.raises(ValueError, match="^fields not finite: a$"):
            _require_finite("fields", ("a", "b"), (math.inf, (2.0, 3.0, 4.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_quat_exp_rejects(self, bad):
        with pytest.raises(ValueError, match=f"gamma = {bad}"):
            quat_exp(I, bad)
        with pytest.raises(ValueError, match="not finite: x$"):
            quat_exp(Quaternion(0, bad, 0, 0), 1.0)


class TestUnitConstructor:
    def test_normalizes_near_unit(self):
        q = Quaternion.unit(1.0 + 5e-7, 0, 0, 0)
        assert q.w == 1.0

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            Quaternion.unit(2, 0, 0, 0)

    def test_pure_unit_predicate(self):
        assert I.is_pure_unit()
        assert not ONE.is_pure_unit()
