import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourlevel import propagator
from fourlevel.cli import _hamiltonian_of_t, _solve
from fourlevel.hamiltonian import PhaseSchedule, total_hamiltonian
from fourlevel.qo import engineered_to_qo, lab_hamiltonian
from fourlevel.propagator import (
    _CHUNK,
    AccuracyError,
    InvalidHamiltonianError,
    _check_hermitian,
    _matmul,
    _phase_readout,
    _scan,
    _step_exponentials,
    _taylor_degree,
    compare_with_analytic,
    fidelity,
    propagate,
)
from fourlevel.rotation import hr_analytic
from fourlevel.scenario import load_scenario
from fourlevel.solvers import TargetSpec, solve_diamond, solve_ntype, solve_tripod

from conftest import broadcast_matmul

SQRT3 = math.sqrt(3.0)
PSI0 = np.array([1.0, 0, 0, 0], dtype=complex)


def hamiltonian_of(solved, ph):
    def h(t):
        cs = hr_analytic(solved.schedule.value(t), solved.schedule.rate(t))
        return total_hamiltonian(cs, ph, t)

    return h


def phases(eps_prime, T=1.0):
    return PhaseSchedule(eps=np.zeros(3), eps_prime=np.asarray(eps_prime, float), T=T)


class TestPropagate:
    def test_zero_hamiltonian(self):
        traj = propagate(lambda t: np.zeros((4, 4), complex), PSI0, 1.0, steps=100)
        np.testing.assert_allclose(traj.final_state, PSI0, atol=1e-14)
        assert traj.norm_drift < 1e-14

    def test_constant_hamiltonian_matches_exponential(self, rng):
        expm = pytest.importorskip("scipy.linalg").expm
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h0 = a + a.conj().T
        traj = propagate(lambda t: h0, PSI0, 1.0, steps=400)
        expected = expm(-1j * h0) @ PSI0
        np.testing.assert_allclose(traj.final_state, expected, atol=1e-10)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError):
            propagate(lambda t: np.zeros((4, 4), complex), PSI0, 1.0, steps=10)

    @pytest.mark.parametrize("steps", [150.5, 200.0, True, "200"])
    def test_rejects_non_integer_steps(self, steps):
        # 150.5 reached np.linspace and raised an untyped TypeError there
        with pytest.raises(ValueError, match="steps must be an integer"):
            propagate(lambda t: np.zeros((4, 4), complex), PSI0, 1.0, steps=steps)

    def test_accepts_numpy_integer_steps(self):
        traj = propagate(lambda t: np.zeros((4, 4), complex), PSI0, 1.0, steps=np.int64(200))
        assert traj.times.shape == (201,)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_bad_horizon(self, T):
        with pytest.raises(ValueError, match="T must be"):
            propagate(lambda t: np.zeros((4, 4), complex), PSI0, T, steps=100)

    def test_rejects_horizon_whose_rate_overflows(self):
        # T = 1e-320 is finite and positive, but pi/T overflows: propagate
        # applies the one horizon rule, rotation._check_horizon
        with pytest.raises(ValueError, match="horizon T = .* out of range"):
            propagate(lambda t: np.zeros((4, 4), complex), PSI0, 1e-320, steps=100)

    def test_rejects_norm_drift_past_the_gate(self):
        h = random_hermitian(np.random.default_rng(0), 1)[0] / 2 * 3e10
        with pytest.raises(AccuracyError, match=r"norm drift 9\.382e-06 exceeds 1e-06"):
            propagate(lambda t: h, PSI0, 1.0, 1000)

    def test_rejects_unnormalized_initial_state(self):
        with pytest.raises(ValueError):
            propagate(lambda t: np.zeros((4, 4), complex), 2 * PSI0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308])
    def test_rejects_non_finite_initial_state(self, bad):
        # a NaN norm fails no ordered comparison, so a NaN psi0 once gave an
        # all-NaN trajectory with norm_drift NaN; at 1e308 the norm
        # overflows to inf, rejected with no RuntimeWarning first
        psi0 = np.array([1.0, bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="initial state psi0"):
            propagate(lambda t: np.zeros((4, 4), complex), psi0, 1.0, steps=100)

    def test_rejects_non_hermitian_sample(self):
        bad = np.zeros((4, 4), complex)
        bad[0, 1] = 1.0  # no conjugate partner
        with pytest.raises(InvalidHamiltonianError):
            propagate(lambda t: bad, PSI0, 1.0, steps=100)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_sample(self, value):
        # one bad node among finite ones names its time, and no exponential
        # of a non-finite stack is attempted
        def h(t):
            out = np.zeros(np.shape(t) + (4, 4), complex)
            out[7, 1, 1] = value
            return out

        with pytest.raises(InvalidHamiltonianError, match="not finite"):
            propagate(h, PSI0, 1.0, steps=100)

    def test_rejects_non_finite_node_in_the_last_chunk(self):
        # the earlier chunks are finite and propagate; the bad node, the
        # second of the last chunk's 74, is checked before that chunk's
        # exponentials and named by its time
        steps = 2 * _CHUNK + 37
        times = np.linspace(0.0, 1.0, steps + 1)
        bad = times[2 * _CHUNK] + propagator._NODES[1] * (1.0 / steps)

        def h(t):
            out = np.zeros(np.shape(t) + (4, 4), complex)
            out[t == bad, 2, 2] = math.nan
            return out

        with pytest.raises(InvalidHamiltonianError, match=rf"H\(t={bad}\) is not finite"):
            propagate(h, PSI0, 1.0, steps)

    def test_rejects_hamiltonian_too_large_to_exponentiate(self):
        huge = np.diag([1e200, 0, 0, 0]).astype(complex)
        with pytest.raises(InvalidHamiltonianError, match="too large"):
            propagate(lambda t: huge, PSI0, 1.0, steps=100)

    @pytest.mark.parametrize("norm", [1e9, 1e200])
    def test_rejects_step_norm_past_the_squaring_range(self, norm):
        # a finite dt |H| too large for the step map to stay unitary; each
        # Magnus factor takes half of H
        h = np.diag([2.0, 0, 0, 0]).astype(complex)
        with pytest.raises(AccuracyError, match=r"dt \* \|H\| = .* increase the step"):
            propagate(lambda t: h, PSI0, 100 * norm, steps=100)

    def test_fourth_order_convergence(self):
        solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
        h = hamiltonian_of(solved, phases([math.pi / 3] * 3))
        ref = propagate(h, PSI0, 1.0, steps=4000).final_state
        err = [
            np.linalg.norm(propagate(h, PSI0, 1.0, steps=n).final_state - ref)
            for n in (125, 250)
        ]
        ratio = err[0] / err[1]
        assert 10.0 < ratio < 22.0  # ~16x per halving

    def test_norm_conserved(self):
        solved = solve_diamond(
            TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
        )
        traj = propagate(hamiltonian_of(solved, phases([0, math.pi / 2, 0])), PSI0, 1.0)
        assert traj.norm_drift < 1e-8


def random_hermitian(rng, n):
    a = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return a + np.swapaxes(a.conj(), -1, -2)


def random_symmetric(rng, n):
    a = rng.normal(size=(n, 4, 4))
    return a + np.swapaxes(a, -1, -2)


def random_unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))[0]


def soa(stack):
    """(n, 4, 4) -> the (4, 4, n) layout of the propagator's kernels."""
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1))


def drive(rng, dtype, scale=1.0):
    """h(t) = scale (cos(3t) A + t^2 B) for random Hermitian A, B, real
    symmetric for a float dtype."""
    a, b = (random_hermitian if dtype is complex else random_symmetric)(rng, 2)

    def h(t):
        t = np.asarray(t)[..., None, None]
        return scale * (np.cos(3 * t) * a + t**2 * b)

    return h


# dt |H| (Frobenius) of the stacks below: every Taylor degree 1..12 without
# squaring, and the squaring path above 0.33
STEP_NORMS = [0, 1e-9, 1e-6, 1e-4, 1e-3, 4e-3, 0.01, 0.03, 0.05, 0.1, 0.15, 0.2, 0.3, 3, 50]


class TestStepExponentials:
    def test_norms_cover_every_degree_and_squaring(self):
        degrees = [_taylor_degree(norm) for norm in STEP_NORMS]
        assert {m for m, s in degrees if s == 0} == set(range(1, 13))
        assert degrees[-1][1] > 0

    @pytest.mark.parametrize("norm", STEP_NORMS)
    def test_matches_expm_and_is_unitary(self, rng, norm):
        expm = pytest.importorskip("scipy.linalg").expm
        h = random_hermitian(rng, 50)
        h /= np.linalg.norm(h, axis=(-2, -1))[:, None, None]
        dt = float(norm)
        got = np.moveaxis(_step_exponentials(soa(h), dt), -1, 0)
        expected = expm(-1j * dt * h)
        assert np.max(np.abs(got - expected)) <= 1e-13
        unitarity = np.swapaxes(got.conj(), -1, -2) @ got - np.eye(4)
        assert np.max(np.abs(unitarity)) <= 1e-13


    @pytest.mark.parametrize("norm", STEP_NORMS)
    def test_real_symmetric_matches_expm_and_is_unitary(self, rng, norm):
        expm = pytest.importorskip("scipy.linalg").expm
        h = random_symmetric(rng, 50)
        h /= np.linalg.norm(h, axis=(-2, -1))[:, None, None]
        dt = float(norm)
        got = np.moveaxis(_step_exponentials(soa(h), dt), -1, 0)
        expected = expm(-1j * dt * h)
        assert np.max(np.abs(got - expected)) <= 1e-13
        unitarity = np.swapaxes(got.conj(), -1, -2) @ got - np.eye(4)
        assert np.max(np.abs(unitarity)) <= 1e-13

    @pytest.mark.parametrize("norm", STEP_NORMS + [700])
    def test_real_path_equals_complex_path(self, rng, norm):
        # a real stack takes its powers and Horner stage in real arithmetic,
        # with the same bits, signs of zero included (at a step norm of 0
        # every imaginary part is a zero); the result is a view into the
        # workspace, which the next call reuses
        h = random_symmetric(rng, 50)
        h /= np.linalg.norm(h, axis=(-2, -1))[:, None, None]
        real = _step_exponentials(soa(h), float(norm)).copy()
        assert real.dtype == complex
        assert same_bits(real, _step_exponentials(soa(h).astype(complex), float(norm)))

    @pytest.mark.parametrize("norm", [700, 1e3, 1e6])
    def test_large_step_norms_match_expm(self, rng, norm):
        # rounding in the s squarings grows linearly with dt |H|, and so
        # does expm's own error
        expm = pytest.importorskip("scipy.linalg").expm
        h = random_hermitian(rng, 50)
        h /= np.linalg.norm(h, axis=(-2, -1))[:, None, None]
        got = np.moveaxis(_step_exponentials(soa(h), float(norm)), -1, 0)
        expected = expm(-1j * norm * h)
        assert np.max(np.abs(got - expected)) <= 5e-15 * norm
        unitarity = np.swapaxes(got.conj(), -1, -2) @ got - np.eye(4)
        assert np.max(np.abs(unitarity)) <= 5e-15 * norm


# exact zeros of either sign, subnormals and entries near 1e150, whose
# products near 1e300 may sum past the float range
SPECIAL_ENTRIES = (
    st.sampled_from([0.0, -0.0])
    | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
    | st.floats(1e149, 1e151)
    | st.floats(-1e151, -1e149)
)


@st.composite
def real_stack_pairs(draw):
    """Two real (4, 4, n) stacks of entries N(0, 1) 10^U{-3..3}, a drawn
    share of them replaced by a few drawn special entries."""
    n = draw(st.sampled_from([1, 32, 1024, 2048]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.lists(SPECIAL_ENTRIES, min_size=1, max_size=4))
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    stacks = rng.normal(size=(2, 4, 4, n)) * 10.0 ** rng.integers(-3, 4, (2, 4, 4, n))
    mask = rng.random(stacks.shape) < share
    stacks[mask] = rng.choice(np.array(special), int(mask.sum()))
    return stacks


def negative_zero_products():
    """Stacks of two matrices whose product has one entry, (0, 0) of the
    second, with four -0.0 products and a -0.0 sum, the others nonzero."""
    a, b = np.ones((4, 4, 2)), np.ones((4, 4, 2))
    a[0, :, 1] = [-0.0, 0.0, -1.0, 1.0]
    b[:, 0, 1] = [2.0, -3.0, 0.0, -0.0]
    return np.stack((a, b))


def counted_einsum(monkeypatch) -> list:
    """The np.einsum calls made from here on, one entry each."""
    calls, einsum = [], np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append(1) or einsum(*args, **kwargs))
    return calls


def fused_sums(a, b, pairwise=False):
    """The (4, 4, n) product sums of an einsum whose k-order multiply-adds
    round once each (fused), or that adds its rounded products pairwise."""
    out = np.empty(a.shape)
    for i, j, n in np.ndindex(out.shape):
        p = [Fraction(a[i, k, n]) * Fraction(b[k, j, n]) for k in range(4)]
        if pairwise:
            r = [float(x) for x in p]
            out[i, j, n] = (r[0] + r[1]) + (r[2] + r[3])
        else:
            acc = 0.0
            for x in p:
                acc = float(x + Fraction(acc))
            out[i, j, n] = acc
    return out


class TestMatmul:
    @settings(max_examples=200, deadline=None)
    @given(real_stack_pairs())
    @example(np.stack((np.full((4, 4, 1), -0.0), np.ones((4, 4, 1)))))
    @example(negative_zero_products())
    def test_real_stacks_equal_the_broadcast_product(self, stacks):
        # np.einsum sums from +0.0, so four -0.0 products give +0.0 there and
        # -0.0 in the broadcast sum; every other entry has the same bits
        a, b = stacks
        out, term = np.empty_like(a), np.empty_like(a)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            expected = broadcast_matmul(a, b)
            got = _matmul(a, b, out, term)
        assert got is out and same_bits(got, expected)

    @pytest.mark.parametrize("case", ["dense", "redone", "diagonal", "first-diagonal", "complex"])
    def test_route(self, rng, monkeypatch, case):
        # einsum for a real stack whose first product has no zero (a result
        # with a zero is then redone), none for a structural zero or a
        # complex stack; the bits are the broadcast form's on each route
        a, b = rng.normal(size=(2, 4, 4, 64))
        if case == "redone":
            a, b = negative_zero_products()
        elif case in ("diagonal", "first-diagonal"):
            first = slice(None if case == "diagonal" else 1)
            a[..., first] *= np.eye(4)[..., None]
            b[..., first] *= np.eye(4)[..., None]
        elif case == "complex":
            a, b = a + 1j * b, b - 1j * a
        calls = counted_einsum(monkeypatch)
        got = _matmul(a, b, np.empty_like(a), np.empty_like(a))
        expected = propagator._REAL_EINSUM and case in ("dense", "redone")
        assert len(calls) == expected and same_bits(got, broadcast_matmul(a, b))

    def test_without_the_probe_real_stacks_take_the_broadcast_form(self, rng, monkeypatch):
        monkeypatch.setattr(propagator, "_REAL_EINSUM", False)
        a, b = rng.normal(size=(2, 4, 4, 64))
        calls = counted_einsum(monkeypatch)
        assert same_bits(_matmul(a, b, np.empty_like(a), np.empty_like(a)), broadcast_matmul(a, b))
        assert calls == []

    def test_the_probe_tells_a_fused_or_reordered_einsum(self):
        # _REAL_EINSUM holds where einsum equals the rounded k-order sum on
        # the probe, which a fused einsum (an FMA build) or a pairwise one
        # would not: each changes entries of it
        a, b = propagator._PROBE
        assert np.all(a) and np.all(b)  # no zero, so the sum from 0 is the broadcast form
        rounded = broadcast_matmul(a, b)
        assert propagator._REAL_EINSUM == same_bits(np.einsum("ik...,kj...->ij...", a, b), rounded)
        assert np.sum(fused_sums(a, b) != rounded) > 100
        assert np.sum(fused_sums(a, b, pairwise=True) != rounded) > 100


class TestBlockedScan:
    @pytest.mark.parametrize("steps", [1, 2, 100, 101, 4097])
    def test_matches_sequential_product(self, rng, steps):
        maps = random_unitary(rng, steps)
        psi0 = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
        psi, expected = psi0, []
        for m in maps:
            psi = m @ psi
            expected.append(psi)
        got = _scan(soa(maps), psi0)
        assert got.shape == (steps, 4)
        assert np.max(np.abs(got - expected)) <= 1e-13

    def test_propagate_across_chunks_matches_sequential_magnus(self, rng):
        # every state of a run longer than two chunks against a plain
        # step-by-step CF4 Magnus product with scipy's expm
        expm = pytest.importorskip("scipy.linalg").expm
        steps, T = 2 * _CHUNK + 37, 1.3
        h = drive(rng, complex)
        traj = propagate(h, PSI0, T, steps)
        dt = T / steps
        c = math.sqrt(3.0) / 6
        early = h((np.arange(steps) + 0.5 - c) * dt)
        late = h((np.arange(steps) + 0.5 + c) * dt)
        right = expm(-1j * dt * ((0.25 + c) * early + (0.25 - c) * late))
        left = expm(-1j * dt * ((0.25 - c) * early + (0.25 + c) * late))
        psi, expected = PSI0, [PSI0]
        for n in range(steps):
            psi = left[n] @ (right[n] @ psi)
            expected.append(psi)
        assert np.max(np.abs(traj.states - expected)) <= 1e-13


    def test_real_hamiltonian_propagates_like_its_complex_cast(self, rng):
        # the real path over more than two chunks, bit for bit
        steps, T = 2 * _CHUNK + 37, 1.3
        h = drive(rng, float)
        real = propagate(h, PSI0, T, steps)
        cast = propagate(lambda t: h(t).astype(complex), PSI0, T, steps)
        assert same_bits(real.states, cast.states)
        assert real.norm_drift == cast.norm_drift


def in_fresh_thread(fn, *args):
    """fn(*args) in a new thread, whose workspace starts empty."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result(timeout=120)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# (dtype, steps, T, scale): real and complex stacks in turn, each run on the
# workspace a larger or other-dtype run left; the last two take squarings
WARM_RUNS = [
    (complex, 2 * _CHUNK + 37, 1.3, 1.0),
    (float, 100, 1.3, 1.0),
    (complex, 2000, 1.3, 1.0),
    (float, 2 * _CHUNK + 37, 1.3, 1.0),
    (complex, 100, 1.3, 1.0),
    (float, 2000, 1.3, 1.0),
    (complex, 100, 1.0, 20.0),
    (float, 100, 1.0, 20.0),
]


class TestWorkspace:
    def test_warm_calls_equal_cold_calls(self, rng, monkeypatch):
        squarings = []

        def degree(r):
            m, s = _taylor_degree(r)
            squarings.append(s)
            return m, s

        monkeypatch.setattr(propagator, "_taylor_degree", degree)
        for dtype, steps, T, scale in WARM_RUNS:
            h = drive(rng, dtype, scale)
            warm = propagate(h, PSI0, T, steps)
            cold = in_fresh_thread(propagate, h, PSI0, T, steps)
            assert same_bits(warm.states, cold.states)
            assert warm.norm_drift == cold.norm_drift
        assert max(squarings) > 0

    def test_threads_propagate_like_serial_calls(self, rng):
        # more threads than cores, switching often, each with its own stack
        jobs = [
            (drive(rng, complex), 2 * _CHUNK + 37),
            (drive(rng, float), 2 * _CHUNK + 37),
            (drive(rng, complex, 20.0), 2000),
            (drive(rng, float, 20.0), 100),
        ]
        serial = [propagate(h, PSI0, 1.3, steps).states for h, steps in jobs]
        barrier = threading.Barrier(len(jobs))

        def run(h, steps):
            barrier.wait(timeout=60)
            return [propagate(h, PSI0, 1.3, steps).states for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(jobs)) as pool:
                futures = [pool.submit(run, h, steps) for h, steps in jobs]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for expected, runs in zip(serial, results):
            assert all(same_bits(states, expected) for states in runs)

    def test_warm_propagate_allocates_no_kernel_temporaries(self, rng):
        # a warm 2000-step complex run of precomputed stacks, replayed call
        # by call, allocates the trajectory and the Hermiticity check's
        # temporaries; fresh temporaries for every product peaked at 4.3 MB
        h, stack = drive(rng, complex), []

        def record(t):
            stack.append(h(t))
            return stack[-1]

        propagate(record, PSI0, 1.3, 2000)
        replay = iter(stack)
        tracemalloc.start()
        try:
            propagate(lambda t: next(replay), PSI0, 1.3, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_workspace_holds_one_chunk(self, rng):
        # the figure in the module docstring: the most a thread keeps, after
        # runs of both dtypes over several chunks, with up to 4 powers and
        # squarings
        def runs():
            for dtype in (complex, float):
                for T in (1.3, 20.0):
                    propagate(drive(rng, dtype, 20.0), PSI0, T, 2 * _CHUNK + 37)
            return sum(b.nbytes for b in propagator._WORKSPACE.buffers)

        assert in_fresh_thread(runs) == 4_530_176


class TestMemory:
    """propagate and compare_with_analytic hold one chunk of H and of the
    exact evolution, so past the trajectory their memory does not grow with
    the step count (tracemalloc peaks at 100,000 steps: 117.6 and 64.0 MB
    when H and the evolution were evaluated on the whole grid)."""

    STEPS = 100_000

    @pytest.fixture(scope="class")
    def ntype(self):
        sc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "ntype.json")
        solved = solve_ntype(sc.target, sc.T, initial_guess=sc.initial_guess)
        h = _hamiltonian_of_t(solved, sc)
        propagate(h, PSI0, sc.T, 2000)  # this thread's workspace at its size for H
        return sc, solved, h

    def test_propagate_peak_stays_below_20_mb(self, ntype):
        # the trajectory itself is about 14 MB
        sc, _, h = ntype
        tracemalloc.start()
        try:
            propagate(h, PSI0, sc.T, self.STEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

    def test_compare_with_analytic_peak_stays_below_5_mb(self, ntype):
        sc, solved, h = ntype
        traj = propagate(h, PSI0, sc.T, self.STEPS)
        tracemalloc.start()
        try:
            error = compare_with_analytic(traj, solved, sc.phases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert error < 1e-6  # verify's threshold
        assert peak < 5_000_000


def full_matrix_hermitian(h, atol=1e-9):
    """Per sample: |H - H^dag| <= atol over all 16 entries, the full-matrix
    form of the check (False for a non-finite sample)."""
    with np.errstate(invalid="ignore"):
        return np.max(np.abs(h - np.swapaxes(h.conj(), -1, -2)), axis=(-2, -1)) <= atol


# one defect each: NaN or inf in one entry, an asymmetry in one pair, a
# non-real diagonal; the imaginary ones only in complex stacks
DEFECTS = [
    ((3, 1), math.nan),
    ((0, 3), math.nan),
    ((2, 2), math.inf),
    ((1, 1), -math.inf),
    ((0, 2), 2e-9),
    ((2, 0), -2e-9),
]
COMPLEX_DEFECTS = [((1, 3), 2e-9j), ((3, 1), math.nan * 1j), ((2, 2), 1e-9j)]
# within atol = 1e-9: a diagonal entry is off its conjugate by twice its
# imaginary part
TOLERATED = [((0, 2), 5e-10), ((2, 0), -9.9e-10)]
COMPLEX_TOLERATED = [((1, 3), 9.9e-10j), ((3, 3), 4.9e-10j)]


def one_of_each_dtype(real, complex_only):
    return [(float, *d) for d in real] + [(complex, *d) for d in real + complex_only]


class TestCheckHermitian:
    TIMES = np.linspace(0.0, 1.0, 20)

    def stack(self, rng, dtype, entry, value, sample=7):
        h = random_hermitian(rng, 20) if dtype is complex else random_symmetric(rng, 20)
        h = h.astype(dtype)
        h[(sample, *entry)] += value
        return h

    @pytest.mark.parametrize(
        "dtype, entry, value", one_of_each_dtype(DEFECTS, COMPLEX_DEFECTS)
    )
    def test_rejects_one_defect_at_its_time(self, rng, dtype, entry, value):
        h = self.stack(rng, dtype, entry, value)
        assert list(np.flatnonzero(~full_matrix_hermitian(h))) == [7]
        with pytest.raises(InvalidHamiltonianError, match=rf"H\(t={self.TIMES[7]}\)"):
            _check_hermitian(h, self.TIMES)

    @pytest.mark.parametrize(
        "dtype, entry, value", one_of_each_dtype(TOLERATED, COMPLEX_TOLERATED)
    )
    def test_accepts_asymmetry_within_tolerance(self, rng, dtype, entry, value):
        h = self.stack(rng, dtype, entry, value)
        assert np.all(full_matrix_hermitian(h))
        _check_hermitian(h, self.TIMES)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_names_the_first_bad_time(self, rng, dtype):
        h = self.stack(rng, dtype, (1, 0), math.nan, sample=12)
        h[5, 3, 2] += 1e-6
        with pytest.raises(
            InvalidHamiltonianError, match=rf"H\(t={self.TIMES[5]}\) is not finite"
        ):
            _check_hermitian(h, self.TIMES)


class TestScenarios:
    def test_tripod_populations_and_phases(self):
        solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
        ph = phases([math.pi / 3] * 3)
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
        np.testing.assert_allclose(
            traj.populations[-1], [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-6
        )
        # level 1 empties, so the read-out falls back to raw arg(c_k)
        assert not traj.phase_relative_to_ground[-1]
        np.testing.assert_allclose(traj.phases[-1], math.pi / 3, atol=1e-5)

    def test_diamond_final_state(self):
        solved = solve_diamond(
            TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
        )
        ph = phases([0, math.pi / 2, 0])
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
        target = np.array([0, 1, 1j, 0], dtype=complex) / math.sqrt(2)
        assert fidelity(traj.final_state, target) > 1 - 1e-6

    def test_ntype_final_state(self):
        solved = solve_ntype(
            TargetSpec(np.array([0.0, 0, 0, 1])),
            initial_guess=(math.pi / 6, math.pi / 2, -math.pi / 2),
        )
        ph = phases([0, 0, math.pi / 6])
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
        target = np.array([0, 0, 0, np.exp(1j * math.pi / 6)], dtype=complex)
        assert fidelity(traj.final_state, target) > 1 - 1e-6
        # the squared real overlap, which sees the global phase, is near 1 too
        assert np.vdot(target, traj.final_state).real ** 2 > 1 - 1e-5

    def test_phase_readout_relative_while_ground_populated(self):
        solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
        ph = phases([math.pi / 3] * 3)
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=500)
        mid = len(traj.times) // 2
        assert traj.phase_relative_to_ground[mid]


def bundled_run(name):
    """h_of_t, T and steps of the simulate command on a bundled scenario."""
    sc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json")
    return _hamiltonian_of_t(_solve(sc), sc), sc.T, sc.steps


def lab_frame_run():
    """The bundled diamond mapped to lasers at carrier scale 300, in the lab
    frame at 40 steps per period of its fastest field."""
    sc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "diamond.json")
    sched = _solve(sc).schedule
    levels = [w * 0.3 for w in sc.omega_levels]
    qo = engineered_to_qo(lambda t: hr_analytic(sched.value(t), sched.rate(t)), sc.phases, levels)
    steps = math.ceil(40 * max(qo.omega_fields.values()) * sc.T / (2 * math.pi))
    return (lambda t: lab_hamiltonian(qo, t)), sc.T, steps


class TestReadouts:
    """A Trajectory computes its populations and phases when first read."""

    @pytest.fixture
    def readouts(self, monkeypatch):
        calls, readout = [], propagator._phase_readout

        def counted(states):
            calls.append(states)
            return readout(states)

        monkeypatch.setattr(propagator, "_phase_readout", counted)
        return calls

    @pytest.mark.parametrize("first", ["phases", "phase_relative_to_ground"])
    def test_phase_readout_runs_once_on_first_read(self, rng, readouts, first):
        traj = propagate(drive(rng, complex), PSI0, 1.3, 100)
        assert readouts == []
        getattr(traj, first)
        assert len(readouts) == 1 and readouts[0] is traj.states
        for name in ("phases", "phase_relative_to_ground", "populations", first):
            getattr(traj, name)
        assert len(readouts) == 1

    @pytest.mark.parametrize("run", ["tripod", "diamond", "ntype", "lab frame"])
    def test_readouts_equal_the_eager_expressions(self, readouts, run):
        h, T, steps = lab_frame_run() if run == "lab frame" else bundled_run(run)
        traj = propagate(h, PSI0, T, steps)
        assert readouts == []
        states = traj.states.copy()
        phases, relative = _phase_readout(states)
        assert same_bits(traj.populations, np.abs(states) ** 2)
        assert same_bits(traj.phases, phases)
        assert same_bits(traj.phase_relative_to_ground, relative)
        assert same_bits(traj.states, states) and len(readouts) == 1


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(PSI0, PSI0) == 1.0

    def test_orthogonal_states(self):
        e2 = np.array([0, 1.0, 0, 0], dtype=complex)
        assert fidelity(PSI0, e2) == 0.0

    def test_global_phase_handling(self):
        psi = np.exp(1j * 0.9) * PSI0
        assert fidelity(psi, PSI0) == pytest.approx(1.0)
        assert np.vdot(PSI0, psi).real ** 2 == pytest.approx(math.cos(0.9) ** 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            fidelity(2 * PSI0, PSI0)

    def test_accepts_a_state_that_propagate_returned(self):
        # the drift gate and fidelity's input check share one tolerance, so a
        # state past 1e-8 but within the gate's 1e-6 passes both
        h = random_hermitian(np.random.default_rng(0), 1)[0] / 2 * 1e9
        traj = propagate(lambda t: h, PSI0, 1.0, 1000)
        assert 1e-8 < traj.norm_drift <= 1e-6
        assert fidelity(traj.final_state, traj.final_state) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308])
    def test_rejects_non_finite_state(self, bad):
        # fidelity of a NaN state once returned NaN; at 1e308 the norm
        # overflows to inf, rejected with no RuntimeWarning first
        state = np.array([bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="state psi "):
            fidelity(state, PSI0)
        with pytest.raises(ValueError, match="state target "):
            fidelity(PSI0, state)


class TestCompareWithAnalytic:
    @pytest.mark.parametrize(
        "solver_args, eps_prime",
        [
            (("tripod", None), [math.pi / 3] * 3),
            (("diamond", None), [0, math.pi / 2, 0]),
        ],
    )
    def test_worked_scenarios_agree(self, solver_args, eps_prime):
        kind, _ = solver_args
        if kind == "tripod":
            solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
        else:
            solved = solve_diamond(
                TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
            )
        ph = phases(eps_prime)
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
        assert compare_with_analytic(traj, solved, ph) < 1e-6

    def test_random_scenario_agrees(self, rng):
        b = rng.normal(size=4)
        solved = solve_tripod(TargetSpec(b / np.linalg.norm(b)))
        ph = PhaseSchedule(eps=rng.normal(size=3), eps_prime=rng.normal(size=3), T=1.0)
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
        assert compare_with_analytic(traj, solved, ph) < 1e-6
