"""Schrodinger-equation propagation for time-dependent 4x4 Hamiltonians.

Fourth-order commutator-free Magnus integrator: each step applies two
matrix exponentials of Gauss-node-sampled Hamiltonian combinations H.
Each exp(-i dt H) is a Taylor polynomial of degree at most 12, with
scaling and squaring, evaluated by Paterson-Stockmeyer on stacks of 4x4
matrices stored as (4, 4, n) arrays, so that a complex stacked product is
four broadcast multiply-adds.  A real symmetric H (real dtype) keeps its
powers and Horner stage in real arithmetic, whose products go through
np.einsum.  The truncation error is below 2^-53, so each step map is
unitary to rounding and the norm is conserved to machine precision.

propagate runs the steps in chunks of _CHUNK.  Per chunk it evaluates H
on that chunk's Gauss nodes only, checks them, takes the exponentials and
scans the states, so H, the kernel and the checks hold one chunk and only
the trajectory grows with the step count (a Magnus step needs H only at
its own nodes: Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151).
compare_with_analytic evaluates the exact evolution over chunks of the
same size.  A Trajectory computes its readouts when they are first read.

The step kernel (_matmul, _taylor, _step_exponentials, _scan and the
Magnus product between them) allocates no stack-sized array after its
first call on a thread: its powers, accumulators, product terms,
squarings and scan blocks are views into a workspace that each thread
keeps for its life (threading.local).  The workspace is a few flat
float64 buffers, each grown only when a larger stack arrives; through
propagate it holds one _CHUNK chunk at most, 4,530,176 bytes (4.3 MiB)
per thread.  It stays resident because a fresh temporary of this size
comes back from the allocator as untouched pages, a minor page fault per
4 KiB at about 2-3 us each (2-core VM): with fresh temporaries the kernel
took 4,280 of the 7,372 faults of a warm in-process round of the ten
bundled CLI commands.  The products and sums run in the same order either
way, so the states are the same bit for bit.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .hamiltonian import analytic_evolution
from .rotation import _UPPER, _check_horizon

DEFAULT_STEPS = 2000
NORM_TOL = 1e-6  # the largest | |psi| - 1 | that propagate returns and fidelity accepts
_CHUNK = 1024  # steps per chunk: bounds H, the exponentials, the scan and the reference
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_W_PLUS = 0.25 + _GAUSS_OFFSET
_W_MINUS = 0.25 - _GAUSS_OFFSET
_NODES = np.array([0.5 - _GAUSS_OFFSET, 0.5 + _GAUSS_OFFSET])  # in units of a step
# (early, late) node values @ _WEIGHTS = (right, left) Magnus factor exponents:
# the right factor weights the early node
_WEIGHTS = np.array([[_W_PLUS, _W_MINUS], [_W_MINUS, _W_PLUS]])


class InvalidHamiltonianError(ValueError):
    pass


class AccuracyError(RuntimeError):
    pass


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # (n,)
    states: np.ndarray  # (n, 4) complex
    norm_drift: float
    # computed when first read: populations (n, 4), phases (n, 3) of levels 2..4, the (n,) flag
    populations = cached_property(lambda self: np.abs(self.states) ** 2)
    _readout = cached_property(lambda self: _phase_readout(self.states))
    phases = property(lambda self: self._readout[0])
    phase_relative_to_ground = property(lambda self: self._readout[1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _check_hermitian(h: np.ndarray, times: np.ndarray, atol: float = 1e-9) -> None:
    """Raise for the first sample of h (n, 4, 4) that is not finite and Hermitian.

    Compares the six upper entries with the conjugated lower ones and, for
    a complex stack, the diagonal with its conjugate.
    """
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite sample
        gap = np.abs(h[:, _UPPER[0], _UPPER[1]] - h[:, _UPPER[1], _UPPER[0]].conj())
    asymmetry = np.max(gap, axis=-1)
    if np.iscomplexobj(h):
        diagonal = h[:, range(4), range(4)].imag
        asymmetry = np.maximum(asymmetry, 2.0 * np.max(np.abs(diagonal), axis=-1))
    bad = ~(asymmetry <= atol) | ~np.all(np.isfinite(h), axis=(-2, -1))
    if np.any(bad):
        raise InvalidHamiltonianError(
            f"H(t={times[np.argmax(bad)]}) is not finite and Hermitian within {atol}"
        )


# Workspace slots.  _step_exponentials leaves its result in _ACC, _SPARE,
# _X or the first power slot; the Magnus product then overwrites _STACK,
# whose H stack is spent.  _TERM holds nothing between products.
_STACK, _X, _TERM, _ACC, _SPARE, _PREFIX, _STEP, _STATES = range(8)
_POWERS = (8, 9, 10)  # X^2..X^p, p <= 4


class _Workspace(threading.local):
    """The step kernel's scratch arrays, one set per thread, kept between
    calls.  Each slot is a flat float64 buffer."""

    def __init__(self):
        self.buffers = [np.empty(0)] * (max(_POWERS) + 1)

    def view(self, slot: int, shape: tuple, dtype) -> np.ndarray:
        """A C-ordered array of this shape and dtype at the head of the slot's
        buffer, which grows only when it is too small; its values are stale."""
        size = math.prod(shape) * np.dtype(dtype).itemsize // 8
        if self.buffers[slot].size < size:
            self.buffers[slot] = np.empty(size)
        return self.buffers[slot][:size].view(dtype).reshape(shape)


_WORKSPACE = _Workspace()


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Products of two stacks of 4x4 matrices in the (4, 4, ...) layout,
    written to out through the term buffer; neither may overlap a or b.
    Each entry sums its products in k order: four broadcast multiply-adds,
    or for a real stack np.einsum (88 against 129 us at 2048 matrices), whose
    sums start from +0.0, so a result with a zero (where four -0.0 products
    give -0.0) is redone.  A zero in the first matrices' product is taken for
    a zero of the stack's structure, which every product holds: no einsum."""
    if out.dtype == float and _REAL_EINSUM:
        if (a.reshape(4, 4, -1)[..., 0] @ b.reshape(4, 4, -1)[..., 0]).all():
            np.einsum("ik...,kj...->ij...", a, b, out=out)
            if out.all():  # a buffered reduction, no stack-sized temporary
                return out
    np.multiply(a[:, 0, None], b[0], out=out)
    for k in range(1, 4):
        out += np.multiply(a[:, k, None], b[k], out=term)
    return out


# Real stacks take np.einsum only if, on a probe of 67 matrices (a SIMD body and
# a tail), it rounds each product before adding in k order (aarch64's fuses them).
_PROBE = tuple(f(np.arange(1.0, 1073.0)).reshape(4, 4, 67) for f in (np.cos, np.sin))
_REAL_EINSUM = np.einsum("ik...,kj...->ij...", *_PROBE).tobytes() == sum(
    _PROBE[0][:, k, None] * _PROBE[1][k] for k in range(4)
).tobytes()


# The squarings leave each step map unitary to about 1e-15 dt |H|: past this
# step norm, the fewest steps allowed (100) would exceed the norm-drift gate.
_MAX_STEP_NORM = 1e8


def _taylor_degree(r: float) -> tuple[int, int]:
    """The smallest squaring count s, then the smallest degree m <= 12, with
    the Taylor remainder bound x^(m+1)/(m+1)! e^x <= 2^-53 at x = r / 2^s."""
    if not math.isfinite(r):
        raise InvalidHamiltonianError("dt * |H| overflows; H is too large")
    if r > _MAX_STEP_NORM:
        raise AccuracyError(
            f"dt * |H| = {r:.3e} exceeds {_MAX_STEP_NORM:.0e}; increase the step count"
        )
    # no degree suffices at x >= 2 (nor at x > 0.33), so start from x < 4
    s = max(0, math.frexp(r)[1] - 2)
    while True:
        x = r / 2.0**s
        for m in range(1, 13):
            if x ** (m + 1) / math.factorial(m + 1) * math.exp(x) <= 2.0**-53:
                return m, s
        s += 1


def _taylor(x: np.ndarray, m: int, parts: int, coefficient) -> list[np.ndarray]:
    """sum_{k <= m} c_k x^k for a stack x, its terms split over several parts.

    coefficient(k) gives the part that takes the term of degree k and c_k.
    Paterson-Stockmeyer: with p = ceil(sqrt(m)) this takes the powers
    x^2..x^p and runs Horner's rule in x^p over blocks of p terms, top block
    first.  Each part is one accumulator, a view into the workspace.
    """
    ws = _WORKSPACE
    term = ws.view(_TERM, x.shape, x.dtype)
    p = math.isqrt(m - 1) + 1
    powers = [None, x]  # x^1..x^p; x^0 goes on the diagonal
    for slot in _POWERS[: p - 1]:
        powers.append(_matmul(powers[-1], x, ws.view(slot, x.shape, x.dtype), term))
    q, rem = divmod(m, p)
    top = []
    if not rem:  # the top block is c_m x^0 alone: c_m x^p heads the block below
        q, top = q - 1, [(p, m)]
    acc = ws.view(_ACC, (parts, *x.shape), x.dtype)
    acc.fill(0.0)
    acc, spare = list(acc), list(ws.view(_SPARE, (parts, *x.shape), x.dtype))
    for j in range(q, -1, -1):
        if j < q:
            for n in range(parts):
                acc[n], spare[n] = _matmul(acc[n], powers[p], spare[n], term), acc[n]
        block = [(i, j * p + i) for i in range(1, min(p, m - j * p + 1))]
        for i, k in (top if j == q else []) + block:
            part, c = coefficient(k)
            acc[part] += np.multiply(powers[i], c, out=term)
        part, c = coefficient(j * p)
        for d in range(4):
            acc[part][d, d] += c
    return acc


def _step_exponentials(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for a Hermitian stack H in the (4, 4, ...) layout.

    r is the largest Frobenius norm of dt H, and _taylor_degree gives the
    degree m and the squaring count s.  A complex H takes the Taylor
    polynomial sum_k X^k / k! of X = -i dt H / 2^s.  A real symmetric H
    keeps its powers real: the terms (-i)^k Y^k / k! of Y = dt H / 2^s go
    to the even part C and the odd part S in real products, with Horner's
    rule in Y^p, and exp(-iY) = C - iS, equal to the complex result bit for
    bit.  The result is squared s times.  It is a view into this thread's
    workspace, valid until the kernel's next call on the thread.
    """
    ws = _WORKSPACE
    x = ws.view(_X, h.shape, h.dtype)
    with np.errstate(over="ignore"):  # an overflow is rejected below
        # np.linalg.norm(h, axis=(0, 1)): the same operations, in x
        conj = np.conjugate(h, out=x) if np.iscomplexobj(h) else h
        square = np.multiply(conj, h, out=x).real
        r = dt * float(np.max(np.sqrt(np.add.reduce(square, axis=(0, 1)))))
    m, s = _taylor_degree(r)
    if np.iscomplexobj(h):
        x = np.multiply(h, -1j * dt / 2.0**s, out=x)
        (e,) = _taylor(x, m, 1, lambda k: (0, 1.0 / math.factorial(k)))
        spare = ws.view(_X, h.shape, complex)  # x is spent
    else:
        # (-i)^k = (-1)^(k // 2) for even k, -i (-1)^(k // 2) for odd k
        c, odd = _taylor(
            np.multiply(h, dt / 2.0**s, out=x),
            m,
            2,
            lambda k: (k % 2, (-1.0 if k % 4 > 1 else 1.0) / math.factorial(k)),
        )
        e = ws.view(_X, h.shape, complex)  # x is spent, and so are its powers
        e.real = c
        np.subtract(0.0, odd, out=e.imag)  # 0 - S, not -S: a zero of S is +0.0, as on the complex path
        spare = ws.view(_POWERS[0], h.shape, complex)
    term = ws.view(_TERM, h.shape, complex)
    for _ in range(s):
        e, spare = _matmul(e, e, spare, term), e
    return e


def _scan(maps: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The states (n, 4) maps[k] ... maps[0] psi, k < n, of a (4, 4, n) stack.

    Blocks of about sqrt(n) steps are multiplied out side by side, then the
    block starts are chained: about 2 sqrt(n) Python iterations in place of n.
    The states are a view into this thread's workspace, valid until the
    kernel's next call on the thread.
    """
    ws = _WORKSPACE
    n = maps.shape[-1]
    size = math.isqrt(n - 1) + 1
    blocks = -(-n // size)
    # prefix[:, :, j, i]: the product of maps i, ..., 0 of block j; the zero
    # padding only feeds states past n
    prefix = ws.view(_PREFIX, (4, 4, blocks * size), complex)
    prefix[..., :n] = maps
    prefix[..., n:] = 0.0
    prefix = prefix.reshape(4, 4, blocks, size)
    step = ws.view(_STEP, (4, 4, blocks), complex)
    term = ws.view(_TERM, (4, 4, blocks), complex)
    for i in range(1, size):
        prefix[..., i] = _matmul(prefix[..., i], prefix[..., i - 1], step, term)
    starts = np.empty((4, blocks), dtype=complex)
    starts[:, 0] = psi
    for j in range(1, blocks):
        starts[:, j] = prefix[:, :, j - 1, -1] @ starts[:, j - 1]
    # from zero, as sum() did: a -0.0 term then sums to +0.0
    states = ws.view(_STATES, (4, blocks, size), complex)
    states.fill(0.0)
    term = ws.view(_TERM, (4, blocks, size), complex)
    for k in range(4):
        states += np.multiply(prefix[:, k], starts[k, :, None], out=term)
    return states.reshape(4, -1)[:, :n].T


def _phase_readout(states: np.ndarray):
    """Relative phases of levels 2..4, referenced to level 1 when populated."""
    c1 = states[:, 0]
    relative = np.abs(c1) > 1e-8
    ref = np.where(relative, np.angle(np.where(relative, c1, 1.0)), 0.0)
    phases = np.angle(states[:, 1:]) - ref[:, None]
    phases = np.mod(phases + np.pi, 2 * np.pi) - np.pi
    return phases, relative


def _check_steps(steps) -> None:
    """The one test of a step count, for propagate and Scenario: an integer of at least 100."""
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 100:
        raise ValueError(f"steps must be an integer of at least 100, got {steps!r}")


def propagate(
    h_of_t: Callable[[np.ndarray], np.ndarray],
    psi0: np.ndarray,
    T: float,
    steps: int = DEFAULT_STEPS,
) -> Trajectory:
    """Integrate i d/dt psi = H(t) psi from 0 to T on a uniform grid.

    The steps run in chunks of _CHUNK.  h_of_t is called once per chunk,
    in time order, on the array of that chunk's 2 * (hi - lo) Gauss nodes
    (2 * _CHUNK, fewer in the last chunk); its result must broadcast to
    (2 * (hi - lo), 4, 4), so a constant Hamiltonian may return one 4x4
    matrix.  So every node is evaluated once, and memory beyond the
    trajectory does not grow with steps.  A real result (a real symmetric
    H) stays real up to the step exponentials, and gives the same states,
    bit for bit, as its complex cast.  Each chunk is checked before its
    exponentials.  Then both Magnus factors of every step of the chunk come
    from one stacked Taylor exponential, and the states from a blocked scan
    of the step maps, in this thread's workspace.
    """
    _check_steps(steps)
    _check_horizon(T)
    psi = np.asarray(psi0, dtype=complex).copy()
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected here
        if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:  # True for NaN
            raise ValueError(f"initial state psi0 must be finite and normalized, got {psi0}")

    dt = T / steps
    times = np.linspace(0.0, T, steps + 1)
    states = np.empty((steps + 1, 4), dtype=complex)
    states[0] = psi
    ws = _WORKSPACE
    for lo in range(0, steps, _CHUNK):
        hi = min(lo + _CHUNK, steps)
        nodes = (times[lo:hi, None] + _NODES * dt).ravel()
        h = np.asarray(h_of_t(nodes))
        h = h.astype(float if h.dtype.kind in "biuf" else complex, copy=False)
        h = np.broadcast_to(h, (2 * (hi - lo), 4, 4))
        _check_hermitian(h, nodes)
        # (4, 4, step, early/late node) of this chunk
        pair = np.moveaxis(h, 0, -1).reshape(4, 4, hi - lo, 2)
        weighted = np.matmul(pair, _WEIGHTS, out=ws.view(_STACK, pair.shape, h.dtype))
        right, left = np.moveaxis(_step_exponentials(weighted, dt), -1, 0)
        shape = (4, 4, hi - lo)
        maps = _matmul(left, right, ws.view(_STACK, shape, complex), ws.view(_TERM, shape, complex))
        states[lo + 1 : hi + 1] = _scan(maps, states[lo])

    norms = np.linalg.norm(states, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= NORM_TOL:
        raise AccuracyError(
            f"norm drift {drift:.3e} exceeds {NORM_TOL:.0e}; increase the step count"
        )
    return Trajectory(times=times, states=states, norm_drift=drift)


def fidelity(psi: np.ndarray, target: np.ndarray) -> float:
    """|<target|psi>|^2 between two states normalized within NORM_TOL,
    blind to a global phase."""
    psi = np.asarray(psi, dtype=complex)
    target = np.asarray(target, dtype=complex)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected here
        for name, v in (("psi", psi), ("target", target)):
            if not abs(np.linalg.norm(v) - 1.0) <= NORM_TOL:  # True for NaN
                raise ValueError(f"state {name} must be finite and normalized, got {v}")
    return float(min(abs(np.vdot(target, psi)) ** 2, 1.0))


def compare_with_analytic(traj: Trajectory, solved, ph) -> float:
    """Max deviation over the grid between the integrated trajectory and
    the exact evolution K(t) U_r(t) K(0)^dag applied to the initial state.

    The evolution is evaluated on _CHUNK samples at a time, and the result
    is the largest of the per-chunk maxima (NaN if any deviation is NaN).
    """
    psi0, worst = traj.states[0], []
    for lo in range(0, len(traj.times), _CHUNK):
        ref = analytic_evolution(solved, ph, traj.times[lo : lo + _CHUNK]) @ psi0
        worst.append(np.max(np.linalg.norm(traj.states[lo : lo + _CHUNK] - ref, axis=-1)))
    return float(np.max(worst))
