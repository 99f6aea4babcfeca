"""Reference routines for the benchmark's output checks (numpy only).

These recompute the method's quantities from the quaternion geometry,
independently of the package under test:

    q, p    unit quaternions of the six angles (gamma, theta, phi) x 2
    U_r     = M_L(q) M_R(p)
    U_r e1  = q p
    Omega   = M_L(q' conj(q)) + M_R(conj(p) p'),  the generator U_r' U_r^T
    H       = -diag(0, Delta) + K (i Omega) K^dag,  K = diag(1, e^{i phi_k(t)})

All functions broadcast over leading axes, so a whole time grid is one
call.  Angle arrays hold (gamma1, theta1, phi1, gamma2, theta2, phi2) in
their last axis.
"""

from __future__ import annotations

import numpy as np

#: Upper-triangle (n, m) index pairs, in the order omega12 ... omega34.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
COLUMNS = ("omega12", "omega13", "omega14", "omega23", "omega24", "omega34")

#: Couplings that must vanish for each topology, as column names.
FORBIDDEN = {
    "tripod": ("omega23", "omega24", "omega34"),
    "diamond": ("omega14", "omega23"),
    "ntype": ("omega13", "omega14", "omega24"),
}


def _quat(gamma, theta, phi):
    s = np.sin(gamma)
    return np.stack(
        [
            np.cos(gamma),
            s * np.cos(theta),
            s * np.sin(theta) * np.cos(phi),
            s * np.sin(theta) * np.sin(phi),
        ],
        axis=-1,
    )


def _quat_rate(gamma, theta, phi, dgamma, dtheta, dphi):
    sg, cg = np.sin(gamma), np.cos(gamma)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return np.stack(
        [
            -sg * dgamma,
            cg * ct * dgamma - sg * st * dtheta,
            cg * st * cp * dgamma + sg * ct * cp * dtheta - sg * st * sp * dphi,
            cg * st * sp * dgamma + sg * ct * sp * dtheta + sg * st * cp * dphi,
        ],
        axis=-1,
    )


def quats(angles):
    """(q, p) unit quaternions, each (..., 4) as (w, x, y, z)."""
    a = np.asarray(angles, dtype=float)
    return _quat(a[..., 0], a[..., 1], a[..., 2]), _quat(a[..., 3], a[..., 4], a[..., 5])


def quat_rates(angles, rates):
    """(dq/dt, dp/dt) from the angles and their time derivatives."""
    a = np.asarray(angles, dtype=float)
    r = np.asarray(rates, dtype=float)
    return (
        _quat_rate(a[..., 0], a[..., 1], a[..., 2], r[..., 0], r[..., 1], r[..., 2]),
        _quat_rate(a[..., 3], a[..., 4], a[..., 5], r[..., 3], r[..., 4], r[..., 5]),
    )


def qmul(a, b):
    """Hamilton product of quaternion arrays (..., 4)."""
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(a):
    return np.asarray(a, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def left_matrix(q):
    """M_L(q): the matrix of C -> q C on (w, x, y, z) column vectors."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack(
        [
            np.stack([w, -x, -y, -z], axis=-1),
            np.stack([x, w, -z, y], axis=-1),
            np.stack([y, z, w, -x], axis=-1),
            np.stack([z, -y, x, w], axis=-1),
        ],
        axis=-2,
    )


def right_matrix(p):
    """M_R(p): the matrix of C -> C p on (w, x, y, z) column vectors."""
    w, x, y, z = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    return np.stack(
        [
            np.stack([w, -x, -y, -z], axis=-1),
            np.stack([x, w, z, -y], axis=-1),
            np.stack([y, -z, w, x], axis=-1),
            np.stack([z, y, -x, w], axis=-1),
        ],
        axis=-2,
    )


def evolution(angles):
    """U_r = M_L(q) M_R(p), shape (..., 4, 4)."""
    q, p = quats(angles)
    return left_matrix(q) @ right_matrix(p)


def final_state(angles):
    """U_r e1 = q p, shape (..., 4)."""
    q, p = quats(angles)
    return qmul(q, p)


def generator(angles, rates):
    """Omega = U_r' U_r^T = M_L(q' conj(q)) + M_R(conj(p) p'), (..., 4, 4)."""
    q, p = quats(angles)
    dq, dp = quat_rates(angles, rates)
    return left_matrix(qmul(dq, qconj(q))) + right_matrix(qmul(qconj(p), dp))


def couplings(angles, rates):
    """The six couplings Omega_nm (n < m), shape (..., 6), in COLUMNS order."""
    g = generator(angles, rates)
    return np.stack([g[..., n, m] for n, m in PAIRS], axis=-1)


def cosine_ramp(boundary, T, t):
    """Angles and rates of the cosine-ramp ansatz on the times t.

    gamma_i(t) = gamma_i(T) (1 - cos(pi t / T)) / 2; theta and phi constant.
    """
    b = np.asarray(boundary, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    ramp = 0.5 * (1.0 - np.cos(np.pi * t / T))
    dramp = 0.5 * np.pi / T * np.sin(np.pi * t / T)
    gamma_mask = np.array([1.0, 0, 0, 1.0, 0, 0])
    angles = b * (1 - gamma_mask) + b * gamma_mask * ramp
    rates = b * gamma_mask * dramp
    return angles, rates


def detunings(eps, eps_prime, T):
    return (np.asarray(eps_prime, float) - np.asarray(eps, float)) / T


def engineered_hamiltonian(omega, eps, eps_prime, T, t):
    """H(t) = -diag(0, Delta) + K(t) (i Omega(t)) K(t)^dag, shape (N, 4, 4).

    omega is the (N, 4, 4) generator on the times t (N,); the level phases
    are phi_k(t) = eps_k + Delta_k t with phi_1 = 0.
    """
    delta = detunings(eps, eps_prime, T)
    t = np.asarray(t, dtype=float)
    phases = np.concatenate([np.zeros((t.size, 1)), eps + np.outer(t, delta)], axis=1)
    k = np.exp(1j * phases)
    h = k[:, :, None] * (1j * np.asarray(omega)) * k.conj()[:, None, :]
    h[:, 1:, 1:] -= np.diag(delta)
    return h


def carrier_fields(omega_levels, eps, eps_prime, T):
    """Laser frequencies that put -Delta_k on the RWA diagonal of a diamond.

    Returns the dict for transitions 12, 13, 24, 34; 34 is fixed by the
    four-photon resonance omega_13 + omega_34 = omega_12 + omega_24.
    """
    w2, w3, w4 = np.asarray(omega_levels, dtype=float)
    d2, d3, d4 = detunings(eps, eps_prime, T)
    return {
        "12": w2 + d2,
        "13": w3 + d3,
        "24": w4 + d4 - w2 - d2,
        "34": w4 + d4 - w3 - d3,
    }
