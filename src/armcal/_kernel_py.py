"""Numpy integration kernel.

Advance a batch of joint states through ``n_sub`` semi-implicit Euler
substeps of a PD-controlled arm with smoothed Coulomb friction, in place,
optionally carrying forward-mode sensitivities of the state with respect to
the per-row physical parameters through the same substeps.
"""

import numpy as np

BACKEND_NAME = "python"


def substep_batch(q, qd, target, f, p, d, inv_inertia, dt, n_sub, eps_v,
                  sens=None):
    """Advance a batch of states in place.

    q, qd, target : (B, N) float64, C-contiguous
    f, p, d       : (B,) float64, per-row physical parameters
    inv_inertia   : (N,) float64
    dt            : substep duration
    n_sub         : number of substeps
    eps_v         : velocity scale of the tanh friction smoothing
    sens          : optional pair (sq, sqd) of (3, B, N) float64 arrays holding
                    d q / d(f, p, d) and d qd / d(f, p, d); advanced in place
                    by the tangent of each substep. The state update is the
                    same arithmetic with or without it.
    """
    # Operands at the state's (B, N) shape, so that each ufunc runs one inner
    # loop over B * N elements rather than B loops over N.
    fc, pc, dc = (np.repeat(v, q.shape[1]).reshape(q.shape) for v in (f, p, d))
    inv_inertia = np.broadcast_to(inv_inertia, q.shape).copy()
    # Per-substep arrays, allocated once per call and written in place.
    fric, tau, scratch = np.empty_like(q), np.empty_like(q), np.empty_like(q)
    for _ in range(n_sub):
        np.tanh(np.divide(qd, eps_v, out=fric), out=fric)  # tanh(qd / eps_v)
        if sens is not None:
            sq, sqd = sens
            # d tau / d(f, p, d): the chain through q and qd, then the
            # explicit dependence on each parameter
            dtau = -pc * sq - (dc + fc * (1.0 - fric * fric) / eps_v) * sqd
            dtau[0] -= fric
            dtau[1] += target - q
            dtau[2] -= qd
            sqd += dt * dtau * inv_inertia
            sq += dt * sqd
        # tau = p * (target - q) - d * qd - f * fric
        np.multiply(pc, np.subtract(target, q, out=tau), out=tau)
        tau -= np.multiply(dc, qd, out=scratch)
        tau -= np.multiply(fc, fric, out=scratch)
        # qd += dt * tau * inv_inertia
        np.multiply(dt, tau, out=tau)
        qd += np.multiply(tau, inv_inertia, out=tau)
        q += np.multiply(dt, qd, out=scratch)  # q += dt * qd
