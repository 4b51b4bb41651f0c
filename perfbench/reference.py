"""Independent numpy model of the plant and the correctness checks.

Nothing here imports armcal: the checks compare the program's artifacts
against this re-implementation of the semi-implicit Euler plant and planar
forward kinematics, or test a property the method must have. They never
compare against stored output. Each check returns a list of failure
messages; an empty list means the check passed.

The constants are the CLI defaults the workloads run with.
"""

import csv
import io
import json
import math

import numpy as np

DT = 0.01
SUBSTEPS = 5
EPS_V = 0.01
LINKS = np.array([1.0, 1.0])
INV_INERTIA = np.array([1.0, 1.0])
LOWS = np.array([0.0, 1.0, 0.1])
HIGHS = np.array([10.0, 500.0, 50.0])
HOLDOUT_FRACTION = 0.25
GOAL = np.array([1.2, 0.8])

# a noise-free grad fit must match the truth to this relative error
GRAD_RECOVERY_TOL = 1e-9
# central-difference step in bound-scaled coordinates, and the largest
# projected gradient allowed at a stationary point, relative to the gradient
# at the bounds midpoint where the fit starts
STATIONARY_H = 1e-6
STATIONARY_REL_TOL = 1e-6
# the report CSV writes errors with 6 decimals
CSV_TOL = 5e-7 + 1e-12


def step(fpd, q, qd, target):
    """One control step of every row: SUBSTEPS semi-implicit Euler substeps
    of tau = p (target - q) - d qd - f tanh(qd / eps_v)."""
    f, p, d = (float(v) for v in fpd)
    q = np.array(q, dtype=float)
    qd = np.array(qd, dtype=float)
    for _ in range(SUBSTEPS):
        tau = p * (target - q) - d * qd - f * np.tanh(qd / EPS_V)
        qd = qd + DT * tau * INV_INERTIA
        q = q + DT * qd
    return q, qd


def fk(q):
    """Planar end-effector positions (..., 2) and orientations (...,)."""
    theta = np.cumsum(np.asarray(q, dtype=float), axis=-1)
    pos = np.stack([np.sum(LINKS * np.cos(theta), axis=-1),
                    np.sum(LINKS * np.sin(theta), axis=-1)], axis=-1)
    return pos, theta[..., -1]


def pose_errors(q_a, q_b):
    """Mean translation and rotation error between two (T, N) sequences."""
    pa, aa = fk(q_a)
    pb, ab = fk(q_b)
    trans = float(np.mean(np.linalg.norm(pa - pb, axis=1)))
    rot = float(np.mean(np.arcsin(np.clip(np.abs(np.sin((aa - ab) / 2.0)),
                                          0.0, 1.0))))
    return trans, rot


# --- episodes ----------------------------------------------------------------

def parse_episodes(text):
    """List of (actions (T, N), observed q (T+1, N), observed qd (T+1, N))
    from the text of episodes.json."""
    return [(np.array(e["actions"], dtype=float),
             np.array(e["observed_q"], dtype=float),
             np.array(e["observed_qd"], dtype=float))
            for e in json.loads(text)["episodes"]]


def split_holdout(episodes):
    """The CLI's split: the last round(n * 0.25) episodes (at least one) are
    held out for evaluation, the rest are fitted."""
    n = len(episodes)
    n_eval = max(1, int(round(n * HOLDOUT_FRACTION)))
    if n_eval >= n:
        return episodes, episodes
    return episodes[:n - n_eval], episodes[n - n_eval:]


def one_step_rows(episodes):
    q = np.vstack([e[1][:-1] for e in episodes])
    qd = np.vstack([e[2][:-1] for e in episodes])
    a = np.vstack([e[0] for e in episodes])
    nq = np.vstack([e[1][1:] for e in episodes])
    nqd = np.vstack([e[2][1:] for e in episodes])
    return q, qd, a, nq, nqd


def trajectory_error(fpd, episodes):
    """Open-loop rollout of every episode from its observed first state;
    mean translation plus mean rotation error against the observations."""
    trans, rot = [], []
    for actions, oq, oqd in episodes:
        q, qd = oq[:1], oqd[:1]
        sim = [q[0]]
        for a in actions:
            q, qd = step(fpd, q, qd, a[None, :])
            sim.append(q[0])
        t, r = pose_errors(np.array(sim), oq)
        trans.append(t)
        rot.append(r)
    return float(np.mean(trans)) + float(np.mean(rot))


def replay_energy(fpd, rows):
    """Pose error of the teacher-forced one-step predictions."""
    q, qd, a, nq, _ = rows
    pq, _ = step(fpd, q, qd, a)
    trans, rot = pose_errors(pq, nq)
    return trans + rot


def one_step_cost(fpd, rows):
    """Sum of squared one-step residuals over (q, qd)."""
    q, qd, a, nq, nqd = rows
    pq, pqd = step(fpd, q, qd, a)
    return float(np.sum((pq - nq) ** 2) + np.sum((pqd - nqd) ** 2))


def projected_gradient(u, rows):
    """Central-difference gradient of one_step_cost in bound-scaled
    coordinates u, with the components that point out of the box at an
    active bound set to zero."""
    span = HIGHS - LOWS
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = STATIONARY_H
        up, dn = np.clip(u + e, 0, 1), np.clip(u - e, 0, 1)
        g[i] = (one_step_cost(LOWS + up * span, rows)
                - one_step_cost(LOWS + dn * span, rows)) / (up[i] - dn[i])
    g[(u <= 0.0) & (g > 0)] = 0.0
    g[(u >= 1.0) & (g < 0)] = 0.0
    return g


# --- artifacts -----------------------------------------------------------------

def parse_params(text):
    doc = json.loads(text)
    return np.array([doc["f"], doc["p"], doc["d"]], dtype=float)


def parse_report(text):
    """identify_report.csv rows keyed by method."""
    return {row["method"]: row for row in csv.DictReader(io.StringIO(text))}


def parse_curve(text):
    """The value column of a step,value CSV."""
    return [float(row["value"]) for row in csv.DictReader(io.StringIO(text))]


# --- checks ----------------------------------------------------------------------

def check_bounds(method, fpd):
    if not np.all(np.isfinite(fpd)) or np.any(fpd < LOWS) or np.any(fpd > HIGHS):
        return [f"{method}: parameters {fpd.tolist()} outside the bounds"]
    return []


def check_traj_err(method, fpd, report, eval_eps):
    row = report.get(method)
    if row is None:
        return [f"{method}: no report row"]
    mine = trajectory_error(fpd, eval_eps)
    if not abs(float(row["traj_err"]) - mine) <= CSV_TOL:
        return [f"{method}: reported traj_err {row['traj_err']} but the "
                f"open-loop recomputation gives {mine:.9f}"]
    return []


def check_sa(fpd, report, episodes):
    fit, held = split_holdout(episodes)
    rows = one_step_rows(fit)
    out = check_bounds("sa", fpd) + check_traj_err("sa", fpd, report, held)
    e_fit = replay_energy(fpd, rows)
    e_mid = replay_energy((LOWS + HIGHS) / 2.0, rows)
    if not e_fit <= e_mid * (1 + 1e-12):
        out.append(f"sa: replay energy {e_fit!r} at the result exceeds "
                   f"{e_mid!r} at the bounds midpoint, where it starts")
    return out


def check_grad(fpd, report, episodes, truth, noisy):
    fit, held = split_holdout(episodes)
    out = check_bounds("grad", fpd) + check_traj_err("grad", fpd, report, held)
    if not noisy:
        rel = np.abs(fpd - truth) / np.abs(truth)
        if not np.all(rel <= GRAD_RECOVERY_TOL):
            out.append(f"grad: relative error {rel.tolist()} against the "
                       f"noise-free truth exceeds {GRAD_RECOVERY_TOL}")
        return out
    rows = one_step_rows(fit)
    span = HIGHS - LOWS
    g_fit = projected_gradient((fpd - LOWS) / span, rows)
    g_mid = projected_gradient(np.full(3, 0.5), rows)
    if not np.max(np.abs(g_fit)) <= STATIONARY_REL_TOL * np.max(np.abs(g_mid)):
        out.append(f"grad: projected gradient {g_fit.tolist()} of the one-step "
                   f"cost is not stationary (midpoint {g_mid.tolist()})")
    return out


def check_surrogate(fpd, report, episodes, losses, checkpoint_bytes,
                    reserialised_bytes):
    _, held = split_holdout(episodes)
    out = check_bounds("surrogate", fpd)
    out += check_traj_err("surrogate", fpd, report, held)
    if len(losses) < 2 or not losses[-1] < losses[0]:
        out.append(f"surrogate: training loss did not fall "
                   f"({losses[:1]} -> {losses[-1:]})")
    if checkpoint_bytes != reserialised_bytes:
        out.append("surrogate: checkpoint does not re-serialise byte-identically")
    return out


def check_tpo(cycles, policy_doc):
    out = []
    if not cycles:
        out.append("tpo: empty report")
    floor = -(float(np.sum(LINKS)) + float(np.linalg.norm(GOAL)))
    for c in cycles:
        if not abs(c["loss_first"] - math.log(2.0)) <= 1e-12:
            out.append(f"tpo: cycle {c['cycle']} loss_first {c['loss_first']!r} "
                       f"is not ln 2")
        if not c["loss_last"] < c["loss_first"]:
            out.append(f"tpo: cycle {c['cycle']} loss did not fall")
        for key in ("mean_reward_before", "mean_reward_after"):
            if not floor <= c[key] <= 0.0:
                out.append(f"tpo: cycle {c['cycle']} {key} {c[key]!r} outside "
                           f"[{floor}, 0]")
    dims = policy_doc["layer_dims"]
    for i, (W, b) in enumerate(zip(policy_doc["weights"], policy_doc["biases"])):
        W, b = np.array(W, dtype=float), np.array(b, dtype=float)
        if W.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
            out.append(f"tpo: policy layer {i} has the wrong shape")
        elif not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            out.append(f"tpo: policy layer {i} has non-finite weights")
    if len(policy_doc["weights"]) != len(dims) - 1:
        out.append("tpo: policy layer count does not match layer_dims")
    return out
