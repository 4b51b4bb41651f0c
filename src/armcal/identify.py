"""Parameter identification: Levenberg-Marquardt on the differentiable plant
and through a frozen MLP surrogate, a Metropolis simulated-annealing baseline
over true-simulator replays, and open-loop evaluation.

Both differentiable routes fit (f, p, d) with one damped Gauss-Newton loop
(_levenberg_marquardt) in the bound-scaled coordinates of ParamBounds.to_unit.
The plant route ("grad") differentiates the simulator itself: forward-mode
sensitivities of the teacher-forced one-step predictions give the exact
Jacobian of the residuals, so LM needs a few dozen batched kernel calls.
Annealing pays for a replay at every one of its 400 steps: one batched kernel
call and the forward kinematics of the predicted poses, scored against
observed poses computed once. Forward kinematics and the pose errors add
column by column over all rows, not one short reduction per row. The
surrogate route ("surrogate") fits the frozen network's one-step residuals
and touches the simulator only through the dataset that network was trained
on beforehand, whose cost identification does not pay. LM asks for a
Jacobian only at the points it steps from.
"""

from dataclasses import dataclass, field

import numpy as np

from . import datagen, surrogate
from .metrics import TrajErrorReport
from .plant import (ParamBounds, PhysParams, PlantConfig, fk_positions,
                    rollout_batch, step_batch_sensitivities)


# Iteration cap, and the stopping tolerance: the run ends once an accepted
# step moves no bound-scaled coordinate by more than LM_TOL. The surrogate
# route's RefineConfig.max_steps and convergence_tol default to them.
LM_MAX_ITERATIONS = 100
LM_TOL = 1e-10
# Marquardt damping factor on diag(J^T J): divided by 10 after an accepted
# step (never below the smallest normal double), multiplied by 10 after a
# rejected one. Past the ceiling no step lowers the cost and the run ends.
LM_INITIAL_DAMPING = 1e-3
LM_MAX_DAMPING = 1e12
# A run from the bounds midpoint can stop at a stationary point that is not
# the least-squares minimum, with f off. When it ends with more than
# LM_RESTART_REL_COST of its starting cost left, LM also runs from these
# bound-scaled f values, with p and d at the midpoint, and the lowest final
# cost wins.
LM_RESTART_F = (0.3, 0.7)
LM_RESTART_REL_COST = 1e-20


@dataclass(frozen=True)
class RefineConfig:
    max_steps: int = LM_MAX_ITERATIONS
    convergence_tol: float = LM_TOL
    bounds: ParamBounds = field(default_factory=ParamBounds)

    def __post_init__(self):
        if self.max_steps < 1 or not self.convergence_tol >= 0:
            raise ValueError("invalid refinement configuration")


@dataclass(frozen=True)
class AnnealConfig:
    steps: int = 400
    initial_temperature: float = 1.0
    cooling_gamma: float = 0.99
    proposal_frac: float = 0.1  # proposal std as a fraction of each bound range
    seed: int = 0
    bounds: ParamBounds = field(default_factory=ParamBounds)

    def __post_init__(self):
        if self.steps < 1 or not (0 < self.cooling_gamma < 1):
            raise ValueError("invalid annealing configuration")
        if self.initial_temperature <= 0:
            raise ValueError("temperature must be positive")
        if not self.proposal_frac > 0:  # <= 0 never moves or flips the sign
            raise ValueError("proposal_frac must be positive")


@dataclass(frozen=True)
class IdentifyReport:
    method: str
    params: PhysParams
    trajectory_error: float
    rotation_error: float
    translation_error: float
    wall_clock_seconds: float
    param_recovery_error: tuple = None  # per-coordinate relative error vs truth


# --- shared plumbing ---------------------------------------------------------

def planar_pose_errors(q_pred_seq, q_obs_seq, cfg):
    """Mean translation and rotation error between two (T, N) joint-angle
    sequences, through planar forward kinematics.

    For rotations about a single fixed axis the Frobenius-norm identity
    ||Rz(a) - Rz(b)||_F = 2*sqrt(2)*|sin((a-b)/2)| makes the arcsin metric
    computable from the cumulative angles directly. Tests pin this against
    the matrix-based metrics module.
    """
    return _pose_errors(fk_positions(q_pred_seq, cfg),
                        fk_positions(q_obs_seq, cfg))


def _pose_errors(pred, obs):
    """planar_pose_errors between two (positions, angles) pairs of
    fk_positions."""
    (pos_p, ang_p), (pos_o, ang_o) = pred, obs
    # the Euclidean norm of each row, its three squares added column by
    # column in the order of numpy's reduction along the row
    sq = pos_p - pos_o
    sq *= sq
    trans = float(np.mean(np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])))
    arg = np.clip(np.abs(np.sin((ang_p - ang_o) / 2.0)), 0.0, 1.0)
    rot = float(np.mean(np.arcsin(arg)))
    return trans, rot


def make_replay_energy(episodes, plant_cfg):
    """Annealing energy: trajectory error of a teacher-forced one-step replay
    of every episode under the candidate parameters. The episode tensors and
    the poses of the observed next states are computed once and captured, so
    a call is one kernel call and one forward kinematics."""
    q, qd, acts, nq, _ = datagen.episode_arrays(episodes)
    observed = fk_positions(nq, plant_cfg)

    def energy(fpd):
        rows = np.broadcast_to(np.asarray(fpd, dtype=float), (len(q), 3))
        pred_q, _ = datagen.teacher_forced_next(rows, q, qd, acts, plant_cfg)
        trans, rot = _pose_errors(fk_positions(pred_q, plant_cfg), observed)
        return trans + rot

    return energy


# --- refinement through the surrogate ----------------------------------------

def refine_params(model, episodes, cfg: RefineConfig, candidates):
    """_levenberg_marquardt on surrogate.make_param_residuals over the real
    transitions, weights frozen, with cfg.max_steps as its iteration cap and
    cfg.convergence_tol as its step tolerance; cfg.bounds must be the bounds
    the model was trained in.

    Starts from the candidate parameter set (PhysParams, at least one) with
    the lowest surrogate loss. Returns (identified PhysParams, LM's cost
    curve).
    """
    if not episodes.episodes:
        raise ValueError("no episodes to refine against")
    q, qd, acts, nq, nqd = datagen.episode_arrays(episodes)
    residuals = surrogate.make_param_residuals(
        model, np.hstack([q, qd, acts]), np.hstack([nq, nqd]))
    bounds = cfg.bounds
    losses = [r @ r for r in (residuals(c.as_array())[0] for c in candidates)]
    start = candidates[int(np.argmin(losses))].as_array()
    u, curve = _levenberg_marquardt(
        lambda u: residuals(bounds.from_unit(u)), bounds.to_unit(start),
        cfg.max_steps, cfg.convergence_tol)
    return PhysParams.from_array(bounds.clip(bounds.from_unit(u))), curve


# --- simulated annealing baseline -------------------------------------------

def anneal_params(episodes, cfg: AnnealConfig, plant_cfg: PlantConfig,
                  energy_fn=None):
    """Metropolis annealing with Gaussian proposals clipped to bounds and a
    geometric cooling schedule. Returns (best-ever params, energy curve)."""
    if not episodes.episodes and energy_fn is None:
        raise ValueError("no episodes to anneal against")
    if energy_fn is None:
        energy_fn = make_replay_energy(episodes, plant_cfg)
    rng = np.random.default_rng(cfg.seed)
    lows, highs = cfg.bounds.lows(), cfg.bounds.highs()
    prop_std = cfg.proposal_frac * (highs - lows)
    current = (lows + highs) / 2.0
    e_current = energy_fn(current)
    if not np.isfinite(e_current):
        raise RuntimeError("non-finite annealing energy at initialization")
    best, e_best = current.copy(), e_current
    curve = [e_current]
    temperature = cfg.initial_temperature
    for _ in range(cfg.steps):
        candidate = np.clip(current + rng.normal(0.0, 1.0, 3) * prop_std,
                            lows, highs)
        e_cand = energy_fn(candidate)
        if not np.isfinite(e_cand):
            raise RuntimeError("non-finite annealing energy")
        delta = e_cand - e_current
        if delta < 0 or rng.random() < np.exp(-delta / temperature):
            current, e_current = candidate, e_cand
            if e_current < e_best:  # strict: earliest wins on ties
                best, e_best = current.copy(), e_current
        curve.append(e_best)
        temperature *= cfg.cooling_gamma
    return PhysParams.from_array(best), curve


# --- Levenberg-Marquardt, and the plant's one-step residuals ---------------

def make_one_step_residuals(episodes, plant_cfg):
    """Residuals of the teacher-forced one-step predictions against the
    observed next states, and their exact Jacobian.

    Returns residuals(fpd) -> (r, jacobian): r is the (M * 2N,) vector of
    predicted minus observed (q, qd) over all episode steps; jacobian()
    returns J, the (M * 2N, 3) derivative of r with respect to (f, p, d),
    assembled from forward-mode sensitivities that the kernel call of r
    propagates through the integrator substeps. The episode tensors are
    assembled once and captured.
    """
    q, qd, acts, nq, nqd = datagen.episode_arrays(episodes)
    observed = np.hstack([nq, nqd]).ravel()

    def residuals(fpd):
        rows = np.broadcast_to(np.asarray(fpd, dtype=float), (len(q), 3))
        q2, qd2 = q.copy(), qd.copy()
        sq, sqd = step_batch_sensitivities(rows, q2, qd2, acts, plant_cfg)
        r = np.hstack([q2, qd2]).ravel() - observed
        return r, lambda: np.concatenate([sq, sqd], axis=2).reshape(3, -1).T

    return residuals


def gauss_newton_params(episodes, bounds: ParamBounds, plant_cfg: PlantConfig):
    """_levenberg_marquardt on the one-step residuals of
    make_one_step_residuals, in the bound-scaled coordinates of
    ParamBounds.to_unit.

    Starts at the bounds midpoint; when that run leaves residual cost, also
    starts from each f in LM_RESTART_F and keeps the run of lowest final
    cost (the midpoint's on ties). A coordinate whose bound interval is
    collapsed is held fixed.

    Returns (fitted params, mean squared residual at the start and after
    each accepted step of the winning run).
    """
    if not episodes.episodes:
        raise ValueError("no episodes to fit against")
    residuals = make_one_step_residuals(episodes, plant_cfg)
    span = bounds.highs() - bounds.lows()

    def unit_residuals(u):
        r, jacobian = residuals(bounds.from_unit(u))
        # a collapsed bound gives a zero column
        return r, lambda: jacobian() * span

    u, curve = _levenberg_marquardt(unit_residuals, np.full(3, 0.5))
    if curve[-1] > LM_RESTART_REL_COST * curve[0]:
        for f_start in LM_RESTART_F:
            u_alt, curve_alt = _levenberg_marquardt(
                unit_residuals, np.array([f_start, 0.5, 0.5]))
            if curve_alt[-1] < curve[-1]:
                u, curve = u_alt, curve_alt
    return PhysParams.from_array(bounds.clip(bounds.from_unit(u))), curve


def _levenberg_marquardt(residuals, u, max_iterations=LM_MAX_ITERATIONS,
                        tol=LM_TOL):
    """One LM run from bound-scaled u in [0, 1]^3; residuals(u) ->
    (r, jacobian), jacobian() the derivative J of r with respect to u, asked
    for only at the start and at each accepted point the run goes on from.

    Each step solves (J^T J + lam * diag(J^T J)) s = -J^T r over the free
    coordinates, then projects onto the cube. A coordinate is held fixed
    when its Jacobian column is zero (a collapsed bound, no excitation) or
    when it sits on a face with the gradient pointing outward. The run stops
    after max_iterations, at zero cost or gradient, when an accepted step
    moves no coordinate by more than tol, or when damping past
    LM_MAX_DAMPING finds no lower cost. Returns (final u, mean squared
    residual at the start and after each accepted step).
    """
    r, jacobian = residuals(u)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise RuntimeError(f"non-finite residuals at the start u={u.tolist()}")
    curve = [cost / r.size]
    lam = LM_INITIAL_DAMPING
    for _ in range(max_iterations):
        J = jacobian()
        del jacobian  # and what it holds, before the trials' calls run
        g = J.T @ r
        free = (np.any(J != 0.0, axis=0)
                & ~((u <= 0.0) & (g > 0)) & ~((u >= 1.0) & (g < 0)))
        if cost == 0.0 or not np.any(g[free]):
            break
        A = J[:, free].T @ J[:, free]
        D = np.diag(np.diag(A))
        while lam <= LM_MAX_DAMPING:
            step = np.zeros(3)
            step[free] = np.linalg.solve(A + lam * D, -g[free])
            u_new = np.clip(u + step, 0.0, 1.0)
            r_new, jacobian = residuals(u_new)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                break
            lam *= 10.0
        else:
            break
        # kept positive: a damping of 0 would stay 0 under the *= 10 above
        lam = max(lam / 10.0, np.finfo(float).tiny)
        moved = float(np.max(np.abs(u_new - u)))
        u, r, cost = u_new, r_new, cost_new
        curve.append(cost / r.size)
        if moved <= tol:
            break
    return u, curve


# --- evaluation -------------------------------------------------------------

def evaluate_params(params: PhysParams, episodes, plant_cfg: PlantConfig):
    """Open-loop rollout per episode under `params`; pose errors of simulated
    vs observed sequences, averaged across episodes. Episodes of one horizon
    roll as one batch."""
    if not episodes.episodes:
        raise ValueError("no evaluation episodes")
    eps = episodes.episodes
    trans_all, rot_all = np.empty(len(eps)), np.empty(len(eps))
    by_horizon = {}
    for i, ep in enumerate(eps):
        by_horizon.setdefault(ep.horizon, []).append(i)
    for idx in by_horizon.values():
        group = [eps[i] for i in idx]
        q_sim, _ = rollout_batch(params.as_array(),
                                 [ep.q[0] for ep in group],
                                 [ep.qd[0] for ep in group],
                                 [ep.actions for ep in group], plant_cfg)
        for i, ep, q in zip(idx, group, q_sim):
            trans_all[i], rot_all[i] = planar_pose_errors(q, ep.q, plant_cfg)
    trans = float(np.mean(trans_all))
    rot = float(np.mean(rot_all))
    return TrajErrorReport(trans + rot, rot, trans)


def recovery_error(params: PhysParams, truth: PhysParams):
    t = truth.as_array()
    denom = np.where(np.abs(t) > 0, np.abs(t), 1.0)
    return tuple(np.abs(params.as_array() - t) / denom)

