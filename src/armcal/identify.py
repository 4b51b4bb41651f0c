"""Parameter identification: Levenberg-Marquardt on the differentiable plant,
gradient refinement through a frozen MLP surrogate, a Metropolis
simulated-annealing baseline over true-simulator replays, and open-loop
evaluation.

The plant route ("grad") differentiates the simulator itself: forward-mode
sensitivities of the teacher-forced one-step predictions give the exact
Jacobian of the residuals, so damped Gauss-Newton needs a few dozen batched
kernel calls. Annealing pays for a full replay at every one of its 400 steps.
The surrogate route ("surrogate") touches the simulator only through the
dataset generated once for training, and pays for the training instead.
"""

from dataclasses import dataclass, field

import numpy as np

from . import datagen, surrogate
from .metrics import TrajErrorReport
from .plant import (ParamBounds, PhysParams, PlantConfig, fk_positions,
                    rollout_batch, step_batch_sensitivities)


@dataclass(frozen=True)
class RefineConfig:
    learning_rate: float = 0.001
    max_steps: int = 500
    init: str = "best-sampled"  # or "bounds-midpoint"
    convergence_tol: float = 1e-8
    convergence_window: int = 20
    bounds: ParamBounds = field(default_factory=ParamBounds)

    def __post_init__(self):
        if self.learning_rate <= 0 or self.max_steps < 1:
            raise ValueError("invalid refinement configuration")
        if self.init not in ("best-sampled", "bounds-midpoint"):
            raise ValueError(f"unknown init mode {self.init!r}")


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

def _episode_tensors(episodes):
    q, qd, acts, nq, nqd = datagen.episode_arrays(episodes)
    return q, qd, np.hstack([q, qd, acts]), np.hstack([nq, nqd])


def planar_pose_errors(q_pred_seq, q_obs_seq, cfg):
    """Mean translation and rotation error between two (T, N) joint-angle
    sequences, through planar forward kinematics.

    For rotations about a single fixed axis the Frobenius-norm identity
    ||Rz(a) - Rz(b)||_F = 2*sqrt(2)*|sin((a-b)/2)| makes the arcsin metric
    computable from the cumulative angles directly. Tests pin this against
    the matrix-based metrics module.
    """
    pos_p, ang_p = fk_positions(q_pred_seq, cfg)
    pos_o, ang_o = fk_positions(q_obs_seq, cfg)
    trans = float(np.mean(np.linalg.norm(pos_p - pos_o, axis=1)))
    arg = np.clip(np.abs(np.sin((ang_p - ang_o) / 2.0)), 0.0, 1.0)
    rot = float(np.mean(np.arcsin(arg)))
    return trans, rot


def make_replay_energy(episodes, plant_cfg):
    """Annealing energy: trajectory error of a teacher-forced one-step replay
    of every episode under the candidate parameters. The episode tensors are
    assembled once and captured."""
    q, qd, acts, nq, _ = datagen.episode_arrays(episodes)

    def energy(fpd):
        rows = np.broadcast_to(np.asarray(fpd, dtype=float), (len(q), 3))
        pred_q, _ = datagen.teacher_forced_next(rows, q, qd, acts, plant_cfg)
        trans, rot = planar_pose_errors(pred_q, nq, plant_cfg)
        return trans + rot

    return energy


# --- refinement through the surrogate ----------------------------------------

def minimize_projected_adam(objective, u0, lr, max_steps, tol, window):
    """Adam in the unit cube with projection after every step.

    objective(u) -> (loss, grad). Returns (best u, loss curve); on exact loss
    ties the earliest iterate wins.
    """
    u = np.clip(np.asarray(u0, dtype=float), 0.0, 1.0)
    m, v = [np.zeros_like(u)], [np.zeros_like(u)]
    curve = []
    best_u, best_loss = u.copy(), np.inf
    for t in range(1, max_steps + 1):
        loss, grad = objective(u)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite refinement loss at step {t}")
        curve.append(loss)
        if loss < best_loss:
            best_loss, best_u = loss, u.copy()
        if len(curve) > window and abs(curve[-1] - curve[-1 - window]) < tol:
            break
        u = u.copy()  # the objective may keep the array it was given
        surrogate.adam_step([u], [grad], m, v, t, lr)
        np.clip(u, 0.0, 1.0, out=u)
    return best_u, curve


def refine_params(model, episodes, cfg: RefineConfig, candidates=None):
    """Minimize the surrogate prediction error on real transitions over
    (f, p, d) only, weights frozen. Optimization runs in min-max-normalized
    parameter coordinates so Adam steps are comparable across coordinates.

    candidates: optional parameter sets used by the "best-sampled" init.
    Returns (identified PhysParams, loss curve).
    """
    if not episodes.episodes:
        raise ValueError("no episodes to refine against")
    _, _, state_sa, next_raw = _episode_tensors(episodes)

    def objective(u):
        fpd = surrogate.unit_to_params(u[None, :], cfg.bounds)[0]
        return surrogate.param_loss_and_grad(model, fpd, state_sa, next_raw)

    if cfg.init == "best-sampled" and candidates:
        losses = [surrogate.param_loss_and_grad(
            model, c.as_array(), state_sa, next_raw)[0] for c in candidates]
        start = candidates[int(np.argmin(losses))].as_array()
    else:
        start = (cfg.bounds.lows() + cfg.bounds.highs()) / 2.0
    u0 = surrogate.params_to_unit(start[None, :], cfg.bounds)[0]
    best_u, curve = minimize_projected_adam(
        objective, u0, cfg.learning_rate, cfg.max_steps,
        cfg.convergence_tol, cfg.convergence_window)
    fpd = surrogate.unit_to_params(best_u[None, :], cfg.bounds)[0]
    return PhysParams.from_array(cfg.bounds.clip(fpd)), curve


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


# --- Levenberg-Marquardt on the differentiable plant -----------------------

# Iteration cap, and the stopping tolerance: the run ends once an accepted
# step moves no bound-scaled coordinate by more than LM_TOL.
LM_MAX_ITERATIONS = 100
LM_TOL = 1e-10
# Marquardt damping factor on diag(J^T J): divided by 10 after an accepted
# step, multiplied by 10 after a rejected one. Past the ceiling no step
# lowers the cost and the run ends.
LM_INITIAL_DAMPING = 1e-3
LM_MAX_DAMPING = 1e12
# A run from the bounds midpoint can stop at a stationary point that is not
# the least-squares minimum, with f off. When it ends with more than
# LM_RESTART_REL_COST of its starting cost left, LM also runs from these
# bound-scaled f values, with p and d at the midpoint, and the lowest final
# cost wins.
LM_RESTART_F = (0.3, 0.7)
LM_RESTART_REL_COST = 1e-20


def make_one_step_residuals(episodes, plant_cfg):
    """Residuals of the teacher-forced one-step predictions against the
    observed next states, and their exact Jacobian.

    Returns residuals(fpd) -> (r, J): r is the (M * 2N,) vector of predicted
    minus observed (q, qd) over all episode steps, J the (M * 2N, 3)
    derivative of r with respect to (f, p, d), from forward-mode
    sensitivities through the integrator substeps. The episode tensors are
    assembled once and captured.
    """
    q, qd, acts, nq, nqd = datagen.episode_arrays(episodes)
    observed = np.hstack([nq, nqd]).ravel()

    def residuals(fpd):
        rows = np.broadcast_to(np.asarray(fpd, dtype=float), (len(q), 3))
        q2, qd2 = q.copy(), qd.copy()
        sq, sqd = step_batch_sensitivities(rows, q2, qd2, acts, plant_cfg)
        r = np.hstack([q2, qd2]).ravel() - observed
        return r, np.concatenate([sq, sqd], axis=2).reshape(3, -1).T

    return residuals


def gauss_newton_params(episodes, bounds: ParamBounds, plant_cfg: PlantConfig):
    """Damped Gauss-Newton (Levenberg-Marquardt) on the one-step residuals of
    make_one_step_residuals, in bound-scaled coordinates u in [0, 1]^3.

    Starts at the bounds midpoint; when that run leaves residual cost, also
    starts from each f in LM_RESTART_F and keeps the run of lowest final
    cost (the midpoint's on ties). Each step solves
    (J^T J + lam * diag(J^T J)) s = -J^T r over the free coordinates, then
    projects onto the bounds. A coordinate is held fixed when its bound
    interval is collapsed, when the residuals do not depend on it (no
    excitation), or when it sits on a bound with the gradient pointing
    outward; the damping carries what rank deficiency remains. A run stops
    after LM_MAX_ITERATIONS, at zero cost or gradient, when an accepted step
    is at most LM_TOL, or when damping past LM_MAX_DAMPING finds no lower
    cost.

    Returns (fitted params, mean squared residual at the start and after
    each accepted step of the winning run).
    """
    if not episodes.episodes:
        raise ValueError("no episodes to fit against")
    residuals = make_one_step_residuals(episodes, plant_cfg)
    lows, span = bounds.lows(), bounds.highs() - bounds.lows()
    u, curve = _levenberg_marquardt(residuals, lows, span, np.full(3, 0.5))
    if curve[-1] > LM_RESTART_REL_COST * curve[0]:
        for f_start in LM_RESTART_F:
            u_alt, curve_alt = _levenberg_marquardt(
                residuals, lows, span, np.array([f_start, 0.5, 0.5]))
            if curve_alt[-1] < curve[-1]:
                u, curve = u_alt, curve_alt
    return PhysParams.from_array(bounds.clip(lows + u * span)), curve


def _levenberg_marquardt(residuals, lows, span, u):
    """One LM run from bound-scaled u; returns (final u, cost curve)."""
    r, J = residuals(lows + u * span)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise RuntimeError(f"non-finite residuals at the start u={u.tolist()}")
    curve = [cost / r.size]
    lam = LM_INITIAL_DAMPING
    for _ in range(LM_MAX_ITERATIONS):
        Ju = J * span  # a collapsed bound gives a zero column
        g = Ju.T @ r
        free = (np.any(Ju != 0.0, axis=0)
                & ~((u <= 0.0) & (g > 0)) & ~((u >= 1.0) & (g < 0)))
        if cost == 0.0 or not np.any(g[free]):
            break
        A = Ju[:, free].T @ Ju[:, free]
        D = np.diag(np.diag(A))
        while lam <= LM_MAX_DAMPING:
            step = np.zeros(3)
            step[free] = np.linalg.solve(A + lam * D, -g[free])
            u_new = np.clip(u + step, 0.0, 1.0)
            r_new, J_new = residuals(lows + u_new * span)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                break
            lam *= 10.0
        else:
            break
        lam /= 10.0
        moved = float(np.max(np.abs(u_new - u)))
        u, r, J, cost = u_new, r_new, J_new, cost_new
        curve.append(cost / r.size)
        if moved <= LM_TOL:
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


@dataclass(frozen=True)
class GradPipelineConfig:
    n_param_sets: int = 50
    sample_seed: int = 1
    train: surrogate.TrainConfig = field(default_factory=surrogate.TrainConfig)
    refine: RefineConfig = field(default_factory=RefineConfig)
    hidden_width: int = surrogate.HIDDEN_WIDTH
    init_seed: int = 2


def run_gradient_pipeline(episodes, plant_cfg, cfg: GradPipelineConfig):
    """Full surrogate route: sample parameter sets, generate the transition
    dataset, train the surrogate, refine. Returns (params, details dict)."""
    bounds = cfg.refine.bounds
    candidates = datagen.sample_params(cfg.n_param_sets, bounds, cfg.sample_seed)
    data = datagen.generate_transition_arrays(episodes, candidates, plant_cfg)
    stats = datagen.compute_norm_stats(data)
    model = surrogate.init(
        surrogate.default_layer_dims(plant_cfg.n_joints, cfg.hidden_width),
        cfg.init_seed, norm_stats=stats, bounds=bounds)
    model = surrogate.train(model, data, cfg.train)
    params, curve = refine_params(model, episodes, cfg.refine, candidates)
    return params, {"model": model, "loss_curve": curve,
                    "candidates": candidates, "dataset_rows": len(data)}
