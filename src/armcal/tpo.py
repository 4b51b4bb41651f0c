"""Preference-based policy fine-tuning over plant rollouts.

A small MLP policy maps (joint state, goal position) to a commanded target
angle. Batches of noisy rollouts are ranked by terminal end-effector distance
to the goal; the top-m and bottom-m trajectories form chosen/rejected pairs
and the policy is updated with the pairwise logistic loss

    loss = -log sigmoid(beta * delta)

where delta is the log-probability advantage of the chosen trajectory over
the rejected one, relative to a frozen pre-update reference policy.
Trajectory log-probability is the negative half sum of squared differences
between the policy's mean actions and the actions actually executed.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from . import surrogate
from .plant import Action, JointState, PhysParams, PlantConfig, Trajectory, fk, step


@dataclass
class PolicyNet:
    layer_dims: tuple
    weights: list
    biases: list
    exploration_std: float = 0.3

    @property
    def n_joints(self):
        return self.layer_dims[-1]


@dataclass(frozen=True)
class RankedTrajectory:
    trajectory: Trajectory
    executed_actions: np.ndarray  # (T, N), the noised actions applied
    goal: np.ndarray  # (2,) target end-effector position in the plane
    reward: float  # -||x_T - goal||


@dataclass(frozen=True)
class PreferencePair:
    chosen: RankedTrajectory
    rejected: RankedTrajectory

    def __post_init__(self):
        if self.chosen.reward < self.rejected.reward:
            raise ValueError("chosen trajectory must not be worse than rejected")


@dataclass(frozen=True)
class TpoConfig:
    beta: float = 0.1
    m: int = 25
    epochs_per_cycle: int = 80
    cycles: int = 5
    rollouts_per_cycle: int = 100
    learning_rate: float = 1e-3
    rollout_horizon: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if 2 * self.m > self.rollouts_per_cycle:
            raise ValueError("need at least 2m rollouts per cycle")


def init_policy(n_joints, hidden=(32, 32), seed=0, exploration_std=0.3) -> PolicyNet:
    dims = (2 * n_joints + 2, *hidden, n_joints)
    net = surrogate.init(dims, seed)
    return PolicyNet(dims, net.weights, net.biases, exploration_std)


def _obs_rows(traj_states, goal, horizon):
    return np.array([np.concatenate([s.q, s.qd, goal]) for s in traj_states[:horizon]])


def policy_means(policy: PolicyNet, obs_rows):
    """Deterministic mean actions for a batch of observation rows."""
    return surrogate.forward_normalized(policy, obs_rows)


def rollout_policy(policy: PolicyNet, params: PhysParams, goal, cfg: PlantConfig,
                   horizon, rng, init_state=None) -> RankedTrajectory:
    """Closed-loop rollout with Gaussian exploration noise on the commanded
    targets; reward is the negative terminal distance to the goal."""
    goal = np.asarray(goal, dtype=float)
    n = cfg.n_joints
    state = init_state or JointState(np.zeros(n), np.zeros(n))
    states = [state]
    actions = []
    executed = []
    for _ in range(horizon):
        obs = np.concatenate([state.q, state.qd, goal])[None, :]
        mean = policy_means(policy, obs)[0]
        noise = rng.normal(0.0, 1.0, n) * policy.exploration_std
        a = Action(mean + noise)
        executed.append(a.target_q)
        actions.append(a)
        state = step(params, state, a, cfg)
        states.append(state)
    poses = tuple(fk(s.q, cfg) for s in states)
    traj = Trajectory(tuple(states), tuple(actions), poses)
    reward = -float(np.linalg.norm(poses[-1].x[:2] - goal))
    return RankedTrajectory(traj, np.array(executed), goal, reward)


def traj_log_prob(policy: PolicyNet, rt: RankedTrajectory) -> float:
    """-1/2 sum_t ||mean_t - executed_t||^2 under the given policy."""
    T = len(rt.executed_actions)
    obs = _obs_rows(rt.trajectory.states, rt.goal, T)
    means = policy_means(policy, obs)
    if means.shape != rt.executed_actions.shape:
        raise ValueError("action dimension mismatch")
    return -0.5 * float(np.sum((means - rt.executed_actions) ** 2))


def tpo_delta(policy: PolicyNet, reference: PolicyNet, pair: PreferencePair) -> float:
    """Log-probability advantage of chosen over rejected, relative to the
    reference policy."""
    lw = traj_log_prob(policy, pair.chosen) - traj_log_prob(reference, pair.chosen)
    ll = traj_log_prob(policy, pair.rejected) - traj_log_prob(reference, pair.rejected)
    return lw - ll


def _sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                    np.exp(x) / (1.0 + np.exp(x)))


def tpo_loss(policy: PolicyNet, reference: PolicyNet, pairs, beta):
    """Mean -log sigmoid(beta * delta) over pairs, with the gradient with
    respect to the policy weights (reference frozen).

    Returns (loss, dWs, dbs).
    """
    if not pairs:
        raise ValueError("no preference pairs")
    deltas = np.array([tpo_delta(policy, reference, pr) for pr in pairs])
    z = beta * deltas
    # -log sigmoid(z), numerically stable
    loss = float(np.mean(np.where(z >= 0, np.log1p(np.exp(-z)),
                                  -z + np.log1p(np.exp(z)))))
    # d loss / d delta_j = -beta * sigmoid(-z_j) / P
    coeff = -beta * _sigmoid(-z) / len(pairs)

    rows = []
    grads_out = []
    for c, pr in zip(coeff, pairs):
        for rt, sign in ((pr.chosen, 1.0), (pr.rejected, -1.0)):
            T = len(rt.executed_actions)
            obs = _obs_rows(rt.trajectory.states, rt.goal, T)
            rows.append(obs)
            # d logprob / d mean = -(mean - executed); chain with c * sign
            means = policy_means(policy, obs)
            grads_out.append(c * sign * -(means - rt.executed_actions))
    X = np.vstack(rows)
    delta_out = np.vstack(grads_out)
    _, acts = surrogate.forward_normalized(policy, X, keep_cache=True)
    dWs, dbs, _ = surrogate.backward_from_delta(policy, acts, delta_out)
    return loss, dWs, dbs


def rank_and_pair(trajectories, m):
    """Pair rank-i of the top-m with rank-i of the bottom-m after a stable
    descending sort by reward (ties keep input order)."""
    if len(trajectories) < 2 * m:
        raise ValueError(f"need at least {2 * m} trajectories, got {len(trajectories)}")
    rewards = np.array([t.reward for t in trajectories])
    order = np.argsort(-rewards, kind="stable")
    pairs = []
    for i in range(m):
        chosen = trajectories[order[i]]
        rejected = trajectories[order[len(trajectories) - m + i]]
        pairs.append(PreferencePair(chosen, rejected))
    return pairs


@dataclass(frozen=True)
class CycleReport:
    cycle: int
    mean_reward_before: float
    mean_reward_after: float
    loss_first: float
    loss_last: float


def _rollout_batch(policy, params, goal, plant_cfg, cfg, seed_seq):
    out = []
    for child in seed_seq.spawn(cfg.rollouts_per_cycle):
        rng = np.random.default_rng(child)
        out.append(rollout_policy(policy, params, goal, plant_cfg,
                                  cfg.rollout_horizon, rng))
    return out


def tpo_cycle(policy: PolicyNet, params: PhysParams, goal, cfg: TpoConfig,
              plant_cfg: PlantConfig, cycle_index=0, seed_seq=None):
    """One fine-tuning cycle: freeze reference, roll out a batch, rank, run
    epochs_per_cycle gradient steps on the preference loss."""
    if seed_seq is None:
        seed_seq = np.random.SeedSequence((cfg.seed, cycle_index))
    reference = copy.deepcopy(policy)
    batch = _rollout_batch(policy, params, goal, plant_cfg, cfg, seed_seq)
    mean_before = float(np.mean([t.reward for t in batch]))
    pairs = rank_and_pair(batch, cfg.m)

    arrays = policy.weights + policy.biases
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    loss_first = loss_last = None
    for t in range(1, cfg.epochs_per_cycle + 1):
        loss, dWs, dbs = tpo_loss(policy, reference, pairs, cfg.beta)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite preference loss in cycle {cycle_index}")
        if loss_first is None:
            loss_first = loss
        loss_last = loss
        surrogate.adam_step(arrays, dWs + dbs, m, v, t, cfg.learning_rate)

    after_batch = _rollout_batch(policy, params, goal, plant_cfg, cfg,
                                 np.random.SeedSequence((cfg.seed, cycle_index, 1)))
    mean_after = float(np.mean([t.reward for t in after_batch]))
    report = CycleReport(cycle_index, mean_before, mean_after,
                         loss_first if loss_first is not None else 0.0,
                         loss_last if loss_last is not None else 0.0)
    return policy, report


def run_tpo(policy: PolicyNet, params: PhysParams, goal, cfg: TpoConfig,
            plant_cfg: PlantConfig, on_cycle=None):
    """Run cfg.cycles fine-tuning cycles; returns (policy, reports).

    on_cycle(report), if given, is called as each cycle finishes.
    """
    reports = []
    for c in range(cfg.cycles):
        policy, rep = tpo_cycle(policy, params, goal, cfg, plant_cfg, cycle_index=c)
        reports.append(rep)
        if on_cycle is not None:
            on_cycle(rep)
    return policy, reports
