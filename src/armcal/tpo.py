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

Both stages of a cycle are batched. The rollouts of a batch advance in
lockstep: each time step is one policy forward over all B current states and
one batch-B plant step. Each rollout still draws its exploration noise from
its own generator, as one (horizon, N) block before the loop, which gives the
same values as drawing one step at a time. The preference loss stacks the
observation rows of all 2m paired trajectories once per cycle, with the
reference log-probabilities, so that each epoch is one forward and one
backward pass over those rows. A GEMM over many rows rounds differently from
many single-row products, so mean actions can differ from those of a
one-rollout-at-a-time loop in the last bit (a few 1e-16); reruns with the
same seed are byte-identical. `traj_log_prob` and `tpo_delta` keep the
per-trajectory definitions the batched loss is tested against.
"""

from dataclasses import dataclass

import numpy as np

from . import plant, surrogate
from .plant import Action, JointState, PhysParams, PlantConfig, Trajectory


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
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.rollout_horizon < 1:
            raise ValueError("rollout_horizon must be >= 1")
        if 2 * self.m > self.rollouts_per_cycle:
            raise ValueError("need at least 2m rollouts per cycle")


def init_policy(n_joints, hidden=(32, 32), seed=0,
                exploration_std=PolicyNet.exploration_std) -> PolicyNet:
    dims = (2 * n_joints + 2, *hidden, n_joints)
    net = surrogate.init(dims, seed)
    return PolicyNet(dims, net.weights, net.biases, exploration_std)


def _obs_rows(traj_states, goal, horizon):
    return np.array([np.concatenate([s.q, s.qd, goal]) for s in traj_states[:horizon]])


def policy_means(policy: PolicyNet, obs_rows):
    """Deterministic mean actions for a batch of observation rows."""
    return surrogate.forward_normalized(policy, obs_rows)


def _rollout_arrays(policy: PolicyNet, params: PhysParams, goal, cfg: PlantConfig,
                    horizon, rngs):
    """Closed-loop rollouts in lockstep from rest, one per generator in rngs.

    Returns time-major qs, qds (T + 1, B, N), the executed actions (T, B, N)
    and the rewards (B,)."""
    goal = np.asarray(goal, dtype=float)
    n, B = cfg.n_joints, len(rngs)
    noise = np.stack([rng.normal(0.0, 1.0, (horizon, n)) for rng in rngs],
                     axis=1) * policy.exploration_std  # (T, B, N)
    qs = np.empty((horizon + 1, B, n))
    qds = np.empty((horizon + 1, B, n))
    executed = np.empty((horizon, B, n))
    q, qd = np.zeros((B, n)), np.zeros((B, n))
    qs[0], qds[0] = q, qd
    fpd = np.broadcast_to(params.as_array(), (B, 3))
    goal_rows = np.broadcast_to(goal, (B, len(goal)))
    for t in range(horizon):
        target = policy_means(policy, np.hstack([q, qd, goal_rows])) + noise[t]
        if not np.all(np.isfinite(target)):
            raise ValueError("non-finite commanded target")
        executed[t] = target
        plant.step_batch(fpd, q, qd, target, cfg)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qd))):
            raise ValueError("non-finite joint state")
        qs[t + 1], qds[t + 1] = q, qd
    pos, _ = plant.fk_positions(q, cfg)
    return qs, qds, executed, -np.linalg.norm(pos[:, :2] - goal, axis=1)


def _rollout_batch(policy: PolicyNet, params: PhysParams, goal, cfg: PlantConfig,
                   horizon, rngs):
    """_rollout_arrays as a list of RankedTrajectory."""
    goal = np.asarray(goal, dtype=float)
    qs, qds, executed, rewards = _rollout_arrays(policy, params, goal, cfg,
                                                 horizon, rngs)
    B, n = len(rngs), cfg.n_joints
    poses = plant.fk_poses(qs.reshape(-1, n), cfg)  # time-major: step t, rollout b at t*B + b
    out = []
    for b in range(B):
        traj = Trajectory(
            tuple(JointState(qs[t, b], qds[t, b]) for t in range(horizon + 1)),
            tuple(Action(executed[t, b]) for t in range(horizon)),
            tuple(poses[b::B]))
        out.append(RankedTrajectory(traj, executed[:, b].copy(), goal,
                                    float(rewards[b])))
    return out


def rollout_policy(policy: PolicyNet, params: PhysParams, goal, cfg: PlantConfig,
                   horizon, rng) -> RankedTrajectory:
    """Closed-loop rollout from rest with Gaussian exploration noise on the
    commanded targets; reward is the negative terminal distance to the goal.
    The one-rollout case of the lockstep batch."""
    return _rollout_batch(policy, params, goal, cfg, horizon, [rng])[0]


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


@dataclass(frozen=True)
class _PairRows:
    """The rows of every trajectory in a list of P preference pairs, stacked
    once. Pair j's chosen trajectory is number 2j, its rejected one 2j + 1."""
    obs: np.ndarray  # (R, 2N + 2) observation rows
    executed: np.ndarray  # (R, N) executed actions
    traj: np.ndarray  # (R,) trajectory number of each row
    ref_log_prob: np.ndarray  # (2P,) under the frozen reference


def _log_probs(policy, obs, executed, traj, n_traj):
    """Per-trajectory log-probabilities over stacked rows; also the rows'
    mean-minus-executed residuals and the forward pass's activations."""
    means, acts = surrogate.forward_normalized(policy, obs, keep_cache=True)
    if means.shape != executed.shape:
        raise ValueError("action dimension mismatch")
    diff = means - executed
    log_prob = -0.5 * np.bincount(traj, weights=np.sum(diff * diff, axis=1),
                                  minlength=n_traj)
    return log_prob, diff, acts


def _pair_rows(reference: PolicyNet, pairs) -> _PairRows:
    if not pairs:
        raise ValueError("no preference pairs")
    trajs = [rt for pr in pairs for rt in (pr.chosen, pr.rejected)]
    obs, lengths = [], []
    for rt in trajs:
        T = len(rt.executed_actions)
        rows = _obs_rows(rt.trajectory.states, rt.goal, T)
        if len(rows) != T:
            raise ValueError("action dimension mismatch")
        obs.append(rows)
        lengths.append(T)
    obs = np.vstack(obs)
    executed = np.vstack([rt.executed_actions for rt in trajs])
    traj = np.repeat(np.arange(len(trajs)), lengths)
    ref_log_prob, _, _ = _log_probs(reference, obs, executed, traj, len(trajs))
    return _PairRows(obs, executed, traj, ref_log_prob)


def _pair_loss(policy: PolicyNet, rows: _PairRows, beta):
    """The preference loss and its weight gradients over cached pair rows."""
    n_traj = len(rows.ref_log_prob)
    log_prob, diff, acts = _log_probs(policy, rows.obs, rows.executed,
                                      rows.traj, n_traj)
    adv = log_prob - rows.ref_log_prob
    z = beta * (adv[0::2] - adv[1::2])
    # -log sigmoid(z), numerically stable
    loss = float(np.mean(np.where(z >= 0, np.log1p(np.exp(-z)),
                                  -z + np.log1p(np.exp(z)))))
    # d loss / d delta_j = -beta * sigmoid(-z_j) / P; delta_j enters with +1
    # through the chosen and -1 through the rejected trajectory
    coeff = -beta * _sigmoid(-z) / len(z)
    signed = np.stack([coeff, -coeff], axis=1).ravel()[rows.traj]
    # d logprob / d mean = -(mean - executed)
    dWs, dbs, _ = surrogate.backward_from_delta(policy, acts,
                                                -(signed[:, None] * diff))
    return loss, dWs, dbs


def tpo_loss(policy: PolicyNet, reference: PolicyNet, pairs, beta):
    """Mean -log sigmoid(beta * delta) over pairs, with the gradient with
    respect to the policy weights (reference frozen).

    Returns (loss, dWs, dbs).
    """
    return _pair_loss(policy, _pair_rows(reference, pairs), beta)


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


def _spawn_rngs(seed_seq, n):
    return [np.random.default_rng(child) for child in seed_seq.spawn(n)]


def tpo_cycle(policy: PolicyNet, params: PhysParams, goal, cfg: TpoConfig,
              plant_cfg: PlantConfig, cycle_index=0, seed_seq=None):
    """One fine-tuning cycle: freeze reference, roll out a batch, rank, run
    epochs_per_cycle gradient steps on the preference loss."""
    if seed_seq is None:
        seed_seq = np.random.SeedSequence((cfg.seed, cycle_index))
    batch = _rollout_batch(policy, params, goal, plant_cfg, cfg.rollout_horizon,
                           _spawn_rngs(seed_seq, cfg.rollouts_per_cycle))
    mean_before = float(np.mean([t.reward for t in batch]))
    # the policy before its first update is the frozen reference
    rows = _pair_rows(policy, rank_and_pair(batch, cfg.m))

    arrays = policy.weights + policy.biases
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    loss_first = loss_last = None
    for t in range(1, cfg.epochs_per_cycle + 1):
        loss, dWs, dbs = _pair_loss(policy, rows, cfg.beta)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite preference loss in cycle {cycle_index}")
        if loss_first is None:
            loss_first = loss
        loss_last = loss
        surrogate.adam_step(arrays, dWs + dbs, m, v, t, cfg.learning_rate)

    after_seq = np.random.SeedSequence((cfg.seed, cycle_index, 1))
    *_, rewards_after = _rollout_arrays(
        policy, params, goal, plant_cfg, cfg.rollout_horizon,
        _spawn_rngs(after_seq, cfg.rollouts_per_cycle))
    mean_after = float(np.mean(rewards_after))
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
