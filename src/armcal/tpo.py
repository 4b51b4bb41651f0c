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

That sum leaves out the 1/sigma^2 of the Gaussian exploration noise
(sigma = exploration_std), so a cycle trains with beta = 1/sigma^2 of the
policy whose noise drew its rollouts: beta * delta is then the Gaussian
log-likelihood ratio.

A cycle works on rollout arrays throughout: B rollouts advance in lockstep,
one policy forward over all B states and one batch-B plant step per time
step, each drawing its exploration noise from its own generator.
`_pair_order` ranks the rewards into trajectory numbers, and the observation
rows of those 2m trajectories are stacked once per cycle with their reference
log-probabilities, so each epoch is one forward and one backward pass. Every
pass writes into a `surrogate.Workspace` and returns views into it, valid
until its next use: the stacked rows hold the one every pass over them runs
in, and each rollout batch has one of its own, so no epoch or time step
allocates activations, deltas or gradients afresh. A GEMM over many rows can
round differently from single-row products in the last bit; reruns with the
same seed are byte-identical.
`RankedTrajectory` and `PreferencePair` are the object API for single
trajectories; `traj_log_prob` and `tpo_delta` keep the per-trajectory
definitions the batched loss is tested against.
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
    m: int = 25
    epochs_per_cycle: int = 40
    cycles: int = 5
    rollouts_per_cycle: int = 100
    learning_rate: float = 3e-4
    rollout_horizon: int = 25
    # the exploration noise of the policy a run starts from (beta is
    # 1/exploration_std^2), and the (x, y) target its end effector reaches for
    exploration_std: float = PolicyNet.exploration_std
    goal: tuple = (1.2, 0.8)
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.rollout_horizon < 1:
            raise ValueError("rollout_horizon must be >= 1")
        if self.epochs_per_cycle < 1:
            raise ValueError("epochs_per_cycle must be >= 1")
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if 2 * self.m > self.rollouts_per_cycle:
            raise ValueError("need at least 2m rollouts per cycle")
        preference_beta(self.exploration_std)


def init_policy(n_joints, hidden=(32, 32), seed=0,
                exploration_std=PolicyNet.exploration_std) -> PolicyNet:
    dims = (2 * n_joints + 2, *hidden, n_joints)
    net = surrogate.init(dims, seed)
    return PolicyNet(dims, net.weights, net.biases, exploration_std)


def _obs_rows(traj_states, goal, horizon):
    return np.array([np.concatenate([s.q, s.qd, goal]) for s in traj_states[:horizon]])


def policy_means(policy: PolicyNet, obs_rows):
    """Deterministic mean actions for a batch of observation rows."""
    obs_rows = np.atleast_2d(obs_rows)
    ws = surrogate.workspace(policy.layer_dims, len(obs_rows), grads=None)
    return surrogate.forward_normalized(policy, obs_rows, ws)[0]


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
    ws = surrogate.workspace(policy.layer_dims, B, grads=None)
    for t in range(horizon):
        obs = np.hstack([q, qd, goal_rows])
        target = surrogate.forward_normalized(policy, obs, ws)[0] + noise[t]
        if not np.all(np.isfinite(target)):
            raise ValueError("non-finite commanded target")
        executed[t] = target
        plant.step_batch(fpd, q, qd, target, cfg)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qd))):
            raise ValueError("non-finite joint state")
        qs[t + 1], qds[t + 1] = q, qd
    pos, _ = plant.fk_positions(q, cfg)
    return qs, qds, executed, -np.linalg.norm(pos[:, :2] - goal, axis=1)


def rollout_policy(policy: PolicyNet, params: PhysParams, goal, cfg: PlantConfig,
                   horizon, rng) -> RankedTrajectory:
    """Closed-loop rollout from rest with Gaussian exploration noise on the
    commanded targets; reward is the negative terminal distance to the goal.
    The one-rollout case of the lockstep batch."""
    goal = np.asarray(goal, dtype=float)
    qs, qds, executed, rewards = _rollout_arrays(policy, params, goal, cfg,
                                                 horizon, [rng])
    q, qd, a = qs[:, 0], qds[:, 0], executed[:, 0]
    traj = Trajectory(tuple(JointState(q[t], qd[t]) for t in range(horizon + 1)),
                      tuple(Action(a[t]) for t in range(horizon)),
                      tuple(plant.fk_poses(q, cfg)))
    return RankedTrajectory(traj, a.copy(), goal, float(rewards[0]))


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


def _by_sign(x, nonneg, neg):
    """nonneg(x) where x >= 0 and neg(x) elsewhere, each evaluated only on
    the elements it selects, so neither overflows on the other's range."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    sel = x >= 0
    out[sel] = nonneg(x[sel])
    out[~sel] = neg(x[~sel])
    return out


def _sigmoid(x):
    return _by_sign(x, lambda x: 1.0 / (1.0 + np.exp(-x)),
                    lambda x: np.exp(x) / (1.0 + np.exp(x)))


@dataclass(frozen=True)
class _PairRows:
    """The rows of every trajectory in a list of P preference pairs, stacked
    once, and the workspace every pass over them runs in. Pair j's chosen
    trajectory is number 2j, its rejected one 2j + 1."""
    obs: np.ndarray  # (R, 2N + 2) observation rows
    executed: np.ndarray  # (R, N) executed actions
    traj: np.ndarray  # (R,) trajectory number of each row
    ref_log_prob: np.ndarray  # (2P,) under the frozen reference
    ws: surrogate.Workspace  # for R rows, with weight gradients


def _log_probs(policy, obs, executed, traj, n_traj, ws):
    """Per-trajectory log-probabilities over stacked rows; also the rows'
    mean-minus-executed residuals and the forward pass's activations."""
    means, acts = surrogate.forward_normalized(policy, obs, ws)
    if means.shape != executed.shape:
        raise ValueError("action dimension mismatch")
    diff = means - executed
    log_prob = -0.5 * np.bincount(traj, weights=np.sum(diff * diff, axis=1),
                                  minlength=n_traj)
    return log_prob, diff, acts


def _pair_rows(reference: PolicyNet, obs_blocks, executed_blocks) -> _PairRows:
    """Stack per-trajectory (T_i, 2N + 2) observation and (T_i, N) executed
    action blocks, given in the order chosen_0, rejected_0, chosen_1, ...,
    and build their workspace; the reference pass is the first in it."""
    if not obs_blocks:
        raise ValueError("no preference pairs")
    lengths = [len(a) for a in executed_blocks]
    if [len(o) for o in obs_blocks] != lengths:
        raise ValueError("action dimension mismatch")
    obs = np.vstack(obs_blocks)
    executed = np.vstack(executed_blocks)
    traj = np.repeat(np.arange(len(lengths)), lengths)
    ws = surrogate.workspace(reference.layer_dims, len(obs))
    ref_log_prob, _, _ = _log_probs(reference, obs, executed, traj,
                                    len(lengths), ws)
    return _PairRows(obs, executed, traj, ref_log_prob, ws)


def _pair_loss(policy: PolicyNet, rows: _PairRows, beta):
    """The preference loss and its weight gradients over cached pair rows;
    the gradients are views into rows.ws."""
    n_traj = len(rows.ref_log_prob)
    log_prob, diff, acts = _log_probs(policy, rows.obs, rows.executed,
                                      rows.traj, n_traj, rows.ws)
    adv = log_prob - rows.ref_log_prob
    z = beta * (adv[0::2] - adv[1::2])
    # -log sigmoid(z), numerically stable
    loss = float(np.mean(_by_sign(z, lambda z: np.log1p(np.exp(-z)),
                                  lambda z: -z + np.log1p(np.exp(z)))))
    # d loss / d delta_j = -beta * sigmoid(-z_j) / P; delta_j enters with +1
    # through the chosen and -1 through the rejected trajectory
    coeff = -beta * _sigmoid(-z) / len(z)
    signed = np.stack([coeff, -coeff], axis=1).ravel()[rows.traj]
    # d logprob / d mean = -(mean - executed)
    dWs, dbs, _ = surrogate.backward_from_delta(policy, acts,
                                                -(signed[:, None] * diff), rows.ws)
    return loss, dWs, dbs


def tpo_loss(policy: PolicyNet, reference: PolicyNet, pairs, beta):
    """Mean -log sigmoid(beta * delta) over pairs, with the gradient with
    respect to the policy weights (reference frozen); returns (loss, dWs,
    dbs). The passes of both policies run in one workspace, so they must
    share their layer_dims."""
    if policy.layer_dims != reference.layer_dims:
        raise ValueError("policy and reference layer_dims differ")
    trajs = [rt for pr in pairs for rt in (pr.chosen, pr.rejected)]
    rows = _pair_rows(reference,
                      [_obs_rows(rt.trajectory.states, rt.goal,
                                 len(rt.executed_actions)) for rt in trajs],
                      [rt.executed_actions for rt in trajs])
    return _pair_loss(policy, rows, beta)


def _pair_order(rewards, m):
    """Trajectory numbers chosen_0, rejected_0, chosen_1, ...: rank i of the
    top m paired with rank i of the bottom m after a stable descending sort
    by reward (ties keep input order)."""
    n = len(rewards)
    if n < 2 * m:
        raise ValueError(f"need at least {2 * m} trajectories, got {n}")
    order = np.argsort(-np.asarray(rewards, dtype=float), kind="stable")
    return np.stack([order[:m], order[n - m:]], axis=1).ravel()


def rank_and_pair(trajectories, m):
    """_pair_order over the trajectories' rewards, as PreferencePair objects."""
    idx = _pair_order([t.reward for t in trajectories], m)
    return [PreferencePair(trajectories[c], trajectories[r])
            for c, r in zip(idx[0::2], idx[1::2])]


@dataclass(frozen=True)
class CycleReport:
    cycle: int
    mean_reward_before: float
    mean_reward_after: float
    loss_first: float
    loss_last: float


def _spawn_rngs(seed_seq, n):
    return [np.random.default_rng(child) for child in seed_seq.spawn(n)]


def preference_beta(exploration_std):
    """beta = 1/sigma^2; ValueError unless sigma > 0 and beta is finite
    and positive."""
    sigma = float(exploration_std)
    try:
        beta = 1.0 / sigma ** 2
    except (ZeroDivisionError, OverflowError):  # sigma^2 is 0.0 or too large
        beta = float("nan")
    if not (sigma > 0 and 0 < beta < float("inf")):
        raise ValueError("exploration_std must be positive, with "
                         "1/exploration_std^2 finite and positive, got "
                         f"{exploration_std!r}")
    return beta


def tpo_cycle(policy: PolicyNet, params: PhysParams, goal, cfg: TpoConfig,
              plant_cfg: PlantConfig, cycle_index=0):
    """One fine-tuning cycle: freeze reference, roll out a batch, rank, run
    epochs_per_cycle gradient steps on the preference loss at
    beta = 1/sigma^2, sigma the policy's exploration noise."""
    beta = preference_beta(policy.exploration_std)
    goal = np.asarray(goal, dtype=float)
    qs, qds, executed, rewards = _rollout_arrays(
        policy, params, goal, plant_cfg, cfg.rollout_horizon,
        _spawn_rngs(np.random.SeedSequence((cfg.seed, cycle_index)),
                    cfg.rollouts_per_cycle))
    mean_before = float(np.mean(rewards))
    obs = np.concatenate([qs[:-1], qds[:-1], np.broadcast_to(
        goal, (*executed.shape[:2], len(goal)))], axis=2)  # (T, B, 2N + 2)
    idx = _pair_order(rewards, cfg.m)
    # the policy before its first update is the frozen reference
    rows = _pair_rows(policy, [obs[:, i] for i in idx],
                      [executed[:, i] for i in idx])
    del qs, qds, executed, obs  # training reads the pair rows alone

    arrays = policy.weights + policy.biases
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    losses = []
    for t in range(1, cfg.epochs_per_cycle + 1):
        loss, dWs, dbs = _pair_loss(policy, rows, beta)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite preference loss in cycle {cycle_index}")
        losses.append(loss)
        surrogate.adam_step(arrays, dWs + dbs, m, v, t, cfg.learning_rate)

    after_seq = np.random.SeedSequence((cfg.seed, cycle_index, 1))
    *_, rewards_after = _rollout_arrays(
        policy, params, goal, plant_cfg, cfg.rollout_horizon,
        _spawn_rngs(after_seq, cfg.rollouts_per_cycle))
    mean_after = float(np.mean(rewards_after))
    report = CycleReport(cycle_index, mean_before, mean_after,
                         losses[0], losses[-1])
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
