"""Transition-dataset construction for surrogate training.

Stage 1 of the pipeline: replay recorded episode actions through the plant
under many sampled parameter triples, restarting each simulated step from the
recorded state (one-step teacher forcing), and collect
(params, state, action, next_state) records plus normalization statistics.
"""

from dataclasses import dataclass

import numpy as np

from .plant import (Action, JointState, ParamBounds, PhysParams, PlantConfig,
                    rollout, step_batch)

EXCITATION_HOLD_STEPS = 10
STD_FLOOR = 1e-8


@dataclass(frozen=True)
class NormStats:
    """Per-dimension mean/std of the flattened record layout
    (f, p, d | q, qd | action | next q, next qd), population convention,
    std floored at 1e-8."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean/std must be matching 1-D vectors")
        if np.any(std <= 0):
            raise ValueError("std must be positive (floored)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


@dataclass(frozen=True)
class Episode:
    actions: tuple
    observed: tuple  # JointState sequence, length len(actions) + 1

    def __post_init__(self):
        if len(self.observed) != len(self.actions) + 1:
            raise ValueError("episode length mismatch")

    @property
    def init(self):
        return self.observed[0]

    @property
    def horizon(self):
        return len(self.actions)


@dataclass(frozen=True)
class EpisodeSet:
    episodes: tuple
    source: str = "simulated"  # "synthetic-real" | "simulated"


def sample_params(n, bounds: ParamBounds, seed):
    """n parameter triples drawn uniformly per coordinate within bounds."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    lows, highs = bounds.lows(), bounds.highs()
    draws = lows + (highs - lows) * rng.random((n, 3))
    return [PhysParams.from_array(v) for v in draws]


def excitation_actions(horizon, n_joints, rng, hold=EXCITATION_HOLD_STEPS):
    """Piecewise-constant random joint targets in [-pi, pi], re-sampled every
    `hold` steps. Persistent excitation; a constant target would only pin the
    equilibrium."""
    n_segments = int(np.ceil(horizon / hold))
    levels = rng.uniform(-np.pi, np.pi, (n_segments, n_joints))
    targets = np.repeat(levels, hold, axis=0)[:horizon]
    return [Action(t) for t in targets]


def make_synthetic_real(theta_star: PhysParams, n_episodes, horizon,
                        cfg: PlantConfig, seed) -> EpisodeSet:
    """Roll the hidden-truth parameters from randomized initial states under
    an excitation action sequence; record (optionally noisy) observations."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    root = np.random.SeedSequence(seed)
    episodes = []
    for ep_seed in root.spawn(n_episodes):
        rng = np.random.default_rng(ep_seed)
        init = JointState(rng.uniform(-1.0, 1.0, cfg.n_joints),
                          rng.uniform(-0.5, 0.5, cfg.n_joints))
        actions = excitation_actions(horizon, cfg.n_joints, rng)
        noise_seed = rng.integers(0, 2**63) if cfg.obs_noise_std > 0 else None
        traj = rollout(theta_star, init, actions, cfg, noise_seed=noise_seed)
        episodes.append(Episode(tuple(actions), traj.states))
    return EpisodeSet(tuple(episodes), source="synthetic-real")


def episode_arrays(episodes: EpisodeSet):
    """Stack all (state, action, observed next state) triples of an episode
    set into flat arrays: q (M, N), qd (M, N), a (M, N), next_q, next_qd."""
    qs, qds, acts, nqs, nqds = [], [], [], [], []
    for ep in episodes.episodes:
        for t in range(ep.horizon):
            qs.append(ep.observed[t].q)
            qds.append(ep.observed[t].qd)
            acts.append(ep.actions[t].target_q)
            nqs.append(ep.observed[t + 1].q)
            nqds.append(ep.observed[t + 1].qd)
    return (np.array(qs), np.array(qds), np.array(acts),
            np.array(nqs), np.array(nqds))


def teacher_forced_next(params_fpd, q, qd, targets, cfg: PlantConfig):
    """Batched step() from recorded states: one kernel call for all rows."""
    q2 = np.ascontiguousarray(q, dtype=float).copy()
    qd2 = np.ascontiguousarray(qd, dtype=float).copy()
    step_batch(np.asarray(params_fpd, dtype=float), q2, qd2,
               np.ascontiguousarray(targets, dtype=float), cfg)
    return q2, qd2


def generate_transition_arrays(episodes: EpisodeSet, param_sets, cfg: PlantConfig):
    """Flattened dataset: for every (episode step, parameter set) pair, the
    record (params | state | action | next_state) as one row of a matrix.

    Row order: parameter set major, episode step minor.
    """
    if not episodes.episodes or not param_sets:
        raise ValueError("episodes and param_sets must be non-empty")
    q, qd, acts, _, _ = episode_arrays(episodes)
    m = len(q)
    k = len(param_sets)
    fpd = np.array([p.as_array() for p in param_sets])
    fpd_rows = np.repeat(fpd, m, axis=0)
    q_rows = np.tile(q, (k, 1))
    qd_rows = np.tile(qd, (k, 1))
    act_rows = np.tile(acts, (k, 1))
    nq, nqd = teacher_forced_next(fpd_rows, q_rows, qd_rows, act_rows, cfg)
    return np.hstack([fpd_rows, q_rows, qd_rows, act_rows, nq, nqd])


def compute_norm_stats(data) -> NormStats:
    """Population mean/std per dimension of the (M, 3 + 5N) record matrix."""
    if len(data) < 2:
        raise ValueError("need at least 2 records for normalization statistics")
    mean = data.mean(axis=0)
    std = np.maximum(data.std(axis=0), STD_FLOOR)
    return NormStats(mean, std)
