"""Episodes and the surrogate's transition rows.

`armcal datagen` rolls the hidden truth into the observed episodes
(`make_synthetic_real`). The surrogate stages build their training rows from
those episodes: replay the recorded actions through the plant under many
sampled parameter triples, restarting each simulated step from the recorded
state (one-step teacher forcing), and collect
(params, state, action, next_state) records plus normalization statistics.
"""

from dataclasses import dataclass

import numpy as np

from .plant import ParamBounds, PhysParams, PlantConfig, rollout_batch, step_batch

EXCITATION_HOLD_STEPS = 10
STD_FLOOR = 1e-8


@dataclass(frozen=True)
class DatagenConfig:
    """n_episodes observed episodes of horizon steps, rolled from the hidden
    truth (f, p, d), which None draws from the run seed; and the
    n_param_sets sampled triples the surrogate's rows are built over."""

    n_param_sets: int = 50
    n_episodes: int = 20
    horizon: int = 50
    truth: tuple = None

    def __post_init__(self):
        for name in ("n_param_sets", "n_episodes", "horizon"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.truth is not None:
            if len(self.truth) != 3:
                raise ValueError(f"truth must be [f, p, d], got {list(self.truth)}")
            PhysParams(*self.truth)


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
    """Recorded joint targets (T, N) and observed q, qd (T + 1, N), the
    first row of q and qd being the initial state."""

    actions: np.ndarray
    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        actions, q, qd = (np.ascontiguousarray(a, dtype=float)
                          for a in (self.actions, self.q, self.qd))
        if (actions.ndim != 2 or len(actions) < 1 or q.shape != qd.shape
                or q.shape != (len(actions) + 1, actions.shape[1])):
            raise ValueError(f"episode shape mismatch: actions {actions.shape}, "
                             f"q {q.shape}, qd {qd.shape}")
        if not all(np.all(np.isfinite(a)) for a in (actions, q, qd)):
            raise ValueError("non-finite episode record")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qd", qd)

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
    draws = bounds.from_unit(np.random.default_rng(seed).random((n, 3)))
    return [PhysParams.from_array(v) for v in draws]


def excitation_actions(horizon, n_joints, rng):
    """Piecewise-constant random joint targets in [-pi, pi], re-sampled every
    EXCITATION_HOLD_STEPS steps. Persistent excitation; a constant target
    would only pin the equilibrium."""
    n_segments = int(np.ceil(horizon / EXCITATION_HOLD_STEPS))
    levels = rng.uniform(-np.pi, np.pi, (n_segments, n_joints))
    return np.repeat(levels, EXCITATION_HOLD_STEPS, axis=0)[:horizon]


def make_synthetic_real(theta_star: PhysParams, n_episodes, horizon,
                        cfg: PlantConfig, seed) -> EpisodeSet:
    """Roll the hidden-truth parameters from randomized initial states under
    an excitation action sequence; record (optionally noisy) observations.

    Each episode draws its initial state, actions and noise seed from its
    own spawned generator; all episodes then roll in one batch.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    n = cfg.n_joints
    q0, qd0, targets, noise_seeds = [], [], [], []
    for ep_seed in np.random.SeedSequence(seed).spawn(n_episodes):
        rng = np.random.default_rng(ep_seed)
        q0.append(rng.uniform(-1.0, 1.0, n))
        qd0.append(rng.uniform(-0.5, 0.5, n))
        targets.append(excitation_actions(horizon, n, rng))
        noise_seeds.append(rng.integers(0, 2**63) if cfg.obs_noise_std > 0 else None)
    q, qd = rollout_batch(theta_star.as_array(), q0, qd0, targets, cfg,
                          noise_seeds)
    episodes = tuple(Episode(targets[b], q[b], qd[b])
                     for b in range(n_episodes))
    return EpisodeSet(episodes, source="synthetic-real")


def episode_arrays(episodes: EpisodeSet):
    """Stack all (state, action, observed next state) triples of an episode
    set into flat arrays: q (M, N), qd (M, N), a (M, N), next_q, next_qd."""
    eps = episodes.episodes
    return (np.concatenate([ep.q[:-1] for ep in eps]),
            np.concatenate([ep.qd[:-1] for ep in eps]),
            np.concatenate([ep.actions for ep in eps]),
            np.concatenate([ep.q[1:] for ep in eps]),
            np.concatenate([ep.qd[1:] for ep in eps]))


def teacher_forced_next(params_fpd, q, qd, targets, cfg: PlantConfig):
    """One step from each recorded state: one step_batch call for all rows."""
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
