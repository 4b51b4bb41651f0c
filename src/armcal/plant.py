"""PD-controlled planar N-joint arm used as both simulator and stand-in for
the real robot.

Each joint is a decoupled double integrator driven by a PD controller toward
a commanded target angle, plus smoothed Coulomb friction:

    tau_i = p * (target_i - q_i) - d * qd_i - f * tanh(qd_i / eps_v)

integrated with semi-implicit Euler (velocity first, then position) for a
fixed number of substeps per action. The three scalars (f, p, d) are shared
across joints and are the quantities the identification pipeline recovers.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernel_py


@dataclass(frozen=True)
class ParamBounds:
    """The box of (f, p, d) values, and its map to the unit cube [0, 1]^3
    that the optimisers and the surrogate's input layer work in."""

    f_min: float = 0.0
    f_max: float = 10.0
    p_min: float = 1.0
    p_max: float = 500.0
    d_min: float = 0.1
    d_max: float = 50.0

    def __post_init__(self):
        for lo, hi, name in ((self.f_min, self.f_max, "f"),
                             (self.p_min, self.p_max, "p"),
                             (self.d_min, self.d_max, "d")):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"non-finite bounds for {name}")
            if lo < 0:  # every point of the box is a valid PhysParams
                raise ValueError(f"negative lower bound for {name}: {lo}")
            if lo > hi:
                raise ValueError(f"empty bound interval for {name}: [{lo}, {hi}]")

    def lows(self):
        return np.array([self.f_min, self.p_min, self.d_min])

    def highs(self):
        return np.array([self.f_max, self.p_max, self.d_max])

    def clip(self, vec):
        return np.clip(vec, self.lows(), self.highs())

    def to_unit(self, fpd):
        """(3,) or (B, 3) parameters to bound-scaled coordinates; a collapsed
        interval maps to 0.5."""
        lows, span = self.lows(), self.highs() - self.lows()
        u = (np.asarray(fpd, dtype=float) - lows) / np.where(span > 0, span, 1.0)
        return np.where(span > 0, u, 0.5)

    def from_unit(self, u):
        """(3,) or (B, 3) bound-scaled coordinates to parameters."""
        lows, span = self.lows(), self.highs() - self.lows()
        return lows + np.asarray(u, dtype=float) * span


@dataclass(frozen=True)
class PhysParams:
    """Friction magnitude f (N·m), stiffness p (N·m/rad), damping d (N·m·s/rad)."""

    f: float
    p: float
    d: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.f, self.p, self.d)):
            raise ValueError("non-finite physical parameter")
        if self.f < 0 or self.p < 0 or self.d < 0:
            raise ValueError(f"invalid parameters f={self.f} p={self.p} d={self.d}")

    def as_array(self):
        return np.array([self.f, self.p, self.d], dtype=float)

    @staticmethod
    def from_array(vec):
        return PhysParams(float(vec[0]), float(vec[1]), float(vec[2]))

    def within(self, bounds: ParamBounds) -> bool:
        v = self.as_array()
        return bool(np.all(v >= bounds.lows()) and np.all(v <= bounds.highs()))


@dataclass(frozen=True)
class PlantConfig:
    n_joints: int = 2
    link_lengths: tuple = None
    inertias: tuple = None
    dt: float = 0.01
    substeps_per_action: int = 5
    friction_smoothing: float = 0.01
    obs_noise_std: float = 0.0

    def __post_init__(self):
        if self.n_joints < 1:
            raise ValueError("n_joints must be >= 1")
        if self.dt <= 0 or self.substeps_per_action < 1 or self.friction_smoothing <= 0:
            raise ValueError("invalid integration settings")
        if self.link_lengths is None:
            object.__setattr__(self, "link_lengths", (1.0,) * self.n_joints)
        if self.inertias is None:
            object.__setattr__(self, "inertias", (1.0,) * self.n_joints)
        if len(self.link_lengths) != self.n_joints or len(self.inertias) != self.n_joints:
            raise ValueError("link_lengths/inertias length must match n_joints")
        values = (*self.link_lengths, *self.inertias)
        if not all(0 < v < np.inf for v in values):
            raise ValueError("link lengths and inertias must be finite and "
                             f"positive numbers, got {values!r}")
        if self.obs_noise_std < 0:
            raise ValueError("obs_noise_std must be >= 0")

    def inv_inertia(self):
        return 1.0 / np.asarray(self.inertias, dtype=float)


@dataclass(frozen=True)
class JointState:
    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        q = np.ascontiguousarray(self.q, dtype=float)
        qd = np.ascontiguousarray(self.qd, dtype=float)
        if q.ndim != 1 or qd.shape != q.shape:
            raise ValueError("q and qd must be 1-D and equally sized")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qd))):
            raise ValueError("non-finite joint state")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qd", qd)


@dataclass(frozen=True)
class Action:
    target_q: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.target_q, dtype=float)
        if t.ndim != 1 or not np.all(np.isfinite(t)):
            raise ValueError("target_q must be a finite 1-D vector")
        object.__setattr__(self, "target_q", t)


@dataclass(frozen=True)
class EePose:
    """End-effector position x in R^3 and rotation matrix R in SO(3)."""

    x: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        R = np.asarray(self.R, dtype=float)
        if x.shape != (3,) or R.shape != (3, 3):
            raise ValueError("pose must be (3,) position and (3,3) rotation")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(R))):
            raise ValueError("non-finite pose")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class Trajectory:
    states: tuple
    actions: tuple
    poses: tuple

    def __post_init__(self):
        if len(self.actions) < 1:
            raise ValueError("trajectory needs at least one action")
        if len(self.states) != len(self.actions) + 1 or len(self.poses) != len(self.states):
            raise ValueError("inconsistent trajectory lengths")

    @property
    def horizon(self):
        return len(self.actions)


def step_batch(params_fpd, q, qd, target, cfg: PlantConfig):
    """Advance a (B, N) batch one action, in place.

    params_fpd is (B, 3) with columns f, p, d.
    """
    _substeps(params_fpd, q, qd, target, cfg)


def step_batch_sensitivities(params_fpd, q, qd, target, cfg: PlantConfig):
    """step_batch, also propagating forward-mode sensitivities of the state
    with respect to each row's (f, p, d).

    The starting state is treated as fixed (zero sensitivity), as in a
    teacher-forced one-step prediction. q and qd are advanced in place.
    Returns (dq, dqd), each (3, B, N): the derivative of the new q and qd
    with respect to f, p and d along the first axis.
    """
    sq = np.zeros((3,) + q.shape)
    sqd = np.zeros((3,) + q.shape)
    _substeps(params_fpd, q, qd, target, cfg, sens=(sq, sqd))
    return sq, sqd


def _substeps(params_fpd, q, qd, target, cfg, sens=None):
    """The kernel's substeps of one action, with the (B, 3) parameters split
    into contiguous columns and cfg's integration settings."""
    fpd = np.asarray(params_fpd, dtype=float)
    _kernel_py.substep_batch(q, qd, target,
                             *(np.ascontiguousarray(col) for col in fpd.T),
                             cfg.inv_inertia(), cfg.dt,
                             cfg.substeps_per_action, cfg.friction_smoothing,
                             sens)


def fk(q, cfg: PlantConfig) -> EePose:
    """Planar forward kinematics of one (N,) joint configuration."""
    q = np.asarray(q, dtype=float)
    if q.shape != (cfg.n_joints,):
        raise ValueError("fk: wrong joint dimension")
    if not np.all(np.isfinite(q)):
        raise ValueError("fk: non-finite input")
    pos, ang = fk_positions(q[None], cfg)
    return EePose(pos[0], _rot_z(ang[0]))


def fk_positions(q_seq, cfg: PlantConfig):
    """Planar forward kinematics over a (T, N) array of joint angles:
    cumulative joint angles along the chain.

    Returns positions (T, 3) and terminal cumulative angles (T,). The sums
    run joint by joint over whole columns, in the order of numpy's own
    reductions along the joint axis for N < 8.
    """
    q_seq = np.asarray(q_seq, dtype=float)
    if q_seq.ndim != 2 or q_seq.shape[1] != cfg.n_joints:
        raise ValueError("fk_positions: wrong joint dimension")
    theta = q_seq[:, 0].copy()
    pos = np.zeros((len(q_seq), 3))
    for j, length in enumerate(cfg.link_lengths):
        if j:
            theta += q_seq[:, j]
        pos[:, 0] += length * np.cos(theta)
        pos[:, 1] += length * np.sin(theta)
    return pos, theta


def _rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def fk_poses(q_seq, cfg: PlantConfig):
    """fk over a (T, N) array, returning a list of EePose."""
    pos, ang = fk_positions(q_seq, cfg)
    return [EePose(pos[i], _rot_z(ang[i])) for i in range(len(pos))]


def rollout_batch(params_fpd, q0, qd0, targets, cfg: PlantConfig,
                  noise_seeds=None):
    """Roll B initial states (B, N) under their own (B, T, N) joint targets,
    one step_batch call per time step for the whole batch.

    params_fpd is (3,) or (B, 3) with columns f, p, d. Returns the recorded
    (q, qd), each (B, T + 1, N), starting with the initial states. With
    obs_noise_std > 0, rollout b whose noise_seeds[b] is not None gets i.i.d.
    Gaussian noise on its records from its own generator, first on q, then
    on qd; the dynamics stay noise-free.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 3 or targets.shape[1] < 1:
        raise ValueError("rollout needs a non-empty action sequence")
    B, T, n = targets.shape
    q = np.array(q0, dtype=float)
    qd = np.array(qd0, dtype=float)
    if n != cfg.n_joints or q.shape != (B, n) or qd.shape != (B, n):
        raise ValueError(f"dimension mismatch: expected {B} states of "
                         f"{cfg.n_joints} joints")
    fpd = np.broadcast_to(np.asarray(params_fpd, dtype=float), (B, 3))
    q_rec = np.empty((B, T + 1, n))
    qd_rec = np.empty((B, T + 1, n))
    q_rec[:, 0], qd_rec[:, 0] = q, qd
    for t in range(T):
        step_batch(fpd, q, qd, np.ascontiguousarray(targets[:, t]), cfg)
        q_rec[:, t + 1], qd_rec[:, t + 1] = q, qd
    if not (np.all(np.isfinite(q_rec)) and np.all(np.isfinite(qd_rec))):
        raise ValueError("non-finite joint state")
    if cfg.obs_noise_std > 0 and noise_seeds is not None:
        for b, seed in enumerate(noise_seeds):
            if seed is not None:
                rng = np.random.default_rng(seed)
                q_rec[b] += rng.normal(0.0, cfg.obs_noise_std, q_rec[b].shape)
                qd_rec[b] += rng.normal(0.0, cfg.obs_noise_std, qd_rec[b].shape)
    return q_rec, qd_rec
