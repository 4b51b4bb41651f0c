"""MLP surrogate of the plant's one-step dynamics.

Maps (physical parameters, joint state, action) to the next joint state.
Three weight layers (two tanh hidden layers, linear output). tanh is chosen
deliberately: the refinement stage differentiates the network with respect to
its *inputs*, which needs smooth input gradients.

Input pipeline: the (f, p, d) triple is min-max scaled to [0, 1] using the
parameter bounds; state and action dimensions are z-scored with the dataset
normalization statistics. The output is produced in z-scored next-state space
and de-normalized on the way out. All gradients (weights and inputs) are
exact backpropagation, checked against central finite differences in tests.
"""

from dataclasses import dataclass, field

import numpy as np

from .datagen import NormStats
from .plant import ParamBounds

# Adam moment decays and denominator guard, shared by every optimiser in the
# package, and the per-epoch exponential decay of the training step size.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_DECAY = 0.995


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch, loss):
        super().__init__(f"training loss became non-finite at epoch {epoch}: {loss}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 256
    max_epochs: int = 2000
    early_stop_loss: float = 1e-6
    plateau_window: int = 100
    plateau_rel_improvement: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0 or self.batch_size < 1 or self.max_epochs < 0:
            raise ValueError("invalid training configuration")


@dataclass
class MlpCheckpoint:
    layer_dims: tuple
    weights: list  # per layer, shape (out, in)
    biases: list  # per layer, shape (out,)
    activation: str
    norm_stats: NormStats
    bounds: ParamBounds
    rng_seed: int
    training_meta: dict = field(default_factory=dict)

    @property
    def n_joints(self):
        return self.layer_dims[-1] // 2


def init(layer_dims, seed, norm_stats=None, bounds=None) -> MlpCheckpoint:
    """Glorot-uniform weights, zero biases, deterministic under seed."""
    layer_dims = tuple(int(d) for d in layer_dims)
    if len(layer_dims) < 4:
        raise ValueError("need at least three weight layers")
    if any(d <= 0 for d in layer_dims):
        raise ValueError("layer dimensions must be positive")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpCheckpoint(layer_dims, weights, biases, "tanh",
                         norm_stats, bounds or ParamBounds(), int(seed))


def default_layer_dims(n_joints, hidden=128):
    return (3 + 3 * n_joints, hidden, hidden, 2 * n_joints)


# --- normalization -----------------------------------------------------------

def _param_scale(bounds: ParamBounds):
    lows, highs = bounds.lows(), bounds.highs()
    rng = highs - lows
    safe = np.where(rng > 0, rng, 1.0)
    return lows, rng, safe


def params_to_unit(fpd, bounds: ParamBounds):
    """(B, 3) raw parameters -> [0, 1] coordinates (0.5 for collapsed bounds)."""
    lows, rng, safe = _param_scale(bounds)
    u = (np.atleast_2d(fpd) - lows) / safe
    return np.where(rng > 0, u, 0.5)


def unit_to_params(u, bounds: ParamBounds):
    lows, rng, _ = _param_scale(bounds)
    return lows + np.atleast_2d(u) * rng


def _split_stats(model):
    n = model.n_joints
    mean, std = model.norm_stats.mean, model.norm_stats.std
    sa = slice(3, 3 + 3 * n)  # state | action dims
    nx = slice(3 + 3 * n, 3 + 5 * n)  # next-state dims
    return mean[sa], std[sa], mean[nx], std[nx]


def build_input(model, fpd, state_sa):
    """Assemble the normalized network input from raw parameter rows and raw
    (state | action) rows."""
    u = params_to_unit(fpd, model.bounds)
    m_sa, s_sa, _, _ = _split_stats(model)
    return np.hstack([u, (state_sa - m_sa) / s_sa])


def _z_baseline(model, state_sa):
    """Current state expressed in next-state z-units: the network's skip
    connection, so it only has to learn the one-step change."""
    n = model.n_joints
    _, _, m_nx, s_nx = _split_stats(model)
    return (state_sa[:, :2 * n] - m_nx) / s_nx


# --- forward / backward on normalized batches --------------------------------

def forward_normalized(model, X, keep_cache=False):
    acts = [np.atleast_2d(X)]
    n_layers = len(model.weights)
    h = acts[0]
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ W.T + b
        h = np.tanh(z) if i < n_layers - 1 else z
        acts.append(h)
    if keep_cache:
        return h, acts
    return h


def backward_from_delta(model, acts, delta):
    """Backward pass given d(loss)/d(output) rows; returns (dWs, dbs, dX)."""
    dWs = [None] * len(model.weights)
    dbs = [None] * len(model.weights)
    for i in range(len(model.weights) - 1, -1, -1):
        dWs[i] = delta.T @ acts[i]
        dbs[i] = delta.sum(axis=0)
        delta = delta @ model.weights[i]
        if i > 0:  # chain through the tanh of the previous hidden layer
            delta = delta * (1.0 - acts[i] * acts[i])
    return dWs, dbs, delta


def backprop(model, X, Y):
    """Mean-over-rows squared-error loss; returns (loss, dWs, dbs, dX)."""
    out, acts = forward_normalized(model, X, keep_cache=True)
    B = out.shape[0]
    diff = out - np.atleast_2d(Y)
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    dWs, dbs, dX = backward_from_delta(model, acts, 2.0 * diff / B)
    return loss, dWs, dbs, dX


# --- public operations -------------------------------------------------------

def forward_batch_raw(model, fpd, state_sa):
    """Batched forward in raw units: (B, 3) params + (B, 3N) state|action
    rows -> (B, 2N) next states."""
    if np.shape(state_sa)[-1] != 3 * model.n_joints:
        raise ValueError(f"state|action rows must have {3 * model.n_joints} "
                         f"columns, got {np.shape(state_sa)[-1]}")
    X = build_input(model, fpd, state_sa)
    y = forward_normalized(model, X) + _z_baseline(model, state_sa)
    _, _, m_nx, s_nx = _split_stats(model)
    return y * s_nx + m_nx


def adam_step(params, grads, m, v, t, lr):
    """One Adam update, in place, of each array in `params` at step t >= 1.

    m and v hold the first- and second-moment estimates, one array per
    parameter (zeros before the first step), and are updated in place.
    """
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    for i, g in enumerate(grads):
        m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g
        v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * g ** 2
        params[i] -= lr * (m[i] / corr1) / (np.sqrt(v[i] / corr2) + ADAM_EPS)


def train(model: MlpCheckpoint, data, cfg: TrainConfig) -> MlpCheckpoint:
    """Mini-batch Adam on the normalized squared-error loss over the rows of
    the (M, 3 + 5N) transition matrix `data`; model.norm_stats must be set.

    Stops on max_epochs, on epoch loss <= early_stop_loss, or when the
    windowed-smoothed loss stops improving. Deterministic under cfg.seed.
    """
    if len(data) < 1:
        raise ValueError("empty training dataset")
    n = model.n_joints
    X = build_input(model, data[:, :3], data[:, 3:3 + 3 * n])
    _, _, m_nx, s_nx = _split_stats(model)
    Y = (data[:, 3 + 3 * n:] - m_nx) / s_nx - _z_baseline(model, data[:, 3:3 + 3 * n])

    rng = np.random.default_rng(cfg.seed)
    arrays = model.weights + model.biases
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    t = 0
    history = []
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        lr = cfg.learning_rate * LR_DECAY ** epoch
        order = rng.permutation(len(X))
        losses = 0.0
        count = 0
        for start in range(0, len(X), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            # a diverging run overflows before its loss turns non-finite;
            # the isfinite check below reports it
            with np.errstate(over="ignore", invalid="ignore"):
                loss, dWs, dbs, _ = backprop(model, X[idx], Y[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, loss)
            losses += loss * len(idx)
            count += len(idx)
            t += 1
            adam_step(arrays, dWs + dbs, m, v, t, lr)
        epoch_loss = losses / count
        history.append(epoch_loss)
        if epoch_loss <= cfg.early_stop_loss:
            stop_reason = "early_stop_loss"
            break
        w = cfg.plateau_window
        if len(history) >= 2 * w:
            recent = np.mean(history[-w:])
            previous = np.mean(history[-2 * w:-w])
            if recent > previous * (1.0 - cfg.plateau_rel_improvement):
                stop_reason = "plateau"
                break
    model.training_meta = {
        "epochs_run": len(history),
        "final_loss": history[-1] if history else None,
        "stop_reason": stop_reason if history else "no_epochs",
        "loss_history": history,
    }
    return model


def param_loss_and_grad(model, fpd_row, state_sa, next_raw):
    """L_para over a batch of real transitions, with gradient in unit-cube
    parameter coordinates.

    fpd_row: (3,) raw parameters shared by every row.
    state_sa: (B, 3N) raw state|action rows. next_raw: (B, 2N) observed next
    states. Loss is the mean squared error in z-scored next-state space.
    """
    B = len(state_sa)
    fpd = np.broadcast_to(np.asarray(fpd_row, dtype=float), (B, 3))
    X = build_input(model, fpd, state_sa)
    _, _, m_nx, s_nx = _split_stats(model)
    Y = (next_raw - m_nx) / s_nx - _z_baseline(model, state_sa)
    loss, _, _, dX = backprop(model, X, Y)
    return loss, dX[:, :3].sum(axis=0)
