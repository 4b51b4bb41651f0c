"""MLP surrogate of the plant's one-step dynamics.

Maps (physical parameters, joint state, action) to the next joint state.
Three weight layers (two tanh hidden layers, linear output). tanh is chosen
deliberately: the refinement stage differentiates the network with respect to
its *inputs*, which needs smooth input gradients.

Input pipeline: the (f, p, d) triple is mapped to [0, 1] by the checkpoint's
ParamBounds.to_unit; state and action dimensions are z-scored with the dataset
normalization statistics. The output is produced in z-scored next-state
space, where every loss is measured. All gradients (weights and inputs) are
exact backpropagation, checked against central finite differences in tests.
Every forward and backward pass writes into a Workspace, and what it returns
are views into that workspace, valid until its next use. A loop that makes
many passes reuses one: training writes each minibatch's activations, deltas
and weight gradients into the same arrays, and refinement's residuals
(make_param_residuals) normalize their rows once and neither hold nor compute
the weight gradients they do not use, nor a Jacobian no one asks for.
"""

from dataclasses import dataclass, field

import numpy as np

from .datagen import NormStats
from .plant import ParamBounds

# Adam moment decays and denominator guard, shared by surrogate training and
# TPO, and the per-epoch exponential decay of the training step size.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_DECAY = 0.995
HIDDEN_WIDTH = 128  # of both hidden layers, unless the caller sets it


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch, loss):
        super().__init__(f"training loss became non-finite at epoch {epoch}: {loss}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 256
    max_epochs: int = 800
    hidden_width: int = HIDDEN_WIDTH  # read by the CLI, which builds the model
    seed: int = 0

    def __post_init__(self):
        if (self.learning_rate < 0 or self.batch_size < 1 or self.max_epochs < 1
                or self.hidden_width < 1):
            raise ValueError("learning_rate must be >= 0, and batch_size, "
                             "max_epochs and hidden_width >= 1")


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


def default_layer_dims(n_joints, hidden=HIDDEN_WIDTH):
    return (3 + 3 * n_joints, hidden, hidden, 2 * n_joints)


# --- normalization -----------------------------------------------------------

def _split_stats(model):
    n = model.n_joints
    mean, std = model.norm_stats.mean, model.norm_stats.std
    sa = slice(3, 3 + 3 * n)  # state | action dims
    nx = slice(3 + 3 * n, 3 + 5 * n)  # next-state dims
    return mean[sa], std[sa], mean[nx], std[nx]


def build_input(model, fpd, state_sa):
    """Assemble the normalized network input from raw parameter rows and raw
    (state | action) rows."""
    m_sa, s_sa, _, _ = _split_stats(model)
    return np.hstack([model.bounds.to_unit(fpd), (state_sa - m_sa) / s_sa])


def _targets(model, state_sa, next_raw):
    """The next state less the current state, in next-state z-units: the
    network's skip connection, so it only has to learn the one-step change."""
    n = model.n_joints
    _, _, m_nx, s_nx = _split_stats(model)
    return (next_raw - m_nx) / s_nx - (state_sa[:, :2 * n] - m_nx) / s_nx


# --- forward / backward on normalized batches --------------------------------

@dataclass(frozen=True)
class Workspace:
    """Arrays the passes write into, so that a caller making many passes
    over one batch allocates nothing; workspace(layer_dims, rows) makes one
    for batches of up to `rows` rows. Every pass runs in one, and what it
    returns are views into it, valid until its next use. With
    grads="inputs" it holds no weight gradients (dWs and dbs are None), so a
    backward pass in it computes dX alone; with grads=None only the
    activations, for forward passes."""
    acts: list  # output of layer i, (rows, layer_dims[i + 1])
    deltas: list  # d(loss)/d(input of layer i), (rows, layer_dims[i])
    slope: np.ndarray  # flat scratch for the tanh slope 1 - a^2
    dWs: list  # weight gradient of layer i, (layer_dims[i + 1], layer_dims[i])
    dbs: list  # bias gradient of layer i, (layer_dims[i + 1],)


def workspace(layer_dims, rows, grads="weights") -> Workspace:
    dims = list(zip(layer_dims[:-1], layer_dims[1:]))
    backward = grads in ("weights", "inputs")
    weights = grads == "weights"
    return Workspace(
        [np.empty((rows, d)) for d in layer_dims[1:]],
        [np.empty((rows, d)) for d in layer_dims[:-1]] if backward else None,
        np.empty(rows * max(layer_dims[1:-1], default=0)) if backward else None,
        [np.empty((o, i)) for i, o in dims] if weights else None,
        [np.empty(o) for _, o in dims] if weights else None)


def forward_normalized(model, X, ws):
    """Network output for normalized input rows, and the activations (input
    first) that backward_from_delta needs; returns (out, acts)."""
    acts = [np.atleast_2d(X)]
    B = len(acts[0])
    n_layers = len(model.weights)
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        h = np.matmul(acts[i], W.T, out=ws.acts[i][:B])
        h += b
        if i < n_layers - 1:
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def backward_from_delta(model, acts, delta, ws):
    """Backward pass given d(loss)/d(output) rows; returns (dWs, dbs, dX).

    The weight gradients are computed exactly when ws holds them; otherwise
    dWs and dbs are None.
    """
    B = len(delta)
    for i in range(len(model.weights) - 1, -1, -1):
        if ws.dWs is not None:
            np.matmul(delta.T, acts[i], out=ws.dWs[i])
            np.sum(delta, axis=0, out=ws.dbs[i])
        delta = np.matmul(delta, model.weights[i], out=ws.deltas[i][:B])
        if i > 0:  # chain through the tanh of the previous hidden layer
            a = acts[i]
            slope = np.multiply(a, a, out=ws.slope[:a.size].reshape(a.shape))
            np.subtract(1.0, slope, out=slope)
            delta *= slope
    return ws.dWs, ws.dbs, delta


def backprop(model, X, Y, ws=None):
    """Mean-over-rows squared-error loss; returns (loss, dWs, dbs, dX), in
    ws or, if none is given, in a workspace of its own."""
    if ws is None:
        ws = workspace(model.layer_dims, len(np.atleast_2d(X)))
    out, acts = forward_normalized(model, X, ws)
    B = out.shape[0]
    diff = out - np.atleast_2d(Y)
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    dWs, dbs, dX = backward_from_delta(model, acts, 2.0 * diff / B, ws)
    return loss, dWs, dbs, dX


# --- public operations -------------------------------------------------------

def adam_step(params, grads, m, v, t, lr):
    """One Adam update, in place, of each array in `params` at step t >= 1.

    m and v hold the first- and second-moment estimates, one array per
    parameter (zeros before the first step), and are updated in place.
    """
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    for i, g in enumerate(grads):
        m[i] *= ADAM_BETA1
        m[i] += (1 - ADAM_BETA1) * g
        v[i] *= ADAM_BETA2
        v[i] += (1 - ADAM_BETA2) * g ** 2
        params[i] -= lr * (m[i] / corr1) / (np.sqrt(v[i] / corr2) + ADAM_EPS)


def train(model: MlpCheckpoint, data, cfg: TrainConfig) -> MlpCheckpoint:
    """Mini-batch Adam on the normalized squared-error loss over the rows of
    the (M, 3 + 5N) transition matrix `data`; model.norm_stats must be set.

    Each minibatch gathers its rows of `data`, which is only read, and
    normalizes them on its own, so training holds no normalized copy of the
    matrix. The step size decays by LR_DECAY per epoch, whatever max_epochs
    is. Runs max_epochs epochs; training_meta["stop_reason"] is
    "max_epochs". Deterministic under cfg.seed.
    """
    if len(data) < 1:
        raise ValueError("empty training dataset")
    n = model.n_joints
    sa, nx = slice(3, 3 + 3 * n), slice(3 + 3 * n, None)

    rng = np.random.default_rng(cfg.seed)
    arrays = model.weights + model.biases
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    ws = workspace(model.layer_dims, min(cfg.batch_size, len(data)))
    t = 0
    history = []
    for epoch in range(cfg.max_epochs):
        lr = cfg.learning_rate * LR_DECAY ** epoch
        order = rng.permutation(len(data))
        losses = 0.0
        for start in range(0, len(data), cfg.batch_size):
            rows = data[order[start:start + cfg.batch_size]]
            X = build_input(model, rows[:, :3], rows[:, sa])
            Y = _targets(model, rows[:, sa], rows[:, nx])
            # a diverging run overflows before its loss turns non-finite;
            # the isfinite check below reports it
            with np.errstate(over="ignore", invalid="ignore"):
                loss, dWs, dbs, _ = backprop(model, X, Y, ws=ws)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, loss)
            losses += loss * len(rows)
            t += 1
            adam_step(arrays, dWs + dbs, m, v, t, lr)
        history.append(losses / len(data))
    model.training_meta = {
        "epochs_run": len(history),
        "final_loss": history[-1],
        "stop_reason": "max_epochs",
        "loss_history": history,
    }
    return model


def make_param_residuals(model, state_sa, next_raw):
    """The network's one-step residuals over (B, 3N) raw state|action rows
    and their (B, 2N) observed next states, as a function of the (f, p, d)
    shared by every row, weights frozen. The normalized rows, the targets
    and one workspace without weight gradients are built once.

    Returns residuals(fpd_row) -> (r, jacobian): r is the (B * 2N,) output
    minus target in z-scored next-state space, from one forward pass.
    jacobian() returns its (B * 2N, 3) Jacobian in ParamBounds.to_unit
    coordinates (zero for a collapsed bound), from one input-gradient
    backward pass per output column over that pass's activations; after a
    later residuals call it raises RuntimeError.
    """
    B, n_out = len(state_sa), model.layer_dims[-1]
    X = build_input(model, np.zeros((B, 3)), state_sa)  # a call sets X[:, :3]
    Y = _targets(model, state_sa, next_raw)
    ws = workspace(model.layer_dims, B, grads="inputs")
    unit = np.zeros((B, n_out))  # d(output column k)/d(output), column k set
    collapsed = model.bounds.highs() == model.bounds.lows()
    calls = 0  # residuals calls so far; the workspace holds the last one's

    def residuals(fpd_row):
        nonlocal calls
        calls += 1
        call = calls
        X[:, :3] = model.bounds.to_unit(np.asarray(fpd_row, dtype=float))
        out, acts = forward_normalized(model, X, ws)

        def jacobian():
            if calls != call:
                raise RuntimeError("stale jacobian(): a later call has "
                                   "overwritten its activations")
            J = np.empty((B, n_out, 3))
            for k in range(n_out):
                unit[:, k] = 1.0
                J[:, k] = backward_from_delta(model, acts, unit, ws)[2][:, :3]
                unit[:, k] = 0.0
            J[:, :, collapsed] = 0.0
            return J.reshape(-1, 3)

        return (out - Y).ravel(), jacobian

    return residuals


def param_loss_and_grad(model, fpd_row, state_sa, next_raw):
    """L_para at one parameter row, the mean over rows of the squared
    residuals of make_param_residuals (same rows), and its (3,) gradient in
    ParamBounds.to_unit coordinates."""
    r, jacobian = make_param_residuals(model, state_sa, next_raw)(fpd_row)
    B = len(state_sa)
    return float(r @ r) / B, (2.0 / B) * (r @ jacobian())
