"""Tests for the MLP surrogate: forward math, exact gradients vs central
finite differences, training behavior, and the input-normalization pipeline."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from armcal import surrogate
from armcal.datagen import (NormStats, compute_norm_stats,
                            generate_transition_arrays, make_synthetic_real,
                            sample_params)
from armcal.plant import ParamBounds, PhysParams, PlantConfig
from armcal.surrogate import (ADAM_EPS, MlpCheckpoint, TrainConfig,
                              TrainingDiverged, adam_step, backprop,
                              backward_from_delta, build_input,
                              default_layer_dims, forward_normalized, init,
                              make_param_residuals, param_loss_and_grad,
                              train, workspace)

BOUNDS = ParamBounds()
N = 2  # joints used throughout


def tiny_stats(dim=3 + 5 * N):
    # identity normalization so hand computations stay readable
    return NormStats(np.zeros(dim), np.ones(dim))


def random_model(rng_seed, hidden=16, stats=None):
    return init(default_layer_dims(N, hidden=hidden), rng_seed,
                norm_stats=stats or tiny_stats(), bounds=BOUNDS)


def forward(model, X):
    """The network output for the rows X, in a workspace of their own."""
    return forward_normalized(model, X, workspace(model.layer_dims, len(X)))[0]


class TestInit:
    def test_shapes_and_glorot_bounds(self):
        model = init((9, 32, 32, 4), 0, norm_stats=tiny_stats())
        assert [w.shape for w in model.weights] == [(32, 9), (32, 32), (4, 32)]
        assert all(np.all(b == 0) for b in model.biases)
        for w, (fi, fo) in zip(model.weights, [(9, 32), (32, 32), (32, 4)]):
            limit = np.sqrt(6.0 / (fi + fo))
            assert np.all(np.abs(w) <= limit)
            assert np.abs(w).max() > 0.5 * limit  # actually fills the range
        assert model.activation == "tanh"
        assert model.n_joints == 2

    def test_deterministic(self):
        a, b = init((9, 8, 8, 4), 3), init((9, 8, 8, 4), 3)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_validation(self):
        with pytest.raises(ValueError):
            init((9, 8, 4), 0)  # only two weight layers
        with pytest.raises(ValueError):
            init((9, 0, 8, 4), 0)

    def test_default_dims(self):
        assert default_layer_dims(2) == (9, 128, 128, 4)
        assert default_layer_dims(3, hidden=64) == (12, 64, 64, 6)


class TestParamScaling:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        fpd = BOUNDS.lows() + rng.random((50, 3)) * (BOUNDS.highs() - BOUNDS.lows())
        u = BOUNDS.to_unit(fpd)
        assert np.all(u >= 0) and np.all(u <= 1)
        np.testing.assert_allclose(BOUNDS.from_unit(u), fpd, atol=1e-12)

    def test_endpoints(self):
        np.testing.assert_array_equal(BOUNDS.to_unit(BOUNDS.lows()), [0, 0, 0])
        np.testing.assert_array_equal(BOUNDS.to_unit(BOUNDS.highs()), [1, 1, 1])

    def test_collapsed_bounds_map_to_half(self):
        collapsed = ParamBounds(f_min=2.0, f_max=2.0)
        u = collapsed.to_unit(np.array([[2.0, 100.0, 5.0]]))
        assert u[0, 0] == 0.5


class TestForward:
    def test_matches_explicit_composition(self):
        model = random_model(1)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(7, 9))
        W0, W1, W2 = model.weights
        b0, b1, b2 = model.biases
        expected = np.tanh(np.tanh(X @ W0.T + b0) @ W1.T + b1) @ W2.T + b2
        np.testing.assert_allclose(forward(model, X), expected,
                                   rtol=0, atol=1e-13)

    def test_scalar_chain_hand_value(self):
        # single active unit per layer with unit weights: tanh(tanh(1))
        model = MlpCheckpoint((9, 1, 1, 4),
                              [np.zeros((1, 9)), np.ones((1, 1)),
                               np.zeros((4, 1))],
                              [np.zeros(1), np.zeros(1), np.zeros(4)],
                              "tanh", tiny_stats(), BOUNDS, 0)
        model.weights[0][0, 0] = 1.0
        model.weights[2][0, 0] = 1.0
        x = np.zeros((1, 9))
        x[0, 0] = 1.0
        out = forward(model, x)
        assert out[0, 0] == pytest.approx(np.tanh(np.tanh(1.0)), abs=1e-15)
        assert out[0, 0] == pytest.approx(0.6420149920, abs=1e-9)
        assert np.all(out[0, 1:] == 0)

    def test_zero_weights_predict_current_state(self):
        # with a zero network the skip connection carries the prediction:
        # next state == current state, so the parameter loss and its
        # gradient vanish, for any normalization
        rng = np.random.default_rng(3)
        stats = NormStats(rng.normal(size=13), rng.random(13) + 0.5)
        model = random_model(0, stats=stats)
        for w in model.weights:
            w[:] = 0.0
        sa = rng.normal(size=(4, 3 * N))
        loss, grad = param_loss_and_grad(model, np.array([1.0, 50.0, 2.0]),
                                         sa, sa[:, :2 * N].copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))


def central_fd(fun, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = fun()
        flat[i] = old - eps
        lo = fun()
        flat[i] = old
        gflat[i] = (hi - lo) / (2 * eps)
    return g


class TestGradients:
    """Acceptance-grade finite-difference suites (>= 100 random instances)."""

    def test_weight_and_bias_gradients(self):
        rng = np.random.default_rng(10)
        model = random_model(11, hidden=8)
        checked = 0
        for _ in range(110):
            X = rng.normal(size=(3, 9))
            Y = rng.normal(size=(3, 4))
            loss, dWs, dbs, _ = backprop(model, X, Y)
            layer = rng.integers(0, 3)
            W = model.weights[layer]
            i, j = rng.integers(0, W.shape[0]), rng.integers(0, W.shape[1])
            fd = central_fd(lambda: backprop(model, X, Y)[0],
                            W[i:i + 1, j:j + 1])[0, 0]
            denom = max(abs(fd), abs(dWs[layer][i, j]), 1e-8)
            assert abs(dWs[layer][i, j] - fd) / denom <= 1e-4
            b = model.biases[layer]
            k = rng.integers(0, b.shape[0])
            fdb = central_fd(lambda: backprop(model, X, Y)[0], b[k:k + 1])[0]
            denomb = max(abs(fdb), abs(dbs[layer][k]), 1e-8)
            assert abs(dbs[layer][k] - fdb) / denomb <= 1e-4
            checked += 1
        assert checked >= 100

    def test_input_gradients(self):
        rng = np.random.default_rng(12)
        model = random_model(13, hidden=8)
        for _ in range(110):
            X = rng.normal(size=(2, 9))
            Y = rng.normal(size=(2, 4))
            _, _, _, dX = backprop(model, X, Y)
            r, c = rng.integers(0, 2), rng.integers(0, 9)
            fd = central_fd(lambda: backprop(model, X, Y)[0],
                            X[r:r + 1, c:c + 1])[0, 0]
            denom = max(abs(fd), abs(dX[r, c]), 1e-8)
            assert abs(dX[r, c] - fd) / denom <= 1e-4

    def test_param_loss_and_grad_matches_fd(self):
        rng = np.random.default_rng(16)
        stats = NormStats(rng.normal(size=13), rng.random(13) + 0.5)
        model = random_model(17, hidden=8, stats=stats)
        state_sa = rng.normal(size=(20, 3 * N))
        next_raw = rng.normal(size=(20, 2 * N))
        fpd = np.array([3.0, 150.0, 12.0])

        def loss_at():
            return param_loss_and_grad(model, fpd, state_sa, next_raw)[0]

        _, g = param_loss_and_grad(model, fpd, state_sa, next_raw)
        # gradient is reported in unit coordinates; compare against FD of the
        # loss as a function of the unit coordinates
        u = BOUNDS.to_unit(fpd)

        def loss_at_u():
            fpd[:] = BOUNDS.from_unit(u)
            return param_loss_and_grad(model, fpd, state_sa, next_raw)[0]

        fd = central_fd(loss_at_u, u, eps=1e-7)
        for k in range(3):
            denom = max(abs(fd[k]), abs(g[k]), 1e-8)
            assert abs(g[k] - fd[k]) / denom <= 1e-4


class TestParamResiduals:
    """make_param_residuals' Jacobian against central differences in the
    bound-scaled coordinates, at random networks, rows and parameters."""

    def case(self, seed, bounds=BOUNDS, rows=12):
        rng = np.random.default_rng(seed)
        stats = NormStats(rng.normal(size=13), rng.random(13) + 0.5)
        model = init(default_layer_dims(N, hidden=8), seed, norm_stats=stats,
                     bounds=bounds)
        for b in model.biases:
            b[:] = rng.normal(size=b.shape)
        return (rng, model, rng.normal(size=(rows, 3 * N)),
                rng.normal(size=(rows, 2 * N)))

    def test_match_central_differences(self):
        for seed in range(30):
            rng, model, state_sa, next_raw = self.case(seed)
            residuals = make_param_residuals(model, state_sa, next_raw)
            u = rng.random(3)
            r, jacobian = residuals(BOUNDS.from_unit(u))
            J = jacobian()
            assert r.shape == (12 * 2 * N,) and J.shape == (r.size, 3)
            # a second call at the same point gives the same bits
            r2, jacobian2 = residuals(BOUNDS.from_unit(u))
            assert np.array_equal(r2, r) and np.array_equal(jacobian2(), J)
            for j in range(3):
                h = np.zeros(3)
                h[j] = 1e-6
                fd = (residuals(BOUNDS.from_unit(u + h))[0]
                      - residuals(BOUNDS.from_unit(u - h))[0]) / 2e-6
                # relative error of each transition's (2N,) derivative
                # vector, as the plant's sensitivities are checked
                an, fd = J[:, j].reshape(12, -1), fd.reshape(12, -1)
                err = np.linalg.norm(an - fd, axis=1)
                scale = np.maximum(np.maximum(np.linalg.norm(fd, axis=1),
                                              np.linalg.norm(an, axis=1)), 1e-8)
                assert np.max(err / scale) <= 1e-5

    def test_residuals_are_output_minus_target(self):
        _, model, state_sa, next_raw = self.case(40)
        fpd = np.array([3.0, 150.0, 12.0])
        r, _ = make_param_residuals(model, state_sa, next_raw)(fpd)
        X = build_input(model, np.broadcast_to(fpd, (12, 3)), state_sa)
        n = model.n_joints
        m_nx = model.norm_stats.mean[3 + 3 * n:]
        s_nx = model.norm_stats.std[3 + 3 * n:]
        Y = (next_raw - m_nx) / s_nx - (state_sa[:, :2 * n] - m_nx) / s_nx
        assert np.array_equal(r, (forward(model, X) - Y).ravel())

    def test_collapsed_bound_has_a_zero_column(self):
        pinned = ParamBounds(p_min=150.0, p_max=150.0)
        _, model, state_sa, next_raw = self.case(41, bounds=pinned)
        _, jacobian = make_param_residuals(model, state_sa, next_raw)(
            np.array([3.0, 150.0, 12.0]))
        J = jacobian()
        assert np.all(J[:, 1] == 0.0)
        assert np.all(np.any(J[:, [0, 2]] != 0.0, axis=0))

    def test_returned_arrays_outlive_the_next_call(self):
        # LM keeps the accepted r and J while it evaluates a trial point
        _, model, state_sa, next_raw = self.case(42)
        residuals = make_param_residuals(model, state_sa, next_raw)
        a = np.array([3.0, 150.0, 12.0])
        r, jacobian = residuals(a)
        J = jacobian()
        r0, J0 = r.copy(), J.copy()
        residuals(np.array([8.0, 40.0, 1.0]))[1]()
        assert np.array_equal(r, r0) and np.array_equal(J, J0)

    def test_stale_jacobian_raises(self):
        # a later call overwrites the activations a jacobian() reads
        _, model, state_sa, next_raw = self.case(43)
        residuals = make_param_residuals(model, state_sa, next_raw)
        a, b = np.array([3.0, 150.0, 12.0]), np.array([8.0, 40.0, 1.0])
        _, stale = residuals(a)
        _, fresh = residuals(b)
        with pytest.raises(RuntimeError, match="overwritten"):
            stale()
        J_b = fresh()
        assert np.array_equal(J_b, fresh())  # asked twice, the same bits
        _, again = residuals(a)
        with pytest.raises(RuntimeError):
            fresh()
        assert not np.array_equal(again(), J_b)


class TestWorkspacePasses:
    """A pass gives the same bits in a used workspace sized for more rows as
    in a fresh one sized for its batch, and the parameter objective keeps no
    state between calls."""

    @pytest.mark.parametrize("dims, rows, ws_rows", [
        ((9, 16, 16, 4), 7, 7),
        ((9, 16, 16, 4), 5, 12),  # a partial batch in a larger workspace
        ((12, 32, 8, 6), 33, 40),
        ((5, 8, 24, 16, 3), 1, 4),
    ])
    def test_bit_identical_to_fresh_arrays(self, dims, rows, ws_rows):
        rng = np.random.default_rng(sum(dims) + rows)
        model = init(dims, 1)
        for b in model.biases:
            b[:] = rng.normal(size=b.shape)
        X = rng.normal(size=(rows, dims[0]))
        delta_out = rng.normal(size=(rows, dims[-1]))
        delta_before = delta_out.copy()
        fresh = workspace(dims, rows)
        out, acts = forward_normalized(model, X, fresh)
        dWs, dbs, dX = backward_from_delta(model, acts, delta_out, fresh)
        ws = workspace(dims, ws_rows)
        for _ in range(2):  # a used workspace gives the same bits again
            ws_out, ws_acts = forward_normalized(model, X, ws)
            assert np.array_equal(ws_out, out)
            assert all(np.array_equal(a, b) for a, b in zip(ws_acts, acts))
            ws_dWs, ws_dbs, ws_dX = backward_from_delta(model, ws_acts,
                                                        delta_out, ws)
            assert np.array_equal(ws_dX, dX)
            assert all(np.array_equal(a, b) for a, b in zip(ws_dWs, dWs))
            assert all(np.array_equal(a, b) for a, b in zip(ws_dbs, dbs))
            # every result is written into the workspace
            assert np.shares_memory(ws_out, ws.acts[-1])
            assert np.shares_memory(ws_dX, ws.deltas[0])
            assert ws_dWs is ws.dWs and ws_dbs is ws.dbs
        # the caller's output delta is left as it was
        assert np.array_equal(delta_out, delta_before)

    @pytest.mark.parametrize("partial", [False, True])
    def test_input_gradient_only(self, partial):
        # a workspace without weight gradients gives a full one's dX, over
        # all its rows or the leading rows of a larger one
        rng = np.random.default_rng(4)
        model = random_model(5)
        X = rng.normal(size=(6, 9))
        delta_out = rng.normal(size=(6, 4))
        full = workspace(model.layer_dims, 6)
        _, acts = forward_normalized(model, X, full)
        _, _, dX = backward_from_delta(model, acts, delta_out, full)
        lean = workspace(model.layer_dims, 9 if partial else 6, grads="inputs")
        _, acts = forward_normalized(model, X, lean)
        dWs, dbs, dX_only = backward_from_delta(model, acts, delta_out, lean)
        assert dWs is None and dbs is None
        assert np.array_equal(dX_only, dX)

    def objective_case(self):
        rng = np.random.default_rng(16)
        stats = NormStats(rng.normal(size=13), rng.random(13) + 0.5)
        model = random_model(17, hidden=8, stats=stats)
        return (model, rng.normal(size=(20, 3 * N)),
                rng.normal(size=(20, 2 * N)))

    def test_objective_keeps_no_state_between_calls(self):
        model, state_sa, next_raw = self.objective_case()
        residuals = make_param_residuals(model, state_sa, next_raw)
        a, b = np.array([3.0, 150.0, 12.0]), np.array([8.0, 40.0, 1.0])
        r_a, jacobian = residuals(a)
        J_a = jacobian()
        r_b, jacobian = residuals(b)
        J_b = jacobian()
        assert not np.array_equal(r_b, r_a)
        r_a2, jacobian = residuals(a)
        assert np.array_equal(r_a2, r_a)
        assert np.array_equal(jacobian(), J_a)
        # residuals whose Jacobian no one asks for are the same bits
        assert np.array_equal(residuals(a)[0], r_a)
        assert np.array_equal(residuals(b)[0], r_b)
        # param_loss_and_grad is their mean square and its gradient, bit for bit
        B = len(state_sa)
        loss_w, grad_w = param_loss_and_grad(model, b, state_sa, next_raw)
        assert loss_w == float(r_b @ r_b) / B
        assert np.array_equal(grad_w, (2.0 / B) * (r_b @ J_b))

    def test_objective_gradient_matches_fd(self):
        # param_loss_and_grad's gradient against central differences of the
        # loss from the forward-only residuals
        model, state_sa, next_raw = self.objective_case()
        residuals = make_param_residuals(model, state_sa, next_raw)
        fpd = np.array([3.0, 150.0, 12.0])
        _, g = param_loss_and_grad(model, fpd, state_sa, next_raw)
        u = BOUNDS.to_unit(fpd)

        def loss_at_u():
            r = residuals(BOUNDS.from_unit(u))[0]
            return float(r @ r) / len(state_sa)

        fd = central_fd(loss_at_u, u, eps=1e-7)
        for k in range(3):
            denom = max(abs(fd[k]), abs(g[k]), 1e-8)
            assert abs(g[k] - fd[k]) / denom <= 1e-4

    def test_objective_workspace_holds_no_weight_grads(self, monkeypatch):
        # the residuals' workspace has no weight-gradient buffers, and its
        # values are the bits of one that has them
        model, state_sa, next_raw = self.objective_case()
        fpds = [np.array([3.0, 150.0, 12.0]), np.array([8.0, 40.0, 1.0])]
        make, built = surrogate.workspace, []

        def recording_workspace(layer_dims, rows, grads="weights"):
            built.append(make(layer_dims, rows, grads))
            return built[-1]

        monkeypatch.setattr(surrogate, "workspace", recording_workspace)
        residuals = make_param_residuals(model, state_sa, next_raw)
        lean = []
        for fpd in fpds:
            r, jacobian = residuals(fpd)
            lean.append((r, jacobian()))
        assert len(built) == 1
        assert built[0].dWs is None and built[0].dbs is None
        monkeypatch.setattr(surrogate, "workspace",
                            lambda layer_dims, rows, grads="weights":
                            make(layer_dims, rows))
        residuals = make_param_residuals(model, state_sa, next_raw)
        for (r, J), fpd in zip(lean, fpds):
            full_r, full_jacobian = residuals(fpd)
            assert np.array_equal(r, full_r)
            assert np.array_equal(J, full_jacobian())


class TestTraining:
    def small_dataset(self):
        cfg = PlantConfig()
        eps = make_synthetic_real(PhysParams(2.0, 100.0, 5.0), 2, 20, cfg, 0)
        cands = sample_params(5, BOUNDS, seed=1)
        return generate_transition_arrays(eps, cands, cfg)

    def test_loss_decreases(self):
        data = self.small_dataset()
        stats = compute_norm_stats(data)
        model = init(default_layer_dims(N, hidden=16), 0, norm_stats=stats,
                     bounds=BOUNDS)
        model = train(model, data, TrainConfig(max_epochs=80, seed=0))
        h = model.training_meta["loss_history"]
        assert len(h) == 80
        assert h[-1] < 0.5 * h[0]
        assert min(h) == min(h[-5:])  # still improving near the end
        assert model.training_meta["stop_reason"] == "max_epochs"

    def test_training_is_deterministic(self):
        data = self.small_dataset()
        stats = compute_norm_stats(data)
        out = []
        for _ in range(2):
            model = init(default_layer_dims(N, hidden=8), 1, norm_stats=stats,
                         bounds=BOUNDS)
            model = train(model, data, TrainConfig(max_epochs=5, seed=2))
            out.append(model)
        for w1, w2 in zip(out[0].weights, out[1].weights):
            np.testing.assert_array_equal(w1, w2)
        assert out[0].training_meta["loss_history"] == \
            out[1].training_meta["loss_history"]

    def test_flat_loss_trains_to_its_budget(self):
        # with a zero step the loss never moves, and nothing but max_epochs
        # ends training
        data = self.small_dataset()
        model = init(default_layer_dims(N, hidden=8), 0,
                     norm_stats=compute_norm_stats(data), bounds=BOUNDS)
        model = train(model, data, TrainConfig(learning_rate=0.0,
                                               max_epochs=250, seed=0))
        assert model.training_meta["epochs_run"] == 250
        assert model.training_meta["stop_reason"] == "max_epochs"

    def test_workspace_matches_fresh_array_oracle(self):
        # training reuses one workspace, where the short batch of 8 that 200
        # rows in batches of 64 end on runs in the leading rows; every epoch
        # reaches the bits of an oracle that runs each minibatch in a fresh
        # workspace of its size
        data = self.small_dataset()
        assert len(data) == 200
        stats = compute_norm_stats(data)
        cfg = TrainConfig(batch_size=64, max_epochs=4, seed=3)
        model = init(default_layer_dims(N, hidden=8), 4, norm_stats=stats,
                     bounds=BOUNDS)
        oracle = init(default_layer_dims(N, hidden=8), 4, norm_stats=stats,
                      bounds=BOUNDS)
        model = train(model, data, cfg)

        X = build_input(oracle, data[:, :3], data[:, 3:9])
        Y = ((data[:, 9:] - stats.mean[9:]) / stats.std[9:]
             - (data[:, 3:7] - stats.mean[9:]) / stats.std[9:])
        rng = np.random.default_rng(cfg.seed)
        arrays = oracle.weights + oracle.biases
        m = [np.zeros_like(a) for a in arrays]
        v = [np.zeros_like(a) for a in arrays]
        t, history = 0, []
        for epoch in range(cfg.max_epochs):
            order = rng.permutation(len(X))
            losses = 0.0
            for start in range(0, len(X), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                loss, dWs, dbs, _ = backprop(
                    oracle, X[idx], Y[idx], workspace(oracle.layer_dims, len(idx)))
                losses += loss * len(idx)
                t += 1
                adam_step(arrays, dWs + dbs, m, v, t,
                          cfg.learning_rate * surrogate.LR_DECAY ** epoch)
            history.append(losses / len(X))
        assert model.training_meta["loss_history"] == history
        for a, b in zip(model.weights + model.biases, arrays):
            assert np.array_equal(a, b)

    # sha256 of the weights, biases and loss history after
    # test_pinned_digest's run; they hold for the numpy and BLAS build the
    # tests run on, whose matmul kernels fix the sums' order
    TRAIN_DIGEST = "62d21507ee9aba1139f6c88af64c136a1f6e446d70450843b6b3f0cda2e3500c"

    def test_pinned_digest(self):
        # four epochs of 200 rows in batches of 64, the last one short
        data = self.small_dataset()
        before = data.copy()
        model = init(default_layer_dims(N, hidden=8), 4,
                     norm_stats=compute_norm_stats(data), bounds=BOUNDS)
        model = train(model, data, TrainConfig(batch_size=64, max_epochs=4,
                                               seed=3))
        h = hashlib.sha256()
        for a in model.weights + model.biases:
            h.update(a.tobytes())
        h.update(np.array(model.training_meta["loss_history"]).tobytes())
        assert h.hexdigest() == self.TRAIN_DIGEST
        assert data.tobytes() == before.tobytes()  # the rows are only read

    def test_peak_memory_is_a_fraction_of_the_rows(self):
        # each minibatch is normalized on its own: above its entry, training
        # holds one epoch's order and a batch-sized workspace, not a
        # normalized copy of the 50,000 rows
        cfg = PlantConfig()
        eps = make_synthetic_real(PhysParams(5.0, 300.0, 20.0), 20, 50, cfg, 31)
        data = generate_transition_arrays(eps, sample_params(50, BOUNDS, 32), cfg)
        assert len(data) == 50_000
        model = init(default_layer_dims(N, hidden=16), 0,
                     norm_stats=compute_norm_stats(data), bounds=BOUNDS)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(model, data, TrainConfig(max_epochs=1, seed=0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * data.nbytes

    def test_train_builds_one_workspace_per_call(self, monkeypatch):
        # a regression to fresh arrays on every minibatch changes these
        # counts: one workspace per call, sized to a full batch, and every
        # pass runs in it
        built, passes = [], []
        make, run = surrogate.workspace, surrogate.backprop

        def counting_workspace(layer_dims, rows):
            built.append(rows)
            return make(layer_dims, rows)

        def recording_backprop(model, X, Y, ws=None):
            passes.append(ws)
            return run(model, X, Y, ws=ws)

        monkeypatch.setattr(surrogate, "workspace", counting_workspace)
        monkeypatch.setattr(surrogate, "backprop", recording_backprop)
        data = self.small_dataset()
        for batch_size in (64, 1000):
            model = init(default_layer_dims(N, hidden=8), 0,
                         norm_stats=compute_norm_stats(data), bounds=BOUNDS)
            train(model, data, TrainConfig(max_epochs=2, batch_size=batch_size))
        assert built == [64, 200]
        assert len(passes) == 2 * 4 + 2 * 1
        assert all(ws is not None for ws in passes)

    def test_divergence_raises(self):
        data = self.small_dataset()
        stats = compute_norm_stats(data)
        model = init(default_layer_dims(N, hidden=8), 0, norm_stats=stats,
                     bounds=BOUNDS)
        model.weights[2][:] = 1e200
        with pytest.raises(TrainingDiverged):
            train(model, data, TrainConfig(max_epochs=3, seed=0))

    def test_rejects_empty_dataset(self):
        model = random_model(0)
        with pytest.raises(ValueError):
            train(model, np.zeros((0, 13)), TrainConfig(max_epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)  # no loss to report
        with pytest.raises(ValueError):
            TrainConfig(hidden_width=0)  # no layer to build


class TestAdamStep:
    def test_first_step_moves_by_lr_times_sign(self):
        # after bias correction the first Adam step is lr * g / (|g| + eps)
        g = np.array([3.0, -0.5, 0.0])
        p = np.ones(3)
        m, v = [np.zeros(3)], [np.zeros(3)]
        adam_step([p], [g], m, v, 1, 0.01)
        np.testing.assert_allclose(p, 1.0 - 0.01 * g / (np.abs(g) + ADAM_EPS),
                                   rtol=1e-12)
        np.testing.assert_allclose(m[0], 0.1 * g, rtol=1e-15)
        np.testing.assert_allclose(v[0], 0.001 * g ** 2, rtol=1e-15)

    def test_updates_every_array_in_place(self):
        ws = [np.zeros((2, 2)), np.zeros(2)]
        before = [id(w) for w in ws]
        m = [np.zeros_like(w) for w in ws]
        v = [np.zeros_like(w) for w in ws]
        moments = [id(a) for a in m + v]
        adam_step(list(ws), [np.ones((2, 2)), -np.ones(2)], m, v, 1, 0.1)
        assert [id(w) for w in ws] == before
        assert [id(a) for a in m + v] == moments
        assert np.all(ws[0] < 0) and np.all(ws[1] > 0)


class TestBuildInput:
    def test_layout(self):
        rng = np.random.default_rng(0)
        stats = NormStats(rng.normal(size=13), rng.random(13) + 0.5)
        model = random_model(0, stats=stats)
        fpd = np.array([[0.0, 1.0, 0.1]])  # the lower bounds
        sa = rng.normal(size=(1, 6))
        X = build_input(model, fpd, sa)
        assert X.shape == (1, 9)
        np.testing.assert_array_equal(X[0, :3], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            X[0, 3:], (sa[0] - stats.mean[3:9]) / stats.std[3:9], atol=1e-15)
