"""Tests for the MLP surrogate: forward math, exact gradients vs central
finite differences, training behavior, and the input-normalization pipeline."""

import numpy as np
import pytest

from armcal import surrogate
from armcal.datagen import (NormStats, compute_norm_stats,
                            generate_transition_arrays, make_synthetic_real,
                            sample_params)
from armcal.plant import ParamBounds, PhysParams, PlantConfig
from armcal.surrogate import (ADAM_EPS, MlpCheckpoint, TrainConfig,
                              TrainingDiverged, adam_step, backprop,
                              build_input, default_layer_dims,
                              forward_batch_raw, forward_normalized, init,
                              param_loss_and_grad, params_to_unit, train,
                              unit_to_params)

BOUNDS = ParamBounds()
N = 2  # joints used throughout


def tiny_stats(dim=3 + 5 * N):
    # identity normalization so hand computations stay readable
    return NormStats(np.zeros(dim), np.ones(dim))


def random_model(rng_seed, hidden=16, stats=None):
    return init(default_layer_dims(N, hidden=hidden), rng_seed,
                norm_stats=stats or tiny_stats(), bounds=BOUNDS)


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
        u = params_to_unit(fpd, BOUNDS)
        assert np.all(u >= 0) and np.all(u <= 1)
        np.testing.assert_allclose(unit_to_params(u, BOUNDS), fpd, atol=1e-12)

    def test_endpoints(self):
        np.testing.assert_array_equal(
            params_to_unit(BOUNDS.lows()[None, :], BOUNDS)[0], [0, 0, 0])
        np.testing.assert_array_equal(
            params_to_unit(BOUNDS.highs()[None, :], BOUNDS)[0], [1, 1, 1])

    def test_collapsed_bounds_map_to_half(self):
        collapsed = ParamBounds(f_min=2.0, f_max=2.0)
        u = params_to_unit(np.array([[2.0, 100.0, 5.0]]), collapsed)
        assert u[0, 0] == 0.5


class TestForward:
    def test_matches_explicit_composition(self):
        model = random_model(1)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(7, 9))
        W0, W1, W2 = model.weights
        b0, b1, b2 = model.biases
        expected = np.tanh(np.tanh(X @ W0.T + b0) @ W1.T + b1) @ W2.T + b2
        np.testing.assert_allclose(forward_normalized(model, X), expected,
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
        out = forward_normalized(model, x)
        assert out[0, 0] == pytest.approx(np.tanh(np.tanh(1.0)), abs=1e-15)
        assert out[0, 0] == pytest.approx(0.6420149920, abs=1e-9)
        assert np.all(out[0, 1:] == 0)

    def test_zero_weights_predict_current_state(self):
        # with a zero network the skip connection carries the prediction:
        # next state == current state, in raw units, for any normalization
        rng = np.random.default_rng(3)
        stats = NormStats(rng.normal(size=13), rng.random(13) + 0.5)
        model = random_model(0, stats=stats)
        for w in model.weights:
            w[:] = 0.0
        sa = rng.normal(size=(1, 3 * N))
        pred = forward_batch_raw(model, np.array([[1.0, 50.0, 2.0]]), sa)
        np.testing.assert_allclose(pred[0], sa[0, :2 * N], atol=1e-12)

    def test_single_and_batch_agree(self):
        rng = np.random.default_rng(4)
        stats = NormStats(rng.normal(size=13), rng.random(13) + 0.5)
        model = random_model(5, stats=stats)
        fpd = np.array([[2.0, 80.0, 3.0], [7.0, 300.0, 20.0]])
        sa = rng.normal(size=(2, 3 * N))
        batch = forward_batch_raw(model, fpd, sa)
        for i in range(2):
            single = forward_batch_raw(model, fpd[i:i + 1], sa[i:i + 1])
            np.testing.assert_allclose(batch[i], single[0], atol=1e-12)

    def test_input_dimension_checked(self):
        model = random_model(0)
        with pytest.raises(ValueError, match="columns"):  # one joint's worth
            forward_batch_raw(model, np.array([[1.0, 1.0, 1.0]]),
                              np.zeros((1, 3)))


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
        u = params_to_unit(fpd[None, :], BOUNDS)[0]

        def loss_at_u():
            fpd[:] = unit_to_params(u[None, :], BOUNDS)[0]
            return param_loss_and_grad(model, fpd, state_sa, next_raw)[0]

        fd = central_fd(loss_at_u, u, eps=1e-7)
        for k in range(3):
            denom = max(abs(fd[k]), abs(g[k]), 1e-8)
            assert abs(g[k] - fd[k]) / denom <= 1e-4


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

    def test_early_stop_on_trivial_target(self):
        # targets equal to the skip-connection baseline: the zero function is
        # optimal and the loss threshold triggers almost immediately
        rng = np.random.default_rng(0)
        data = rng.normal(size=(400, 13))
        data[:, 9:13] = data[:, 3:7]  # next state == current state
        stats = compute_norm_stats(data)
        model = init(default_layer_dims(N, hidden=8), 2, norm_stats=stats,
                     bounds=BOUNDS)
        for w in model.weights:
            w *= 1e-4
        model = train(model, data, TrainConfig(max_epochs=500, seed=0,
                                               early_stop_loss=1e-6))
        assert model.training_meta["stop_reason"] == "early_stop_loss"
        assert model.training_meta["final_loss"] <= 1e-6

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
        adam_step(list(ws), [np.ones((2, 2)), -np.ones(2)], m, v, 1, 0.1)
        assert [id(w) for w in ws] == before
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
