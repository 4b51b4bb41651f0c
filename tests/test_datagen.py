"""Tests for transition-dataset construction and normalization statistics."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from armcal.datagen import (EXCITATION_HOLD_STEPS, STD_FLOOR, DatagenConfig,
                            Episode, EpisodeSet, NormStats, compute_norm_stats,
                            episode_arrays, excitation_actions,
                            generate_transition_arrays, make_synthetic_real,
                            sample_params, teacher_forced_next)
from armcal.plant import (ParamBounds, PhysParams, PlantConfig, rollout_batch,
                          step_batch)


BOUNDS = ParamBounds()
CFG = PlantConfig()


class TestDatagenConfig:
    @pytest.mark.parametrize("bad", [
        {"n_episodes": 0}, {"horizon": 0}, {"n_param_sets": -1},
        {"truth": (1.0, -2.0, 3.0)}, {"truth": (1.0, float("nan"), 3.0)},
        {"truth": (1.0, 2.0)}, {"truth": (1.0, 2.0, 3.0, 4.0)}])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            DatagenConfig(**bad)


class TestSampleParams:
    def test_count_and_bounds(self):
        draws = sample_params(200, BOUNDS, seed=0)
        assert len(draws) == 200
        arr = np.array([p.as_array() for p in draws])
        assert np.all(arr >= BOUNDS.lows())
        assert np.all(arr <= BOUNDS.highs())

    def test_deterministic_per_seed(self):
        a = sample_params(10, BOUNDS, seed=5)
        b = sample_params(10, BOUNDS, seed=5)
        c = sample_params(10, BOUNDS, seed=6)
        assert all(np.array_equal(x.as_array(), y.as_array())
                   for x, y in zip(a, b))
        assert any(not np.array_equal(x.as_array(), y.as_array())
                   for x, y in zip(a, c))

    def test_coverage_spans_range(self):
        # 500 uniform draws should fill each coordinate's range fairly well
        arr = np.array([p.as_array() for p in sample_params(500, BOUNDS, 1)])
        span = BOUNDS.highs() - BOUNDS.lows()
        assert np.all(arr.min(axis=0) < BOUNDS.lows() + 0.05 * span)
        assert np.all(arr.max(axis=0) > BOUNDS.highs() - 0.05 * span)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_params(0, BOUNDS, seed=0)


class TestExcitation:
    def test_piecewise_constant_hold(self):
        rng = np.random.default_rng(0)
        targets = excitation_actions(50, 2, rng)
        assert targets.shape == (50, 2)
        for seg in range(5):
            block = targets[seg * EXCITATION_HOLD_STEPS:
                            (seg + 1) * EXCITATION_HOLD_STEPS]
            assert np.all(block == block[0])
        # consecutive segments differ almost surely
        levels = targets[::EXCITATION_HOLD_STEPS]
        assert np.any(levels[1:] != levels[:-1])

    def test_range_and_partial_tail(self):
        rng = np.random.default_rng(3)
        targets = excitation_actions(25, 3, rng)
        assert targets.shape == (25, 3)
        assert np.all(np.abs(targets) <= np.pi)
        # 25 = 2 full segments + a 5-step partial third
        assert np.all(targets[20:] == targets[20])


class TestSyntheticReal:
    def test_shapes_and_determinism(self):
        truth = PhysParams(2.0, 100.0, 5.0)
        eps = make_synthetic_real(truth, 4, 12, CFG, seed=9)
        assert len(eps.episodes) == 4
        assert eps.source == "synthetic-real"
        for ep in eps.episodes:
            assert ep.horizon == 12
            assert ep.actions.shape == (12, 2)
            assert ep.q.shape == ep.qd.shape == (13, 2)
        eps2 = make_synthetic_real(truth, 4, 12, CFG, seed=9)
        for e1, e2 in zip(eps.episodes, eps2.episodes):
            assert np.array_equal(e1.q, e2.q)
            assert np.array_equal(e1.qd, e2.qd)

    def test_episodes_distinct(self):
        eps = make_synthetic_real(PhysParams(1.0, 50.0, 2.0), 3, 5, CFG, 0)
        inits = [ep.q[0] for ep in eps.episodes]
        assert not np.array_equal(inits[0], inits[1])

    def test_observed_matches_plant_replay(self):
        # noise-free observations must equal a manual step-by-step replay
        truth = PhysParams(3.0, 80.0, 4.0)
        eps = make_synthetic_real(truth, 2, 8, CFG, seed=4)
        for ep in eps.episodes:
            q, qd = ep.q[:1].copy(), ep.qd[:1].copy()
            for t, act in enumerate(ep.actions):
                step_batch(truth.as_array()[None, :], q, qd, act[None, :], CFG)
                np.testing.assert_array_equal(q[0], ep.q[t + 1])
                np.testing.assert_array_equal(qd[0], ep.qd[t + 1])

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_batch_matches_per_episode_rollout(self, noise):
        # each episode drawn from its own spawned generator and rolled on its
        # own, as one rollout per episode: bit for bit the same records
        cfg = PlantConfig(n_joints=3, obs_noise_std=noise)
        truth = PhysParams(3.0, 80.0, 4.0)
        eps = make_synthetic_real(truth, 4, 23, cfg, seed=11)
        children = np.random.SeedSequence(11).spawn(4)
        for ep, child in zip(eps.episodes, children):
            rng = np.random.default_rng(child)
            q0, qd0 = rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.5, 0.5, 3)
            actions = excitation_actions(23, 3, rng)
            noise_seed = rng.integers(0, 2**63) if noise > 0 else None
            q, qd = rollout_batch(truth.as_array(), q0[None, :], qd0[None, :],
                                  actions[None], cfg, [noise_seed])
            np.testing.assert_array_equal(actions, ep.actions)
            np.testing.assert_array_equal(q[0], ep.q)
            np.testing.assert_array_equal(qd[0], ep.qd)
        if noise > 0:  # the noise really is on the records
            clean = make_synthetic_real(truth, 4, 23, PlantConfig(n_joints=3), 11)
            assert not np.array_equal(clean.episodes[0].q[5],
                                      eps.episodes[0].q[5])

    def test_rejects_degenerate_sizes(self):
        truth = PhysParams(1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            make_synthetic_real(truth, 0, 5, CFG, 0)
        with pytest.raises(ValueError):
            make_synthetic_real(truth, 1, 0, CFG, 0)

    def test_episode_length_validation(self):
        with pytest.raises(ValueError):
            Episode(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)))


class TestDatasetGeneration:
    def test_row_count_and_layout(self):
        eps = make_synthetic_real(PhysParams(2.0, 100.0, 5.0), 3, 7, CFG, 1)
        cands = sample_params(4, BOUNDS, seed=2)
        data = generate_transition_arrays(eps, cands, CFG)
        n = CFG.n_joints
        assert data.shape == (4 * 3 * 7, 3 + 5 * n)
        # parameter-set-major ordering: first M rows carry candidate 0
        m = 3 * 7
        np.testing.assert_array_equal(data[:m, :3],
                                      np.tile(cands[0].as_array(), (m, 1)))
        np.testing.assert_array_equal(data[m:2 * m, :3],
                                      np.tile(cands[1].as_array(), (m, 1)))
        # the episode-state block repeats identically for every candidate
        np.testing.assert_array_equal(data[:m, 3:3 + 3 * n],
                                      data[m:2 * m, 3:3 + 3 * n])

    def test_next_state_is_one_step_teacher_forced(self):
        eps = make_synthetic_real(PhysParams(2.0, 100.0, 5.0), 2, 5, CFG, 1)
        cands = sample_params(3, BOUNDS, seed=2)
        data = generate_transition_arrays(eps, cands, CFG)
        n = CFG.n_joints
        for row in data[::7]:
            q = row[None, 3:3 + n].copy()
            qd = row[None, 3 + n:3 + 2 * n].copy()
            step_batch(row[None, :3], q, qd, row[None, 3 + 2 * n:3 + 3 * n], CFG)
            np.testing.assert_allclose(row[3 + 3 * n:3 + 4 * n], q[0],
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(row[3 + 4 * n:], qd[0],
                                       rtol=0, atol=1e-15)

    def test_truth_params_reproduce_observed_next(self):
        # replaying with the generating parameters recovers the recorded
        # next states exactly (zero noise) -- the identity the refinement
        # objective is built on
        truth = PhysParams(4.0, 200.0, 10.0)
        eps = make_synthetic_real(truth, 2, 6, CFG, seed=8)
        q, qd, acts, nq, nqd = episode_arrays(eps)
        fpd = np.tile(truth.as_array(), (len(q), 1))
        pq, pqd = teacher_forced_next(fpd, q, qd, acts, CFG)
        np.testing.assert_array_equal(pq, nq)
        np.testing.assert_array_equal(pqd, nqd)

    def test_rejects_empty_inputs(self):
        eps = make_synthetic_real(PhysParams(1.0, 10.0, 1.0), 1, 2, CFG, 0)
        with pytest.raises(ValueError):
            generate_transition_arrays(EpisodeSet(()), sample_params(1, BOUNDS, 0), CFG)
        with pytest.raises(ValueError):
            generate_transition_arrays(eps, [], CFG)


def mixed_horizon_episodes():
    """Five episodes of horizons 1, 1, 9, 30 and 30 on a 3-joint plant, the
    last two noisy."""
    cfg = PlantConfig(n_joints=3)
    truth = PhysParams(3.0, 150.0, 8.0)
    parts = (make_synthetic_real(truth, 2, 1, cfg, 4),
             make_synthetic_real(truth, 1, 9, cfg, 5),
             make_synthetic_real(truth, 2, 30,
                                 PlantConfig(n_joints=3, obs_noise_std=1e-3), 6))
    return EpisodeSet(sum((p.episodes for p in parts), ())), cfg


class TestTransitionBits:
    """generate_transition_arrays' rows pinned bit for bit: sha256 of the
    matrix and its shape, for 12,000 rows of 2-joint 50-step episodes and
    for 3-joint episodes of mixed horizons. The digests hold for the numpy
    build the tests run on; another tanh implementation may change them."""

    DIGESTS = {
        "uniform": "42656cc83c90a0ce8783f1e7e5117213c12d0b14a6c7964623fdc4f00a139c08",
        "mixed": "27404aacf63a473de794c99ca34199cb592d190785b709243d26f96284a79ba2",
    }

    @staticmethod
    def case(name):
        if name == "uniform":
            eps = make_synthetic_real(PhysParams(5.0, 300.0, 20.0), 6, 50, CFG, 21)
            return generate_transition_arrays(eps, sample_params(40, BOUNDS, 22),
                                              CFG)
        eps, cfg = mixed_horizon_episodes()
        return generate_transition_arrays(eps, sample_params(7, BOUNDS, 23), cfg)

    @pytest.mark.parametrize("name", ["uniform", "mixed"])
    def test_pinned_digests(self, name):
        data = self.case(name)
        h = hashlib.sha256(repr(data.shape).encode())
        h.update(np.ascontiguousarray(data).tobytes())
        assert h.hexdigest() == self.DIGESTS[name]

    def test_peak_memory_is_the_output(self):
        # one parameter set's rows at a time: above its entry the call
        # holds little besides the 50,000-row matrix it returns
        eps = make_synthetic_real(PhysParams(5.0, 300.0, 20.0), 20, 50, CFG, 31)
        param_sets = sample_params(50, BOUNDS, 32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            data = generate_transition_arrays(eps, param_sets, CFG)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert data.shape == (50_000, 3 + 5 * CFG.n_joints)
        assert peak < 1.1 * data.nbytes


class TestNormStats:
    def test_matches_population_moments(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, (500, 13))
        stats = compute_norm_stats(data)
        np.testing.assert_allclose(stats.mean, data.mean(axis=0))
        np.testing.assert_allclose(stats.std, data.std(axis=0))  # ddof=0

    def test_constant_column_floored(self):
        data = np.ones((10, 4))
        data[:, 1] = np.arange(10)
        stats = compute_norm_stats(data)
        assert stats.std[0] == STD_FLOOR
        assert stats.std[2] == STD_FLOOR
        assert stats.std[1] > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_norm_stats(np.ones((1, 4)))
        with pytest.raises(ValueError):
            NormStats(np.zeros(3), np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            NormStats(np.zeros(3), np.ones(4))
