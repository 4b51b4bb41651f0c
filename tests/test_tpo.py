"""Tests for the trajectory-preference fine-tuning loss and cycle loop:
closed-form loss identities, ranking semantics, and finite-difference policy
gradients."""

import copy

import numpy as np
import pytest

from armcal import plant, surrogate
from armcal.plant import (Action, JointState, PhysParams, PlantConfig,
                          Trajectory, fk)
from armcal.tpo import (CycleReport, PolicyNet, PreferencePair,
                        RankedTrajectory, TpoConfig, _rollout_batch, init_policy,
                        policy_means, rank_and_pair, rollout_policy,
                        run_tpo, tpo_cycle, tpo_delta, tpo_loss,
                        traj_log_prob)

CFG = PlantConfig()
PARAMS = PhysParams(2.0, 100.0, 5.0)
GOAL = np.array([1.2, 0.8])


def make_traj(policy, seed=0, horizon=6):
    rng = np.random.default_rng(seed)
    return rollout_policy(policy, PARAMS, GOAL, CFG, horizon, rng)


class TestPolicy:
    def test_init_shapes(self):
        pol = init_policy(2, hidden=(8, 8), seed=0)
        assert pol.layer_dims == (6, 8, 8, 2)
        assert pol.n_joints == 2
        assert [w.shape for w in pol.weights] == [(8, 6), (8, 8), (2, 8)]

    def test_rollout_structure_and_reward(self):
        pol = init_policy(2, hidden=(8, 8), seed=1)
        rt = make_traj(pol, seed=5, horizon=7)
        assert rt.executed_actions.shape == (7, 2)
        assert len(rt.trajectory.states) == 8
        term = fk(rt.trajectory.states[-1].q, CFG)
        assert rt.reward == pytest.approx(
            -np.linalg.norm(term.x[:2] - GOAL), abs=1e-12)
        assert rt.reward <= 0.0

    def test_rollout_deterministic_under_rng(self):
        pol = init_policy(2, seed=2)
        a = make_traj(pol, seed=9)
        b = make_traj(pol, seed=9)
        np.testing.assert_array_equal(a.executed_actions, b.executed_actions)
        assert a.reward == b.reward

    def test_zero_exploration_executes_means(self):
        pol = init_policy(2, hidden=(8, 8), seed=3, exploration_std=0.0)
        rt = make_traj(pol, seed=0, horizon=5)
        # with no noise the executed actions are the policy means, so the
        # log-probability collapses to zero (up to BLAS batching round-off)
        assert traj_log_prob(pol, rt) == pytest.approx(0.0, abs=1e-24)


class TestLogProb:
    def test_hand_computed_value(self):
        pol = init_policy(2, hidden=(8, 8), seed=4)
        rt = make_traj(pol, seed=1, horizon=4)
        obs = np.array([np.concatenate([s.q, s.qd, GOAL])
                        for s in rt.trajectory.states[:4]])
        means = policy_means(pol, obs)
        expected = -0.5 * np.sum((means - rt.executed_actions) ** 2)
        assert traj_log_prob(pol, rt) == pytest.approx(expected, abs=1e-12)
        assert traj_log_prob(pol, rt) <= 0.0


def synthetic_pair(lp_w_pol, lp_w_ref, lp_l_pol, lp_l_ref, policy, reference):
    """Build a pair and monkeypatch-free check helper: we instead construct
    real trajectories and verify identities on the measured deltas."""


class TestLossIdentities:
    def setup_method(self):
        self.pol = init_policy(2, hidden=(8, 8), seed=5)
        self.ref = copy.deepcopy(self.pol)

    def test_delta_zero_when_policy_equals_reference(self):
        a, b = make_traj(self.pol, 1), make_traj(self.pol, 2)
        chosen, rejected = (a, b) if a.reward >= b.reward else (b, a)
        pair = PreferencePair(chosen, rejected)
        assert tpo_delta(self.pol, self.ref, pair) == 0.0

    def test_loss_ln2_at_zero_delta(self):
        a, b = make_traj(self.pol, 1), make_traj(self.pol, 2)
        chosen, rejected = (a, b) if a.reward >= b.reward else (b, a)
        pairs = [PreferencePair(chosen, rejected)]
        loss, _, _ = tpo_loss(self.pol, self.ref, pairs, beta=1.0)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_loss_ln_4_3_at_delta_ln3(self):
        # -log sigmoid(ln 3) = log(4/3); realized by shifting the reference's
        # log-probs through a constructed executed-action perturbation is
        # fragile, so verify on the scalar formula through a direct delta:
        z = np.log(3.0)
        loss = float(np.log1p(np.exp(-z)))
        assert loss == pytest.approx(np.log(4.0 / 3.0), abs=1e-12)
        # and the implementation reproduces it when delta == ln 3 via beta
        # scaling: pick beta so that beta * measured_delta == ln 3
        a, b = make_traj(self.pol, 3), make_traj(self.pol, 4)
        chosen, rejected = (a, b) if a.reward >= b.reward else (b, a)
        pair = PreferencePair(chosen, rejected)
        other = init_policy(2, hidden=(8, 8), seed=6)
        d = tpo_delta(other, self.ref, pair)
        assert d != 0.0  # distinct policies on distinct trajectories
        beta = np.log(3.0) / d
        loss, _, _ = tpo_loss(other, self.ref, [pair], beta=beta)
        assert loss == pytest.approx(np.log(4.0 / 3.0), abs=1e-10)

    def test_constant_shift_invariance(self):
        # adding the same constant to both trajectories' log-prob differences
        # leaves delta unchanged: realized exactly by swapping in a reference
        # policy, because the reference terms cancel pairwise within delta
        a, b = make_traj(self.pol, 7), make_traj(self.pol, 8)
        chosen, rejected = (a, b) if a.reward >= b.reward else (b, a)
        pair = PreferencePair(chosen, rejected)
        other = init_policy(2, hidden=(8, 8), seed=9)
        d1 = tpo_delta(other, self.ref, pair)
        # delta decomposition: subtracting the same reference from both terms
        direct = (traj_log_prob(other, pair.chosen)
                  - traj_log_prob(other, pair.rejected)) \
            - (traj_log_prob(self.ref, pair.chosen)
               - traj_log_prob(self.ref, pair.rejected))
        assert d1 == pytest.approx(direct, abs=1e-12)

    def test_loss_decreases_in_delta(self):
        # monotonicity: a policy that assigns relatively higher probability to
        # the chosen trajectory must incur lower loss
        a, b = make_traj(self.pol, 10), make_traj(self.pol, 11)
        chosen, rejected = (a, b) if a.reward >= b.reward else (b, a)
        pair = PreferencePair(chosen, rejected)
        other = init_policy(2, hidden=(8, 8), seed=12)
        d = tpo_delta(other, self.ref, pair)
        l_other, _, _ = tpo_loss(other, self.ref, [pair], beta=0.5)
        expected = float(np.log1p(np.exp(-0.5 * d)))
        assert l_other == pytest.approx(expected, abs=1e-12)

    def test_pair_ordering_enforced(self):
        a, b = make_traj(self.pol, 1), make_traj(self.pol, 2)
        worse, better = sorted([a, b], key=lambda t: t.reward)
        with pytest.raises(ValueError):
            PreferencePair(worse, better)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            tpo_loss(self.pol, self.ref, [], beta=0.1)


class TestRanking:
    def fake(self, reward):
        st = JointState(np.zeros(2), np.zeros(2))
        pose = fk(st.q, CFG)
        traj = Trajectory((st, st), (Action(np.zeros(2)),), (pose, pose))
        return RankedTrajectory(traj, np.zeros((1, 2)), GOAL, reward)

    def test_top_bottom_pairing(self):
        rewards = [-5.0, -1.0, -3.0, -2.0, -4.0, -6.0]
        trajs = [self.fake(r) for r in rewards]
        pairs = rank_and_pair(trajs, m=2)
        # descending: -1, -2, -3, -4, -5, -6; bottom-2 block is (-5, -6)
        assert [p.chosen.reward for p in pairs] == [-1.0, -2.0]
        assert [p.rejected.reward for p in pairs] == [-5.0, -6.0]

    def test_stable_ties_keep_input_order(self):
        trajs = [self.fake(r) for r in [-1.0, -1.0, -2.0, -2.0]]
        pairs = rank_and_pair(trajs, m=2)
        assert pairs[0].chosen is trajs[0]
        assert pairs[1].chosen is trajs[1]
        assert pairs[0].rejected is trajs[2]
        assert pairs[1].rejected is trajs[3]

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            rank_and_pair([self.fake(0.0)] * 3, m=2)


class TestPolicyGradients:
    def test_matches_central_fd_over_100_instances(self):
        rng = np.random.default_rng(20)
        pol = init_policy(2, hidden=(6, 6), seed=21)
        ref = init_policy(2, hidden=(6, 6), seed=22)
        trajs = [make_traj(pol, seed=s, horizon=4) for s in range(8)]
        checked = 0
        for trial in range(100):
            i, j = rng.choice(8, size=2, replace=False)
            a, b = trajs[i], trajs[j]
            chosen, rejected = (a, b) if a.reward >= b.reward else (b, a)
            pairs = [PreferencePair(chosen, rejected)]
            loss, dWs, dbs = tpo_loss(pol, ref, pairs, beta=0.7)
            layer = rng.integers(0, 3)
            W = pol.weights[layer]
            r, c = rng.integers(0, W.shape[0]), rng.integers(0, W.shape[1])
            eps = 1e-6
            old = W[r, c]
            W[r, c] = old + eps
            hi = tpo_loss(pol, ref, pairs, beta=0.7)[0]
            W[r, c] = old - eps
            lo = tpo_loss(pol, ref, pairs, beta=0.7)[0]
            W[r, c] = old
            fd = (hi - lo) / (2 * eps)
            denom = max(abs(fd), abs(dWs[layer][r, c]), 1e-8)
            assert abs(dWs[layer][r, c] - fd) / denom <= 1e-4
            # bias gradient too
            bvec = pol.biases[layer]
            k = rng.integers(0, bvec.shape[0])
            old = bvec[k]
            bvec[k] = old + eps
            hi = tpo_loss(pol, ref, pairs, beta=0.7)[0]
            bvec[k] = old - eps
            lo = tpo_loss(pol, ref, pairs, beta=0.7)[0]
            bvec[k] = old
            fd = (hi - lo) / (2 * eps)
            denom = max(abs(fd), abs(dbs[layer][k]), 1e-8)
            assert abs(dbs[layer][k] - fd) / denom <= 1e-4
            checked += 1
        assert checked >= 100


class TestCycles:
    def test_cycle_report_structure(self):
        pol = init_policy(2, hidden=(8, 8), seed=0)
        cfg = TpoConfig(m=2, rollouts_per_cycle=6, epochs_per_cycle=3,
                        cycles=1, rollout_horizon=4, seed=0)
        pol, rep = tpo_cycle(pol, PARAMS, GOAL, cfg, CFG, cycle_index=0)
        assert isinstance(rep, CycleReport)
        assert rep.cycle == 0
        assert np.isfinite(rep.mean_reward_before)
        assert np.isfinite(rep.mean_reward_after)
        assert rep.loss_first > 0 and rep.loss_last > 0

    def test_cycle_deterministic(self):
        cfg = TpoConfig(m=2, rollouts_per_cycle=6, epochs_per_cycle=3,
                        cycles=1, rollout_horizon=4, seed=5)
        outs = []
        for _ in range(2):
            pol = init_policy(2, hidden=(8, 8), seed=1)
            pol, rep = tpo_cycle(pol, PARAMS, GOAL, cfg, CFG, cycle_index=0)
            outs.append((pol, rep))
        for w1, w2 in zip(outs[0][0].weights, outs[1][0].weights):
            np.testing.assert_array_equal(w1, w2)
        assert outs[0][1] == outs[1][1]

    def test_loss_decreases_within_cycle(self):
        pol = init_policy(2, hidden=(8, 8), seed=3)
        cfg = TpoConfig(m=5, rollouts_per_cycle=20, epochs_per_cycle=40,
                        cycles=1, rollout_horizon=5, seed=1)
        _, rep = tpo_cycle(pol, PARAMS, GOAL, cfg, CFG, cycle_index=0)
        assert rep.loss_last < rep.loss_first

    def test_run_tpo_produces_one_report_per_cycle(self):
        pol = init_policy(2, hidden=(8, 8), seed=4)
        cfg = TpoConfig(m=2, rollouts_per_cycle=6, epochs_per_cycle=2,
                        cycles=3, rollout_horizon=3, seed=2)
        _, reports = run_tpo(pol, PARAMS, GOAL, cfg, CFG)
        assert [r.cycle for r in reports] == [0, 1, 2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TpoConfig(beta=0.0)
        with pytest.raises(ValueError):
            TpoConfig(m=10, rollouts_per_cycle=19)


def _loop_loss(policy, reference, pairs, beta):
    """The preference loss one trajectory at a time: deltas from tpo_delta,
    gradients from one backward pass per trajectory, summed."""
    z = beta * np.array([tpo_delta(policy, reference, pr) for pr in pairs])
    loss = float(np.mean(np.log1p(np.exp(-z))))
    coeff = -beta / (1.0 + np.exp(z)) / len(pairs)
    dWs = [np.zeros_like(W) for W in policy.weights]
    dbs = [np.zeros_like(b) for b in policy.biases]
    for c, pr in zip(coeff, pairs):
        for rt, sign in ((pr.chosen, 1.0), (pr.rejected, -1.0)):
            obs = np.array([np.concatenate([s.q, s.qd, rt.goal])
                            for s in rt.trajectory.states[:-1]])
            means, acts = surrogate.forward_normalized(policy, obs, keep_cache=True)
            gW, gb, _ = surrogate.backward_from_delta(
                policy, acts, c * sign * -(means - rt.executed_actions))
            for acc, g in zip(dWs + dbs, gW + gb):
                acc += g
    return loss, dWs, dbs


class TestBatchedPaths:
    def test_lockstep_rollouts_match_single_rollouts(self):
        pol = init_policy(2, seed=30)
        children = np.random.SeedSequence(31).spawn(20)
        batch = _rollout_batch(pol, PARAMS, GOAL, CFG, 25,
                               [np.random.default_rng(c) for c in children])
        for rt, child in zip(batch, children):
            one = rollout_policy(pol, PARAMS, GOAL, CFG, 25,
                                 np.random.default_rng(child))
            np.testing.assert_allclose(rt.executed_actions, one.executed_actions,
                                       rtol=0, atol=1e-12)
            for s, s1 in zip(rt.trajectory.states, one.trajectory.states):
                np.testing.assert_allclose(s.q, s1.q, rtol=0, atol=1e-12)
                np.testing.assert_allclose(s.qd, s1.qd, rtol=0, atol=1e-12)
            assert abs(rt.reward - one.reward) <= 1e-12
            assert len(rt.trajectory.poses) == 26
            np.testing.assert_allclose(rt.trajectory.poses[-1].x[:2],
                                       fk(rt.trajectory.states[-1].q, CFG).x[:2],
                                       rtol=0, atol=1e-15)

    def test_nan_weight_raises_in_batched_rollout(self):
        pol = init_policy(2, hidden=(8, 8), seed=32)
        pol.weights[1][0, 0] = np.nan
        rngs = [np.random.default_rng(s) for s in range(6)]
        with pytest.raises(ValueError):
            _rollout_batch(pol, PARAMS, GOAL, CFG, 4, rngs)

    def test_loss_and_gradients_match_sum_of_deltas(self):
        pol = init_policy(2, hidden=(8, 8), seed=33)
        ref = init_policy(2, hidden=(8, 8), seed=34)
        trajs = [make_traj(ref, seed=s, horizon=5) for s in range(12)]
        pairs = rank_and_pair(trajs, 5)
        loss, dWs, dbs = tpo_loss(pol, ref, pairs, beta=0.4)
        want, want_W, want_b = _loop_loss(pol, ref, pairs, beta=0.4)
        assert loss == pytest.approx(want, rel=1e-12)
        for got, exp in zip(dWs + dbs, want_W + want_b):
            np.testing.assert_allclose(got, exp, rtol=1e-10, atol=1e-15)


class TestCallCounts:
    def test_one_cycle_batches_every_call(self, monkeypatch):
        # a regression to one-rollout-at-a-time stepping, to a per-epoch
        # reference pass or to objects for the after-update batch changes
        # these counts
        calls = {"step_batch": 0, "fk_poses": 0, "forward_rows": []}
        step_batch, forward = plant.step_batch, surrogate.forward_normalized
        fk_poses = plant.fk_poses

        def counting_step_batch(*args, **kwargs):
            calls["step_batch"] += 1
            return step_batch(*args, **kwargs)

        def counting_fk_poses(*args, **kwargs):
            calls["fk_poses"] += 1
            return fk_poses(*args, **kwargs)

        def counting_forward(model, X, *args, **kwargs):
            calls["forward_rows"].append(len(X))
            return forward(model, X, *args, **kwargs)

        def no_fk(*args, **kwargs):
            raise AssertionError("per-step plant.fk called")

        monkeypatch.setattr(plant, "step_batch", counting_step_batch)
        monkeypatch.setattr(plant, "fk", no_fk)
        monkeypatch.setattr(plant, "fk_poses", counting_fk_poses)
        monkeypatch.setattr(surrogate, "forward_normalized", counting_forward)
        cfg = TpoConfig(m=3, rollouts_per_cycle=10, epochs_per_cycle=7,
                        cycles=1, rollout_horizon=4, seed=3)
        tpo_cycle(init_policy(2, hidden=(8, 8), seed=35), PARAMS, GOAL, cfg, CFG)
        assert calls["step_batch"] == 2 * cfg.rollout_horizon
        # poses, and the other per-step objects, only for the ranked batch;
        # the after-update batch is scored from its arrays
        assert calls["fk_poses"] == 1
        rows = calls["forward_rows"]
        assert rows.count(cfg.rollouts_per_cycle) == 2 * cfg.rollout_horizon
        pair_rows = 2 * cfg.m * cfg.rollout_horizon
        assert rows.count(pair_rows) == cfg.epochs_per_cycle + 1
        assert len(rows) == 2 * cfg.rollout_horizon + cfg.epochs_per_cycle + 1
