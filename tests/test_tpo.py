"""Tests for the trajectory-preference fine-tuning loss and cycle loop:
closed-form loss identities, ranking semantics, and finite-difference policy
gradients."""

import copy
import dataclasses
import warnings

import numpy as np
import pytest

from armcal import cli, plant, surrogate, tpo
from armcal.plant import (Action, JointState, PhysParams, PlantConfig,
                          Trajectory, fk)
from armcal.tpo import (CycleReport, PreferencePair, RankedTrajectory,
                        TpoConfig, _obs_rows, _pair_loss,
                        _pair_order, _pair_rows, _rollout_arrays, _sigmoid,
                        _spawn_rngs, init_policy, policy_means, rank_and_pair,
                        rollout_policy, run_tpo, tpo_cycle, tpo_delta,
                        tpo_loss, traj_log_prob)

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

    def test_reference_of_other_layer_dims_rejected(self):
        a, b = make_traj(self.pol, 1), make_traj(self.pol, 2)
        pair = PreferencePair(*sorted([a, b], key=lambda t: -t.reward))
        narrow = init_policy(2, hidden=(6, 6), seed=5)
        with pytest.raises(ValueError, match="layer_dims differ"):
            tpo_loss(narrow, self.ref, [pair], beta=0.1)


def _rows_and_policies(seed=37):
    """Cached pair rows of a reference policy and a different policy."""
    ref = init_policy(2, hidden=(8, 8), seed=seed)
    pol = init_policy(2, hidden=(8, 8), seed=seed + 1)
    trajs = [make_traj(ref, seed=s, horizon=5) for s in range(10)]
    pairs = rank_and_pair(trajs, 4)
    rts = [rt for pr in pairs for rt in (pr.chosen, pr.rejected)]
    rows = _pair_rows(ref, [_obs_rows(rt.trajectory.states, rt.goal, 5)
                            for rt in rts],
                      [rt.executed_actions for rt in rts])
    return pol, rows


class TestLargeMargins:
    """The loss and its weight on each pair stay finite, without a warning,
    however far beta * delta is from zero."""

    def test_sigmoid_saturates_without_warning(self):
        with warnings.catch_warnings(), \
                np.errstate(over="raise", invalid="raise", divide="raise"):
            warnings.simplefilter("error")
            assert np.array_equal(_sigmoid(np.array([-800.0, 800.0])), [0.0, 1.0])

    def test_sigmoid_keeps_in_range_bits(self):
        x = np.linspace(-30.0, 30.0, 121)
        want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                        np.exp(x) / (1.0 + np.exp(x)))
        assert np.array_equal(_sigmoid(x), want)

    def test_pair_loss_finite_at_large_beta(self):
        pol, rows = _rows_and_policies()
        with warnings.catch_warnings(), \
                np.errstate(over="raise", invalid="raise", divide="raise"):
            warnings.simplefilter("error")
            loss, dWs, dbs = _pair_loss(pol, rows, beta=1e4)
        assert np.isfinite(loss) and loss > 0
        assert all(np.all(np.isfinite(g)) for g in dWs + dbs)
        assert any(np.any(g != 0) for g in dWs)


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

    def test_pair_order_interleaves_chosen_and_rejected(self):
        # descending: indices 1, 3, 2, 4, 0, 5; pairs (1, 0) and (3, 5)
        rewards = np.array([-5.0, -1.0, -3.0, -2.0, -4.0, -6.0])
        assert _pair_order(rewards, 2).tolist() == [1, 0, 3, 5]
        assert _pair_order(rewards, 3).tolist() == [1, 4, 3, 0, 2, 5]
        with pytest.raises(ValueError):
            _pair_order(rewards, 4)


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
            TpoConfig(m=10, rollouts_per_cycle=19)
        for bad in ({"epochs_per_cycle": 0}, {"cycles": 0}, {"learning_rate": 0.0},
                    {"learning_rate": -1.0}, {"learning_rate": float("nan")},
                    {"exploration_std": 0.0}):  # beta = 1/sigma^2 is infinite
            with pytest.raises(ValueError):
                TpoConfig(**bad)


class TestBeta:
    """A cycle's beta is 1/sigma^2 of the noise that drew its rollouts."""
    CFG = TpoConfig(m=2, rollouts_per_cycle=6, epochs_per_cycle=3, cycles=1,
                    rollout_horizon=4, seed=5)

    @pytest.mark.parametrize("sigma, beta", [(0.5, 4.0), (0.3, 1 / 0.3 ** 2)])
    def test_cycle_trains_at_inverse_exploration_variance(self, monkeypatch,
                                                          sigma, beta):
        seen, pair_loss = [], tpo._pair_loss

        def recording(policy, rows, beta):
            seen.append(beta)
            return pair_loss(policy, rows, beta)

        monkeypatch.setattr(tpo, "_pair_loss", recording)
        pol = init_policy(2, hidden=(8, 8), seed=1, exploration_std=sigma)
        tpo_cycle(pol, PARAMS, GOAL, self.CFG, CFG)
        assert seen == [beta] * self.CFG.epochs_per_cycle

    @pytest.mark.parametrize("sigma", [0.0, -0.3, float("nan")])
    def test_cycle_rejects_noise_that_is_not_positive(self, sigma):
        pol = init_policy(2, hidden=(8, 8), seed=1, exploration_std=sigma)
        with pytest.raises(ValueError, match="exploration_std"):
            tpo_cycle(pol, PARAMS, GOAL, self.CFG, CFG)

    # 1e-200 squares to 0.0, 1e-160 to a subnormal whose inverse is inf, and
    # 1e200 to more than a double holds
    @pytest.mark.parametrize("sigma", [1e-200, 1e-160, 1e200])
    def test_cycle_rejects_noise_whose_beta_is_not_finite(self, sigma):
        pol = init_policy(2, hidden=(8, 8), seed=1, exploration_std=sigma)
        with pytest.raises(ValueError, match="finite and positive"):
            tpo_cycle(pol, PARAMS, GOAL, self.CFG, CFG)


class TestDefaults:
    @pytest.mark.parametrize("fpd", [(2.0, 120.0, 7.0), (8.0, 300.0, 20.0)])
    @pytest.mark.parametrize("seed", [200, 201, 202])
    def test_improves_at_cli_defaults(self, fpd, seed):
        # five cycles at the CLI's default tpo settings end with a better
        # mean reward than the one they start from
        defaults = cli.default_config()["tpo"]
        pol = init_policy(CFG.n_joints, seed=seed,
                          exploration_std=defaults["exploration_std"])
        _, reports = run_tpo(pol, PhysParams(*fpd), np.array(defaults["goal"]),
                             TpoConfig(seed=seed), CFG)
        assert len(reports) == 5
        assert reports[-1].mean_reward_after > reports[0].mean_reward_before


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
            ws = surrogate.workspace(policy.layer_dims, len(obs))
            means, acts = surrogate.forward_normalized(policy, obs, ws)
            gW, gb, _ = surrogate.backward_from_delta(
                policy, acts, c * sign * -(means - rt.executed_actions), ws)
            for acc, g in zip(dWs + dbs, gW + gb):
                acc += g
    return loss, dWs, dbs


class TestBatchedPaths:
    def test_lockstep_rollouts_match_single_rollouts(self):
        pol = init_policy(2, seed=30)
        children = np.random.SeedSequence(31).spawn(20)
        qs, qds, executed, rewards = _rollout_arrays(
            pol, PARAMS, GOAL, CFG, 25, [np.random.default_rng(c) for c in children])
        assert qs.shape == qds.shape == (26, 20, 2)
        assert executed.shape == (25, 20, 2) and rewards.shape == (20,)
        for b, child in enumerate(children):
            one = rollout_policy(pol, PARAMS, GOAL, CFG, 25,
                                 np.random.default_rng(child))
            np.testing.assert_allclose(executed[:, b], one.executed_actions,
                                       rtol=0, atol=1e-12)
            for t, s1 in enumerate(one.trajectory.states):
                np.testing.assert_allclose(qs[t, b], s1.q, rtol=0, atol=1e-12)
                np.testing.assert_allclose(qds[t, b], s1.qd, rtol=0, atol=1e-12)
            assert abs(rewards[b] - one.reward) <= 1e-12
            assert len(one.trajectory.poses) == 26
            np.testing.assert_allclose(one.trajectory.poses[-1].x[:2],
                                       fk(one.trajectory.states[-1].q, CFG).x[:2],
                                       rtol=0, atol=1e-15)

    def test_nan_weight_raises_in_batched_rollout(self):
        pol = init_policy(2, hidden=(8, 8), seed=32)
        pol.weights[1][0, 0] = np.nan
        rngs = [np.random.default_rng(s) for s in range(6)]
        with pytest.raises(ValueError):
            _rollout_arrays(pol, PARAMS, GOAL, CFG, 4, rngs)

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


class TestPairLossWorkspace:
    def test_workspace_epochs_bit_identical(self):
        # five Adam epochs with every pass and gradient in the pair rows' one
        # workspace reach the same bits as five that each run in a fresh one
        pol, rows = _rows_and_policies()
        runs = []
        for reuse in (False, True):
            policy = copy.deepcopy(pol)
            arrays = policy.weights + policy.biases
            m = [np.zeros_like(a) for a in arrays]
            v = [np.zeros_like(a) for a in arrays]
            losses = []
            for t in range(1, 6):
                epoch_rows = rows if reuse else dataclasses.replace(
                    rows, ws=surrogate.workspace(pol.layer_dims, len(rows.obs)))
                loss, dWs, dbs = _pair_loss(policy, epoch_rows, 0.5)
                assert dWs is epoch_rows.ws.dWs and dbs is epoch_rows.ws.dbs
                losses.append(loss)
                surrogate.adam_step(arrays, dWs + dbs, m, v, t, 1e-2)
            runs.append((losses, arrays))
        (fresh_losses, fresh), (ws_losses, reused) = runs
        assert ws_losses == fresh_losses
        assert len(set(fresh_losses)) == 5
        assert all(np.array_equal(a, b) for a, b in zip(fresh, reused))


def _objects_from_arrays(qs, qds, executed, rewards):
    """RankedTrajectory objects holding the rollouts of lockstep arrays."""
    out = []
    for b in range(len(rewards)):
        traj = Trajectory(
            tuple(JointState(q, qd) for q, qd in zip(qs[:, b], qds[:, b])),
            tuple(Action(a) for a in executed[:, b]),
            tuple(plant.fk_poses(qs[:, b], CFG)))
        out.append(RankedTrajectory(traj, executed[:, b].copy(), GOAL,
                                    float(rewards[b])))
    return out


class TestArrayCycle:
    CFG = TpoConfig(m=3, rollouts_per_cycle=10, epochs_per_cycle=2, cycles=1,
                    rollout_horizon=5, seed=4)

    def rows_built_by(self, monkeypatch, fn, *args):
        """The _PairRows that fn(*args) stacks."""
        built = []
        pair_rows = tpo._pair_rows

        def recording(*a):
            built.append(pair_rows(*a))
            return built[-1]

        monkeypatch.setattr(tpo, "_pair_rows", recording)
        fn(*args)
        monkeypatch.setattr(tpo, "_pair_rows", pair_rows)
        assert len(built) == 1
        return built[0]

    def cycle_and_reference(self, monkeypatch):
        pol = init_policy(2, hidden=(8, 8), seed=36)
        ref = copy.deepcopy(pol)
        got = self.rows_built_by(monkeypatch, tpo_cycle, pol, PARAMS, GOAL,
                                 self.CFG, CFG)
        return got, ref

    def rngs(self):
        # the generators tpo_cycle spawns for its ranked batch of cycle 0
        return _spawn_rngs(np.random.SeedSequence((self.CFG.seed, 0)),
                           self.CFG.rollouts_per_cycle)

    def test_cycle_rows_equal_object_api_rows(self, monkeypatch):
        got, ref = self.cycle_and_reference(monkeypatch)
        arrays = _rollout_arrays(ref, PARAMS, GOAL, CFG,
                                 self.CFG.rollout_horizon, self.rngs())
        pairs = rank_and_pair(_objects_from_arrays(*arrays), self.CFG.m)
        want = self.rows_built_by(monkeypatch, tpo_loss, ref, ref, pairs, 0.1)
        for name in ("obs", "executed", "traj", "ref_log_prob"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        # the comparison sees which trajectory of a pair is the chosen one
        m, T = self.CFG.m, self.CFG.rollout_horizon
        flipped = want.obs.reshape(m, 2, T, -1)[:, ::-1].reshape(want.obs.shape)
        assert not np.array_equal(got.obs, flipped)
        assert not np.array_equal(got.ref_log_prob,
                                  want.ref_log_prob.reshape(m, 2)[:, ::-1].ravel())

    def test_cycle_rows_match_rollout_policy_rows(self, monkeypatch):
        # one rollout at a time rounds differently in the policy forward, so
        # the rows agree to round-off and the pairing exactly
        got, ref = self.cycle_and_reference(monkeypatch)
        trajs = [rollout_policy(ref, PARAMS, GOAL, CFG, self.CFG.rollout_horizon,
                                rng) for rng in self.rngs()]
        want = self.rows_built_by(monkeypatch, tpo_loss, ref, ref,
                                  rank_and_pair(trajs, self.CFG.m), 0.1)
        np.testing.assert_array_equal(got.traj, want.traj)
        np.testing.assert_allclose(got.obs, want.obs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.executed, want.executed, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.ref_log_prob, want.ref_log_prob,
                                   rtol=1e-10, atol=0)


class TestCallCounts:
    def test_one_cycle_batches_every_call(self, monkeypatch):
        # a regression to one-rollout-at-a-time stepping, to a per-epoch
        # reference pass or to per-step objects anywhere in the cycle changes
        # these counts or raises
        calls = {"step_batch": 0, "fk_poses": 0, "forward_rows": [],
                 "forward_ws": [], "workspaces": []}
        step_batch, forward = plant.step_batch, surrogate.forward_normalized
        fk_poses, make_workspace = plant.fk_poses, surrogate.workspace

        def counting_step_batch(*args, **kwargs):
            calls["step_batch"] += 1
            return step_batch(*args, **kwargs)

        def counting_fk_poses(*args, **kwargs):
            calls["fk_poses"] += 1
            return fk_poses(*args, **kwargs)

        def counting_forward(model, X, ws):
            calls["forward_rows"].append(len(X))
            calls["forward_ws"].append(ws)
            return forward(model, X, ws)

        def counting_workspace(layer_dims, rows, grads="weights"):
            calls["workspaces"].append(make_workspace(layer_dims, rows, grads))
            return calls["workspaces"][-1]

        def no_fk(*args, **kwargs):
            raise AssertionError("per-step plant.fk called")

        monkeypatch.setattr(plant, "step_batch", counting_step_batch)
        monkeypatch.setattr(plant, "fk", no_fk)
        monkeypatch.setattr(plant, "fk_poses", counting_fk_poses)
        monkeypatch.setattr(surrogate, "forward_normalized", counting_forward)
        monkeypatch.setattr(surrogate, "workspace", counting_workspace)
        for name in ("JointState", "Action", "Trajectory", "RankedTrajectory",
                     "PreferencePair"):
            def no_object(*args, _name=name, **kwargs):
                raise AssertionError(f"tpo_cycle built a {_name}")
            monkeypatch.setattr(tpo, name, no_object)
        cfg = TpoConfig(m=3, rollouts_per_cycle=10, epochs_per_cycle=7,
                        cycles=1, rollout_horizon=4, seed=3)
        tpo_cycle(init_policy(2, hidden=(8, 8), seed=35), PARAMS, GOAL, cfg, CFG)
        assert calls["step_batch"] == 2 * cfg.rollout_horizon
        # both batches are ranked and scored from their arrays
        assert calls["fk_poses"] == 0
        T, B = cfg.rollout_horizon, cfg.rollouts_per_cycle
        pair_rows = 2 * cfg.m * T
        passes = cfg.epochs_per_cycle + 1  # the reference's and each epoch's
        assert calls["forward_rows"] == [B] * T + [pair_rows] * passes + [B] * T
        # three workspaces per cycle: each rollout batch runs its forwards in
        # one that holds only activations, and every pass over the pair rows
        # runs in the one between them
        before, pair_ws, after = calls["workspaces"]
        assert [len(ws.acts[0]) for ws in (before, pair_ws, after)] == [B, pair_rows, B]
        assert all(ws.deltas is None and ws.dWs is None for ws in (before, after))
        assert pair_ws.dWs is not None
        want = [before] * T + [pair_ws] * passes + [after] * T
        assert len(calls["forward_ws"]) == len(want)
        assert all(got is ws for got, ws in zip(calls["forward_ws"], want))
