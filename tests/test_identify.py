"""Tests for gradient refinement, the simulated-annealing baseline, and the
evaluation plumbing, against independent closed-form oracles."""

import numpy as np
import pytest

from armcal import cli, datagen, identify, metrics, surrogate
from armcal.identify import (AnnealConfig, GradPipelineConfig, RefineConfig,
                             anneal_params, evaluate_params,
                             gauss_newton_params, make_one_step_residuals,
                             make_replay_energy, minimize_projected_adam,
                             planar_pose_errors, recovery_error, refine_params,
                             run_gradient_pipeline)
from armcal.plant import ParamBounds, PhysParams, PlantConfig, fk, rollout_batch

BOUNDS = ParamBounds()
CFG = PlantConfig()


class TestPlanarPoseErrors:
    def test_matches_matrix_metrics(self):
        # the sin identity shortcut must agree with the full SO(3) metric
        rng = np.random.default_rng(0)
        qa = rng.uniform(-np.pi, np.pi, (40, 2))
        qb = rng.uniform(-np.pi, np.pi, (40, 2))
        trans, rot = planar_pose_errors(qa, qb, CFG)
        poses_a = [fk(q, CFG) for q in qa]
        poses_b = [fk(q, CFG) for q in qb]
        assert trans == pytest.approx(
            metrics.translation_error(poses_a, poses_b), abs=1e-12)
        assert rot == pytest.approx(
            metrics.rotation_error(poses_a, poses_b), abs=1e-12)

    def test_zero_for_identical(self):
        q = np.random.default_rng(1).uniform(-1, 1, (10, 2))
        trans, rot = planar_pose_errors(q, q.copy(), CFG)
        assert trans == 0.0 and rot == 0.0


class TestProjectedAdam:
    def quad(self, target):
        def objective(u):
            d = u - target
            return float(d @ d), 2.0 * d
        return objective

    def test_interior_quadratic(self):
        u, curve = minimize_projected_adam(self.quad(np.array([0.3, 0.7, 0.5])),
                                           np.full(3, 0.5), 0.01, 2000,
                                           1e-12, 20)
        np.testing.assert_allclose(u, [0.3, 0.7, 0.5], atol=1e-3)
        assert curve[-1] <= curve[0]

    def test_projection_onto_cube(self):
        # unconstrained minimizer outside the cube: solution sits on the face
        u, _ = minimize_projected_adam(self.quad(np.array([1.4, -0.2, 0.5])),
                                       np.full(3, 0.5), 0.02, 3000, 1e-13, 20)
        np.testing.assert_allclose(u, [1.0, 0.0, 0.5], atol=1e-3)
        assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_best_iterate_returned(self):
        # objective that improves then worsens: the returned point must be the
        # best visited, not the last
        losses = iter([5.0, 1.0, 3.0, 4.0, 4.0, 4.0])

        def objective(u):
            return next(losses), np.zeros_like(u)

        marker = []

        def wrapped(u):
            out = objective(u)
            marker.append((u.copy(), out[0]))
            return out

        u, curve = minimize_projected_adam(wrapped, np.full(3, 0.5),
                                           0.1, 6, 0.0, 100)
        assert curve == [5.0, 1.0, 3.0, 4.0, 4.0, 4.0]
        best_u = marker[int(np.argmin([m[1] for m in marker]))][0]
        np.testing.assert_array_equal(u, best_u)

    def test_convergence_window_stops_early(self):
        calls = []

        def objective(u):
            calls.append(1)
            return 1.0, np.zeros_like(u)  # constant loss

        minimize_projected_adam(objective, np.full(3, 0.5), 0.01, 1000,
                                1e-8, window=5)
        assert len(calls) == 6  # window + 1 evaluations then stop

    def test_nonfinite_loss_raises(self):
        with pytest.raises(RuntimeError):
            minimize_projected_adam(lambda u: (np.nan, np.zeros(3)),
                                    np.full(3, 0.5), 0.01, 10, 1e-8, 5)


class TestRefine:
    def test_recovers_minimum_of_quadratic_surrogate_stub(self):
        # bypass the MLP: a stub whose param_loss is quadratic with a known
        # minimizer exercises the full refinement loop
        target_u = np.array([0.25, 0.6, 0.8])
        truth = surrogate.unit_to_params(target_u[None, :], BOUNDS)[0]

        eps = datagen.make_synthetic_real(PhysParams.from_array(truth),
                                          2, 5, CFG, seed=0)

        class Stub:
            bounds = BOUNDS

        def stub_loss(model, fpd, state_sa, next_raw):
            u = surrogate.params_to_unit(np.asarray(fpd)[None, :], BOUNDS)[0]
            d = u - target_u
            return float(d @ d), 2.0 * d

        real = surrogate.param_loss_and_grad
        surrogate.param_loss_and_grad = stub_loss
        try:
            got, curve = refine_params(
                Stub(), eps,
                RefineConfig(learning_rate=0.01, max_steps=3000,
                             init="bounds-midpoint", convergence_tol=1e-14,
                             bounds=BOUNDS))
        finally:
            surrogate.param_loss_and_grad = real
        got_u = surrogate.params_to_unit(got.as_array()[None, :], BOUNDS)[0]
        np.testing.assert_allclose(got_u, target_u, atol=1e-3)
        assert curve[-1] < curve[0]

    def test_best_sampled_init_prefers_lowest_loss_candidate(self):
        # with zero refinement steps... max_steps >= 1, so use a tiny budget
        # and zero learning rate: the result equals the best-sampled start
        eps = datagen.make_synthetic_real(PhysParams(2.0, 100.0, 5.0),
                                          1, 3, CFG, seed=0)
        cands = datagen.sample_params(10, BOUNDS, seed=3)
        target = cands[4].as_array()

        class Stub:
            bounds = BOUNDS

        def stub_loss(model, fpd, state_sa, next_raw):
            d = (np.asarray(fpd) - target) / (BOUNDS.highs() - BOUNDS.lows())
            return float(d @ d), np.zeros(3)

        real = surrogate.param_loss_and_grad
        surrogate.param_loss_and_grad = stub_loss
        try:
            got, _ = refine_params(
                Stub(), eps,
                RefineConfig(learning_rate=1e-12, max_steps=1, bounds=BOUNDS),
                candidates=cands)
        finally:
            surrogate.param_loss_and_grad = real
        np.testing.assert_allclose(got.as_array(), target, atol=1e-6)

    def test_rejects_empty_episodes(self):
        with pytest.raises(ValueError):
            refine_params(None, datagen.EpisodeSet(()), RefineConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(max_steps=0)
        with pytest.raises(ValueError):
            RefineConfig(init="random")


class TestAnneal:
    def test_quadratic_energy_oracle(self):
        # collapse to an effectively 1-D quadratic energy in f; compare the
        # annealed minimizer against a dense grid search
        def energy(fpd):
            return (fpd[0] - 7.3) ** 2

        eps = datagen.make_synthetic_real(PhysParams(1.0, 10.0, 1.0),
                                          1, 2, CFG, seed=0)
        grid = np.linspace(0.0, 10.0, 20001)
        grid_best = grid[np.argmin((grid - 7.3) ** 2)]
        span = 10.0
        hits = 0
        for seed in range(100):
            got, curve = anneal_params(
                eps, AnnealConfig(seed=seed, bounds=BOUNDS), CFG,
                energy_fn=energy)
            if abs(got.f - grid_best) <= 0.02 * span:
                hits += 1
            assert curve[-1] <= curve[0]
            assert len(curve) == 401
        assert hits >= 95

    def test_energy_curve_monotone_best_ever(self):
        eps = datagen.make_synthetic_real(PhysParams(2.0, 100.0, 5.0),
                                          1, 5, CFG, seed=1)
        _, curve = anneal_params(eps, AnnealConfig(steps=50, seed=0,
                                                   bounds=BOUNDS), CFG)
        assert all(b <= a + 1e-15 for a, b in zip(curve, curve[1:]))

    def test_deterministic_per_seed(self):
        eps = datagen.make_synthetic_real(PhysParams(2.0, 100.0, 5.0),
                                          1, 5, CFG, seed=1)
        a, _ = anneal_params(eps, AnnealConfig(steps=30, seed=9, bounds=BOUNDS), CFG)
        b, _ = anneal_params(eps, AnnealConfig(steps=30, seed=9, bounds=BOUNDS), CFG)
        np.testing.assert_array_equal(a.as_array(), b.as_array())

    def test_result_within_bounds(self):
        eps = datagen.make_synthetic_real(PhysParams(2.0, 100.0, 5.0),
                                          1, 5, CFG, seed=1)
        got, _ = anneal_params(eps, AnnealConfig(steps=60, seed=2,
                                                 bounds=BOUNDS), CFG)
        assert got.within(BOUNDS)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(steps=0)
        with pytest.raises(ValueError):
            AnnealConfig(cooling_gamma=1.0)
        with pytest.raises(ValueError):
            AnnealConfig(initial_temperature=0.0)


class TestGaussNewton:
    def test_recovers_truth_to_round_off(self):
        truth = PhysParams(3.0, 150.0, 9.0)
        eps = datagen.make_synthetic_real(truth, 3, 30, CFG, seed=4)
        got, curve = gauss_newton_params(eps, BOUNDS, CFG)
        assert got.within(BOUNDS)
        np.testing.assert_allclose(got.as_array(), truth.as_array(),
                                   rtol=1e-9)
        assert all(b < a for a, b in zip(curve, curve[1:]))
        assert evaluate_params(got, eps, CFG).trajectory_error <= 1e-9

    def test_residuals_vanish_at_truth(self):
        truth = PhysParams(3.0, 150.0, 9.0)
        eps = datagen.make_synthetic_real(truth, 2, 8, CFG, seed=5)
        r, J = make_one_step_residuals(eps, CFG)(truth.as_array())
        assert r.shape == (2 * 8 * 2 * CFG.n_joints,)
        assert J.shape == (r.size, 3)
        assert np.all(r == 0.0)

    def test_truth_outside_bounds_lands_on_the_bound(self):
        truth = PhysParams(3.0, 150.0, 9.0)
        eps = datagen.make_synthetic_real(truth, 3, 30, CFG, seed=4)
        tight = ParamBounds(p_min=1.0, p_max=100.0)
        got, _ = gauss_newton_params(eps, tight, CFG)
        assert got.within(tight)
        assert got.p == 100.0

    def test_collapsed_bound_is_held_fixed(self):
        truth = PhysParams(3.0, 150.0, 9.0)
        eps = datagen.make_synthetic_real(truth, 3, 30, CFG, seed=4)
        at_truth = ParamBounds(f_min=3.0, f_max=3.0)
        got, _ = gauss_newton_params(eps, at_truth, CFG)
        assert got.f == 3.0
        np.testing.assert_allclose(got.as_array(), truth.as_array(),
                                   rtol=1e-9)
        # a point interval away from the truth: no raise, the rest still fit
        # as well as the fixed coordinate allows
        off = ParamBounds(f_min=5.0, f_max=5.0, d_min=9.0, d_max=9.0)
        got, curve = gauss_newton_params(eps, off, CFG)
        assert got.f == 5.0 and got.d == 9.0
        assert got.within(off)
        assert curve[-1] <= curve[0]

    def test_zero_excitation_does_not_raise(self):
        # every recorded state is at rest on its own target, so no parameter
        # moves the prediction: the Jacobian is zero (rank 0) while the
        # observed drift leaves the residuals nonzero
        q = np.array([0.3, -0.2]) + 0.01 * np.arange(5)[:, None]
        ep = datagen.Episode(q[:-1], q, np.zeros((5, 2)))
        got, curve = gauss_newton_params(datagen.EpisodeSet((ep,)), BOUNDS,
                                         CFG)
        np.testing.assert_allclose(
            got.as_array(), (BOUNDS.lows() + BOUNDS.highs()) / 2.0)
        assert len(curve) == 1 and curve[0] > 0.0

    def test_rejects_empty_episodes(self):
        with pytest.raises(ValueError):
            gauss_newton_params(datagen.EpisodeSet(()), BOUNDS, CFG)

    @staticmethod
    def cli_episodes(run_seed, truth, cfg):
        """The fit episodes `armcal --seed run_seed identify` uses: the first
        15 of the default 20 episodes of horizon 50."""
        seed = cli._seeds({"run_seed": run_seed})["episodes"]
        eps = datagen.make_synthetic_real(truth, 20, 50, cfg, seed)
        return datagen.EpisodeSet(eps.episodes[:15])

    def test_restart_escapes_midpoint_local_minimum(self):
        # noise-free, yet the run from the bounds midpoint stops with f 7.85%
        # off at a cost far above the truth's zero
        truth = PhysParams(5.800630213841371, 220.47455896967847,
                           24.488767148407582)
        eps = self.cli_episodes(601701079, truth, CFG)
        residuals = make_one_step_residuals(eps, CFG)
        lows, span = BOUNDS.lows(), BOUNDS.highs() - BOUNDS.lows()
        u_mid, curve_mid = identify._levenberg_marquardt(
            residuals, lows, span, np.full(3, 0.5))
        assert abs(lows[0] + u_mid[0] * span[0] - truth.f) / truth.f > 0.05
        assert curve_mid[-1] > 1e-6
        got, curve = gauss_newton_params(eps, BOUNDS, CFG)
        np.testing.assert_allclose(got.as_array(), truth.as_array(), rtol=1e-9)
        assert curve[-1] <= 1e-20 * curve[0]

    def test_noisy_fit_costs_no_more_than_truth(self):
        # with noisy observations the truth is not the least-squares minimum,
        # but a fit that stops above the truth's cost has stopped early
        cfg = PlantConfig(obs_noise_std=1e-3)
        truth = PhysParams(8.0, 300.0, 20.0)
        eps = self.cli_episodes(3, truth, cfg)
        residuals = make_one_step_residuals(eps, cfg)
        got, curve = gauss_newton_params(eps, BOUNDS, cfg)
        r_fit, _ = residuals(got.as_array())
        r_truth, _ = residuals(truth.as_array())
        assert r_fit @ r_fit <= r_truth @ r_truth
        assert curve[-1] == pytest.approx(r_fit @ r_fit / r_fit.size, rel=1e-12)


class TestEvaluate:
    def test_truth_params_give_zero_error(self):
        truth = PhysParams(2.0, 100.0, 5.0)
        eps = datagen.make_synthetic_real(truth, 3, 10, CFG, seed=2)
        rep = evaluate_params(truth, eps, CFG)
        assert rep.trajectory_error == 0.0
        assert rep.rotation_error == 0.0
        assert rep.translation_error == 0.0

    def test_wrong_params_give_positive_error(self):
        truth = PhysParams(2.0, 100.0, 5.0)
        eps = datagen.make_synthetic_real(truth, 2, 10, CFG, seed=2)
        rep = evaluate_params(PhysParams(8.0, 400.0, 40.0), eps, CFG)
        assert rep.trajectory_error > 0.01
        assert rep.trajectory_error == pytest.approx(
            rep.rotation_error + rep.translation_error, abs=1e-12)

    def test_batch_matches_per_episode_loop(self):
        # ragged horizons, interleaved so that batching by horizon has to put
        # every episode's errors back in its place
        truth = PhysParams(2.0, 100.0, 5.0)
        a = datagen.make_synthetic_real(truth, 3, 7, CFG, seed=1)
        b = datagen.make_synthetic_real(truth, 2, 12, CFG, seed=2)
        eps = datagen.EpisodeSet((a.episodes[0], b.episodes[0], a.episodes[1],
                                  a.episodes[2], b.episodes[1]))
        params = PhysParams(3.0, 80.0, 9.0)
        trans, rot = [], []
        for ep in eps.episodes:
            q, _ = rollout_batch(params.as_array(), ep.q[:1], ep.qd[:1],
                                 ep.actions[None], CFG)
            t, r = planar_pose_errors(q[0], ep.q, CFG)
            trans.append(t)
            rot.append(r)
        rep = evaluate_params(params, eps, CFG)
        assert rep.translation_error == float(np.mean(trans))
        assert rep.rotation_error == float(np.mean(rot))
        assert rep.trajectory_error == float(np.mean(trans)) + float(np.mean(rot))

    def test_replay_energy_zero_at_truth(self):
        truth = PhysParams(3.0, 150.0, 9.0)
        eps = datagen.make_synthetic_real(truth, 2, 8, CFG, seed=5)
        energy = make_replay_energy(eps, CFG)
        assert energy(truth.as_array()) == 0.0
        assert energy([9.0, 20.0, 40.0]) > 0.0

    def test_recovery_error(self):
        got = recovery_error(PhysParams(2.2, 90.0, 5.0), PhysParams(2.0, 100.0, 5.0))
        np.testing.assert_allclose(got, [0.1, 0.1, 0.0], atol=1e-12)


class TestGradientPipeline:
    def test_small_scale_end_to_end(self):
        truth = PhysParams(8.0, 80.0, 3.0)
        eps = datagen.make_synthetic_real(truth, 4, 30, CFG, seed=3)
        cfg = GradPipelineConfig(
            n_param_sets=10,
            train=surrogate.TrainConfig(max_epochs=40, seed=0),
            refine=RefineConfig(max_steps=200, bounds=BOUNDS),
            hidden_width=32)
        params, details = run_gradient_pipeline(eps, CFG, cfg)
        assert params.within(BOUNDS)
        assert details["dataset_rows"] == 10 * 4 * 30
        assert details["loss_curve"][-1] <= details["loss_curve"][0]
        # refinement (best-iterate) can never end up worse than its
        # best-sampled starting candidate under the surrogate objective
        model = details["model"]
        q, qd, acts, nq, nqd = datagen.episode_arrays(eps)
        state_sa = np.hstack([q, qd, acts])
        next_raw = np.hstack([nq, nqd])
        refined_loss = surrogate.param_loss_and_grad(
            model, params.as_array(), state_sa, next_raw)[0]
        cand_losses = [surrogate.param_loss_and_grad(
            model, c.as_array(), state_sa, next_raw)[0]
            for c in details["candidates"]]
        assert refined_loss <= min(cand_losses) + 1e-12
