"""Tests for gradient refinement, the simulated-annealing baseline, and the
evaluation plumbing, against independent closed-form oracles."""

import numpy as np
import pytest

from armcal import cli, datagen, identify, metrics, surrogate
from armcal.identify import (AnnealConfig, RefineConfig, anneal_params,
                             evaluate_params, gauss_newton_params,
                             make_one_step_residuals, make_replay_energy,
                             planar_pose_errors, recovery_error, refine_params)
from armcal.plant import ParamBounds, PhysParams, PlantConfig, fk, rollout_batch

BOUNDS = ParamBounds()
CFG = PlantConfig()
MIDPOINT = PhysParams.from_array((BOUNDS.lows() + BOUNDS.highs()) / 2.0)


def pose_error_input(T, N):
    """Seeded link lengths and two (T, N) joint-angle sequences over a full
    turn, with rows of exact zeros and rows of zero error."""
    rng = np.random.default_rng([T, N, 0])
    cfg = PlantConfig(n_joints=N, link_lengths=tuple(rng.uniform(0.5, 1.5, N)))
    qa = rng.uniform(-np.pi, np.pi, (T, N))
    qa[1::4] = 0.0
    qa[3::8] = -0.0
    qb = qa + np.random.default_rng([T, N, 1]).normal(0.0, 0.1, qa.shape)
    qb[1::4] = 0.0
    qb[2::4] = 0.0
    return cfg, qa, qb


def sequential_pose_errors(qa, qb, cfg):
    """planar_pose_errors with every sum taken one term after another."""
    def fk_xy(q):
        theta = np.cumsum(q, axis=1)
        x, y = np.zeros(len(q)), np.zeros(len(q))
        for j, length in enumerate(cfg.link_lengths):
            x = x + length * np.cos(theta[:, j])
            y = y + length * np.sin(theta[:, j])
        return x, y, theta[:, -1]

    (xa, ya, aa), (xb, yb, ab) = fk_xy(qa), fk_xy(qb)
    dx, dy = xa - xb, ya - yb
    trans = float(np.mean(np.sqrt(dx * dx + dy * dy)))
    rot = float(np.mean(np.arcsin(np.clip(np.abs(np.sin((aa - ab) / 2.0)),
                                          0.0, 1.0))))
    return trans, rot


class TestPlanarPoseErrors:
    # planar_pose_errors on pose_error_input(T, N), as computed by the
    # earlier implementation that reduced along the joint and coordinate
    # axes with np.sum and np.linalg.norm: the column-by-column sums must
    # not move a bit
    PINNED = {
        (1, 1): (0.0328285248147247, 0.019732987747521413),
        (1, 50): (0.534078878597037, 0.2669687490457248),
        (1, 750): (0.2597772902533264, 0.20148819419511987),
        (2, 1): (0.156771055930443, 0.06691607944362765),
        (2, 50): (0.7916499561184857, 0.16468730665700076),
        (2, 750): (0.8013212453775501, 0.2235583102250228),
        (3, 1): (0.09342319199600879, 0.006544624574500224),
        (3, 50): (1.0016382007921107, 0.2510710661143168),
        (3, 750): (1.1167317509783312, 0.23813230755031292),
        (7, 1): (0.28448327215337904, 0.13697832155921175),
        (7, 50): (1.9341686606829769, 0.2637534177292169),
        (7, 750): (2.2316017848618186, 0.2580957611139522),
    }

    @pytest.mark.parametrize("T", [1, 50, 750])
    @pytest.mark.parametrize("N", [1, 2, 3, 7])
    def test_pinned_floats(self, N, T):
        cfg, qa, qb = pose_error_input(T, N)
        assert planar_pose_errors(qa, qb, cfg) == self.PINNED[N, T]

    @pytest.mark.parametrize("N", [8, 12])
    def test_long_chains_sum_term_by_term(self, N):
        cfg, qa, qb = pose_error_input(50, N)
        assert (planar_pose_errors(qa, qb, cfg)
                == sequential_pose_errors(qa, qb, cfg))

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


def stub_residuals(monkeypatch, residuals_of_u):
    """Make refinement's residuals the given (r, J) function of the
    bound-scaled parameters, returned as (r, jacobian), whatever the model
    and episodes."""
    def residuals(fpd_row):
        r, J = residuals_of_u(BOUNDS.to_unit(fpd_row))
        return r, lambda: J

    monkeypatch.setattr(surrogate, "make_param_residuals",
                        lambda model, state_sa, next_raw: residuals)


def trained_surrogate(bounds=BOUNDS):
    """A small network trained in `bounds` on rows of a few episodes, those
    episodes and the parameter sets its rows were made with."""
    eps = datagen.make_synthetic_real(PhysParams(8.0, 80.0, 3.0), 4, 30, CFG,
                                      seed=3)
    candidates = datagen.sample_params(10, bounds, 1)
    data = datagen.generate_transition_arrays(eps, candidates, CFG)
    model = surrogate.init(surrogate.default_layer_dims(CFG.n_joints, 16), 2,
                           norm_stats=datagen.compute_norm_stats(data),
                           bounds=bounds)
    model = surrogate.train(model, data,
                            surrogate.TrainConfig(max_epochs=20, seed=0))
    return model, eps, candidates


class TestRefine:
    def test_recovers_minimum_of_quadratic_surrogate_stub(self, monkeypatch):
        # bypass the MLP: a stub whose residuals are linear in u with a known
        # minimizer exercises the full refinement loop
        target_u = np.array([0.25, 0.6, 0.8])
        eps = datagen.make_synthetic_real(
            PhysParams.from_array(BOUNDS.from_unit(target_u)), 2, 5, CFG, seed=0)
        stub_residuals(monkeypatch, lambda u: (u - target_u, np.eye(3)))
        got, curve = refine_params(None, eps, RefineConfig(bounds=BOUNDS),
                                   [MIDPOINT])
        np.testing.assert_allclose(BOUNDS.to_unit(got.as_array()), target_u,
                                   atol=1e-12)
        assert all(b < a for a, b in zip(curve, curve[1:]))

    def test_best_sampled_init_prefers_lowest_loss_candidate(self, monkeypatch):
        # residuals that no parameter moves (a zero Jacobian) stop LM at its
        # start: the result equals the best-sampled start
        eps = datagen.make_synthetic_real(PhysParams(2.0, 100.0, 5.0),
                                          1, 3, CFG, seed=0)
        cands = datagen.sample_params(10, BOUNDS, seed=3)
        target_u = BOUNDS.to_unit(cands[4].as_array())
        stub_residuals(monkeypatch, lambda u: (u - target_u, np.zeros((3, 3))))
        got, curve = refine_params(None, eps, RefineConfig(bounds=BOUNDS),
                                   candidates=cands)
        np.testing.assert_allclose(got.as_array(), cands[4].as_array(),
                                   atol=1e-6)
        assert len(curve) == 1

    @pytest.mark.parametrize("with_candidates", [True, False],
                             ids=["best-sampled", "bounds-midpoint"])
    def test_matches_lm_on_the_backprop_residuals(self, with_candidates):
        # refinement gives, bit for bit, the params and cost curve of LM on
        # residuals built from build_input's rows, with one backward pass per
        # output column, each in a fresh workspace, as their Jacobian, on
        # request; the bounds midpoint is the one candidate of its own case
        eps = datagen.make_synthetic_real(PhysParams(4.0, 200.0, 10.0),
                                          3, 20, CFG, seed=2)
        cands = datagen.sample_params(6, BOUNDS, seed=4)
        rows = datagen.generate_transition_arrays(eps, cands, CFG)
        model = surrogate.init(surrogate.default_layer_dims(CFG.n_joints, 16), 3,
                               norm_stats=datagen.compute_norm_stats(rows),
                               bounds=BOUNDS)
        q, qd, acts, nq, nqd = datagen.episode_arrays(eps)
        state_sa, next_raw = np.hstack([q, qd, acts]), np.hstack([nq, nqd])
        n = CFG.n_joints
        m_nx = model.norm_stats.mean[3 + 3 * n:]
        s_nx = model.norm_stats.std[3 + 3 * n:]
        Y = (next_raw - m_nx) / s_nx - (state_sa[:, :2 * n] - m_nx) / s_nx

        def oracle(fpd):
            fpd_rows = np.broadcast_to(fpd, (len(state_sa), 3))
            X = surrogate.build_input(model, fpd_rows, state_sa)
            out, layer_acts = surrogate.forward_normalized(
                model, X, surrogate.workspace(model.layer_dims, len(X)))

            def jacobian():
                columns = []
                for k in range(2 * n):
                    unit = np.zeros_like(out)
                    unit[:, k] = 1.0
                    dX = surrogate.backward_from_delta(
                        model, layer_acts, unit,
                        surrogate.workspace(model.layer_dims, len(X)))[2]
                    columns.append(dX[:, :3])
                return np.stack(columns, axis=1).reshape(-1, 3)

            return (out - Y).ravel(), jacobian

        cfg = RefineConfig(max_steps=60, convergence_tol=0.0, bounds=BOUNDS)
        starts = cands if with_candidates else [MIDPOINT]
        losses = [oracle(c.as_array())[0] for c in starts]
        start = starts[int(np.argmin([r @ r for r in losses]))].as_array()
        u, curve = identify._levenberg_marquardt(
            lambda u: oracle(BOUNDS.from_unit(u)), BOUNDS.to_unit(start),
            cfg.max_steps, cfg.convergence_tol)
        got, got_curve = refine_params(model, eps, cfg, starts)
        np.testing.assert_array_equal(got.as_array(),
                                      BOUNDS.clip(BOUNDS.from_unit(u)))
        assert got_curve == curve
        assert 1 < len(curve) <= 61 and curve[-1] < curve[0]

    def test_ends_at_a_stationary_point(self):
        # the projected central-difference gradient of the surrogate loss at
        # the result is at most 1e-6 of the one at the best-sampled start
        model, eps, candidates = trained_surrogate()
        q, qd, acts, nq, nqd = datagen.episode_arrays(eps)
        residuals = surrogate.make_param_residuals(
            model, np.hstack([q, qd, acts]), np.hstack([nq, nqd]))

        def loss(fpd):
            r = residuals(fpd)[0]
            return float(r @ r) / len(q)

        def projected_gradient(u, h=1e-6):
            g = np.array([(loss(BOUNDS.from_unit(u + h * e))
                           - loss(BOUNDS.from_unit(u - h * e))) / (2 * h)
                          for e in np.eye(3)])
            return np.where(((u <= 0.0) & (g > 0)) | ((u >= 1.0) & (g < 0)), 0.0, g)

        start = candidates[int(np.argmin(
            [loss(c.as_array()) for c in candidates]))]
        got, curve = refine_params(model, eps, RefineConfig(bounds=BOUNDS),
                                   candidates)
        g_start = projected_gradient(BOUNDS.to_unit(start.as_array()))
        g_end = projected_gradient(BOUNDS.to_unit(got.as_array()))
        assert np.linalg.norm(g_end) <= 1e-6 * np.linalg.norm(g_start)
        assert curve[-1] < curve[0]

    def test_collapsed_bound_is_held_fixed(self):
        pinned = ParamBounds(f_min=8.0, f_max=8.0)
        model, eps, candidates = trained_surrogate(bounds=pinned)
        got, curve = refine_params(model, eps, RefineConfig(bounds=pinned),
                                   candidates)
        assert got.f == 8.0 and got.within(pinned)
        assert curve[-1] < curve[0]
        # a point interval away from the truth: no raise, the rest still fit
        off = ParamBounds(f_min=5.0, f_max=5.0, d_min=9.0, d_max=9.0)
        model, eps, candidates = trained_surrogate(bounds=off)
        got, curve = refine_params(model, eps, RefineConfig(bounds=off),
                                   candidates)
        assert got.f == 5.0 and got.d == 9.0 and got.within(off)
        assert curve[-1] <= curve[0]

    @pytest.mark.parametrize("max_steps", [1, 2, 5])
    def test_curve_holds_at_most_max_steps_plus_one_costs(self, max_steps):
        model, eps, candidates = trained_surrogate()
        _, curve = refine_params(
            model, eps, RefineConfig(max_steps=max_steps, convergence_tol=0.0,
                                     bounds=BOUNDS), candidates)
        assert 1 < len(curve) <= max_steps + 1

    def test_rejects_empty_episodes(self):
        with pytest.raises(ValueError):
            refine_params(None, datagen.EpisodeSet(()), RefineConfig(),
                          [MIDPOINT])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(max_steps=0)
        with pytest.raises(ValueError):
            RefineConfig(convergence_tol=-1.0)
        assert RefineConfig().max_steps == identify.LM_MAX_ITERATIONS
        assert RefineConfig().convergence_tol == identify.LM_TOL


class TestLevenbergMarquardt:
    def test_damping_stays_positive(self, monkeypatch):
        # from a damping that underflows to 0.0 after a few accepted steps, a
        # rejected step would multiply 0.0 by 10 forever; a bound on the
        # residual calls turns such a hang into a failure
        monkeypatch.setattr(identify, "LM_INITIAL_DAMPING", 1e-320)
        calls = []

        def residuals(u):
            calls.append(1)
            if len(calls) > 2000:
                raise RuntimeError("LM did not stop")
            r = np.array([u[0] - 0.2, u[1] - 0.7, u[0] * u[2] - 0.5,
                          np.sin(3.0 * u[1]) + u[2] - 0.1])
            J = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [u[2], 0.0, u[0]], [0.0, 3.0 * np.cos(3.0 * u[1]), 1.0]])
            return r, lambda: J

        u, curve = identify._levenberg_marquardt(residuals, np.full(3, 0.5),
                                                 500, 0.0)
        assert np.all((u >= 0.0) & (u <= 1.0))
        assert all(b < a for a, b in zip(curve, curve[1:]))
        assert curve[-1] > 0.0 and len(curve) < 501

    # (max_iterations, tol, residual calls, whether LM tries a step from its
    # last accepted point): it does when the run ends because no damping
    # lowers the cost, not when it ends at the iteration cap or at the step
    # tolerance. The residual calls are those of an LM that built J at every
    # trial point.
    @pytest.mark.parametrize("max_iterations, tol, n_residuals, tries_from_last", [
        (100, 0.0, 50, True), (7, 0.0, 8, False), (100, 1e-6, 12, False)])
    def test_jacobian_only_at_points_it_steps_from(self, max_iterations, tol,
                                                   n_residuals, tries_from_last):
        log = []

        def residuals(u):
            log.append("r")
            r = np.array([10.0 * (u[1] - u[0] ** 2), 0.6 - u[0],
                          10.0 * (u[2] - u[1] ** 2), 0.3 * np.sin(5.0 * u[2])])
            J = np.array([[-20.0 * u[0], 10.0, 0.0], [-1.0, 0.0, 0.0],
                          [0.0, -20.0 * u[1], 10.0],
                          [0.0, 0.0, 1.5 * np.cos(5.0 * u[2])]])
            point = len(log)

            def jacobian():
                log.append(("J", point))
                return J

            return r, jacobian

        _, curve = identify._levenberg_marquardt(
            residuals, np.array([0.05, 0.95, 0.9]), max_iterations, tol)
        jacobians = [(i, e[1]) for i, e in enumerate(log) if e != "r"]
        accepted = len(curve) - 1
        assert log.count("r") == n_residuals
        # the start, and each accepted point LM goes on from
        assert len(jacobians) == 1 + accepted - (not tries_from_last)
        # each J is of the point of the residual call just before it, so no
        # rejected trial asks for one
        assert all(point == i for i, point in jacobians)
        if tries_from_last:
            assert log.count("r") - 1 - accepted > len(jacobians)  # rejected


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

    @pytest.mark.parametrize("sigma", [0.0, 1e-2])
    def test_energy_equals_its_definition(self, sigma):
        # the captured observed poses change no bit of the replay error
        cfg = PlantConfig(obs_noise_std=sigma)
        eps = datagen.make_synthetic_real(PhysParams(8.0, 300.0, 20.0), 3, 20,
                                          cfg, seed=4)
        energy = make_replay_energy(eps, cfg)
        q, qd, acts, nq, _ = datagen.episode_arrays(eps)
        for fpd in BOUNDS.from_unit(np.random.default_rng(7).random((50, 3))):
            pred_q, _ = datagen.teacher_forced_next(
                np.tile(fpd, (len(q), 1)), q, qd, acts, cfg)
            assert energy(fpd) == sum(planar_pose_errors(pred_q, nq, cfg))

    @pytest.mark.parametrize("sigma, expected", [
        (0.0, (4.156236914781408, 296.75363467500176, 19.612957037777377,
               0.009052789289360172)),
        (1e-2, (0.0, 282.5051421559816, 20.493137520479248,
                0.033991330455031485)),
    ])
    def test_pinned_result(self, sigma, expected):
        # a full-length run, pinned to its floats: work on the speed of the
        # kernel or the energy must not move a bit of the result
        cfg = PlantConfig(obs_noise_std=sigma)
        eps = datagen.make_synthetic_real(PhysParams(8.0, 300.0, 20.0), 3, 20,
                                          cfg, seed=4)
        got, curve = anneal_params(eps, AnnealConfig(seed=6, bounds=BOUNDS), cfg)
        assert (got.f, got.p, got.d, curve[-1]) == expected

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(steps=0)
        with pytest.raises(ValueError):
            AnnealConfig(cooling_gamma=1.0)
        with pytest.raises(ValueError):
            AnnealConfig(initial_temperature=0.0)
        for frac in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="proposal_frac"):
                AnnealConfig(proposal_frac=frac)


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
        r, jacobian = make_one_step_residuals(eps, CFG)(truth.as_array())
        assert r.shape == (2 * 8 * 2 * CFG.n_joints,)
        assert jacobian().shape == (r.size, 3)
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
        span = BOUNDS.highs() - BOUNDS.lows()

        def unit_residuals(u):
            r, jacobian = residuals(BOUNDS.from_unit(u))
            return r, lambda: jacobian() * span

        u_mid, curve_mid = identify._levenberg_marquardt(unit_residuals,
                                                         np.full(3, 0.5))
        assert abs(BOUNDS.from_unit(u_mid)[0] - truth.f) / truth.f > 0.05
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
        # the surrogate route piece by piece: sample, build rows, train, refine
        truth = PhysParams(8.0, 80.0, 3.0)
        eps = datagen.make_synthetic_real(truth, 4, 30, CFG, seed=3)
        candidates = datagen.sample_params(10, BOUNDS, 1)
        data = datagen.generate_transition_arrays(eps, candidates, CFG)
        assert data.shape == (10 * 4 * 30, 3 + 5 * CFG.n_joints)
        model = surrogate.init(surrogate.default_layer_dims(CFG.n_joints, 32), 2,
                               norm_stats=datagen.compute_norm_stats(data),
                               bounds=BOUNDS)
        model = surrogate.train(model, data,
                                surrogate.TrainConfig(max_epochs=40, seed=0))
        history = model.training_meta["loss_history"]
        assert history[-1] < history[0]
        params, curve = refine_params(model, eps,
                                      RefineConfig(max_steps=200, bounds=BOUNDS),
                                      candidates)
        assert params.within(BOUNDS)
        assert curve[-1] <= curve[0]
        # LM accepts only steps that lower the cost, so refinement never ends
        # worse than its best-sampled starting candidate
        q, qd, acts, nq, nqd = datagen.episode_arrays(eps)
        state_sa = np.hstack([q, qd, acts])
        next_raw = np.hstack([nq, nqd])
        refined_loss = surrogate.param_loss_and_grad(
            model, params.as_array(), state_sa, next_raw)[0]
        cand_losses = [surrogate.param_loss_and_grad(
            model, c.as_array(), state_sa, next_raw)[0] for c in candidates]
        assert refined_loss <= min(cand_losses) + 1e-12
