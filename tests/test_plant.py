import numpy as np
import numpy.testing as npt
import pytest

from armcal.plant import (Action, JointState, ParamBounds, PhysParams,
                          PlantConfig, fk, rollout, rollout_batch, step,
                          step_batch, step_batch_sensitivities)


def one_joint_cfg(substeps=1, dt=0.01):
    return PlantConfig(n_joints=1, dt=dt, substeps_per_action=substeps)


class TestStep:
    def test_force_free_drift(self):
        # p=0, d=0, f=0: velocity unchanged, position drifts by dt*qd
        out = step(PhysParams(0, 0, 0), JointState([0.0], [1.0]),
                   Action([0.0]), one_joint_cfg())
        npt.assert_allclose(out.q, [0.01])
        npt.assert_allclose(out.qd, [1.0])

    def test_single_substep_hand_computed(self):
        # tau = 100*0.1 = 10 (friction vanishes at qd=0), qd=0.1, q=0.001
        out = step(PhysParams(5, 100, 0), JointState([0.0], [0.0]),
                   Action([0.1]), one_joint_cfg())
        npt.assert_allclose(out.qd, [0.1])
        npt.assert_allclose(out.q, [0.001])

    def test_equilibrium_fixed_point(self):
        state = JointState([0.3, -0.2], [0.0, 0.0])
        out = step(PhysParams(3, 200, 10), state, Action([0.3, -0.2]),
                   PlantConfig())
        npt.assert_array_equal(out.q, state.q)
        npt.assert_array_equal(out.qd, state.qd)

    def test_pure_function_bit_identical(self):
        params = PhysParams(1.5, 80.0, 4.0)
        state = JointState([0.1, 0.2], [0.5, -0.3])
        action = Action([1.0, -1.0])
        cfg = PlantConfig()
        a = step(params, state, action, cfg)
        b = step(params, state, action, cfg)
        npt.assert_array_equal(a.q, b.q)
        npt.assert_array_equal(a.qd, b.qd)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            step(PhysParams(1, 10, 1), JointState([0.0], [0.0]),
                 Action([0.0, 0.0]), one_joint_cfg())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            JointState([np.nan], [0.0])

    def test_friction_opposes_velocity(self):
        # with only friction acting, speed decreases for either sign of qd
        cfg = one_joint_cfg()
        for qd0 in (0.5, -0.5, 0.2, -0.2):
            out = step(PhysParams(2, 0, 0), JointState([0.0], [qd0]),
                       Action([0.0]), cfg)
            assert abs(out.qd[0]) < abs(qd0)


class TestSensitivities:
    """Forward-mode d(q, qd)/d(f, p, d) against central differences of
    step_batch, at random states, targets and parameters."""

    def _next(self, fpd, q, qd, target, cfg):
        q2, qd2 = q.copy(), qd.copy()
        step_batch(fpd, q2, qd2, target, cfg)
        return np.hstack([q2, qd2])

    def test_match_central_differences(self):
        rng = np.random.default_rng(50)
        bounds = ParamBounds()
        cfg = PlantConfig()
        b = 16
        for _ in range(100):
            fpd = bounds.lows() + rng.random((b, 3)) * (
                bounds.highs() - bounds.lows())
            q = rng.uniform(-1.0, 1.0, (b, 2))
            qd = rng.uniform(-0.5, 0.5, (b, 2))
            target = rng.uniform(-np.pi, np.pi, (b, 2))
            q2, qd2 = q.copy(), qd.copy()
            sq, sqd = step_batch_sensitivities(fpd, q2, qd2, target, cfg)
            # the tangent rides along without changing the state update
            npt.assert_array_equal(np.hstack([q2, qd2]),
                                   self._next(fpd, q, qd, target, cfg))
            analytic = np.concatenate([sq, sqd], axis=2)  # (3, B, 2N)
            for j in range(3):
                # rows are independent, so each gets a step scaled to its own
                # parameter value
                h = 1e-6 * np.maximum(1.0, fpd[:, j])
                hi, lo = fpd.copy(), fpd.copy()
                hi[:, j] += h
                lo[:, j] -= h
                fd = (self._next(hi, q, qd, target, cfg)
                      - self._next(lo, q, qd, target, cfg)) / (2 * h[:, None])
                # relative error of each row's (q, qd) derivative vector, so
                # that difference round-off on a near-zero entry is measured
                # against the derivatives of that row
                an = analytic[j]
                err = np.linalg.norm(an - fd, axis=1)
                scale = np.maximum(np.maximum(np.linalg.norm(fd, axis=1),
                                              np.linalg.norm(an, axis=1)), 1e-8)
                assert np.max(err / scale) <= 1e-5


class TestFk:
    def test_straight_arm(self):
        pose = fk([0.0, 0.0], PlantConfig())
        npt.assert_allclose(pose.x, [2.0, 0.0, 0.0], atol=1e-15)
        npt.assert_allclose(pose.R, np.eye(3), atol=1e-15)

    def test_first_joint_quarter_turn(self):
        pose = fk([np.pi / 2, 0.0], PlantConfig())
        npt.assert_allclose(pose.x, [0.0, 2.0, 0.0], atol=1e-12)
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]])
        npt.assert_allclose(pose.R, expected, atol=1e-12)

    def test_elbow_bend(self):
        pose = fk([np.pi / 2, -np.pi / 2], PlantConfig())
        npt.assert_allclose(pose.x, [1.0, 1.0, 0.0], atol=1e-12)
        npt.assert_allclose(pose.R, np.eye(3), atol=1e-12)

    def test_orthogonality_many_random(self):
        cfg = PlantConfig()
        rng = np.random.default_rng(0)
        for q in rng.uniform(-np.pi, np.pi, (10_000, 2)):
            R = fk(q, cfg).R
            assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-12
            assert abs(np.linalg.det(R) - 1.0) <= 1e-9


class TestRollout:
    def test_single_action_matches_step(self):
        params = PhysParams(1, 50, 2)
        init = JointState([0.1, -0.1], [0.0, 0.2])
        action = Action([0.5, 0.5])
        cfg = PlantConfig()
        traj = rollout(params, init, [action], cfg)
        direct = step(params, init, action, cfg)
        npt.assert_array_equal(traj.states[1].q, direct.q)
        npt.assert_array_equal(traj.states[1].qd, direct.qd)
        assert traj.horizon == 1
        npt.assert_allclose(traj.poses[0].x, fk(init.q, cfg).x)

    def test_deterministic_without_noise(self):
        params = PhysParams(2, 100, 5)
        init = JointState([0.0, 0.0], [0.1, 0.1])
        actions = [Action([0.3, -0.3])] * 10
        cfg = PlantConfig()
        a = rollout(params, init, actions, cfg)
        b = rollout(params, init, actions, cfg)
        for sa, sb in zip(a.states, b.states):
            npt.assert_array_equal(sa.q, sb.q)

    def test_statics_all_poses_equal(self):
        # zero gains, zero initial velocity: nothing moves
        init = JointState([0.4, 0.2], [0.0, 0.0])
        cfg = PlantConfig()
        traj = rollout(PhysParams(0, 0, 0), init, [Action([1.0, 1.0])] * 5, cfg)
        for pose in traj.poses:
            npt.assert_array_equal(pose.x, traj.poses[0].x)

    def test_noise_applied_to_records_only(self):
        cfg = PlantConfig(obs_noise_std=0.01)
        params = PhysParams(1, 50, 2)
        init = JointState([0.0, 0.0], [0.0, 0.0])
        actions = [Action([0.3, -0.3])] * 5
        noisy = rollout(params, init, actions, cfg, noise_seed=5)
        clean = rollout(params, init, actions, PlantConfig())
        assert not np.array_equal(noisy.states[1].q, clean.states[1].q)
        # same seed reproduces the same noise
        again = rollout(params, init, actions, cfg, noise_seed=5)
        npt.assert_array_equal(noisy.states[2].q, again.states[2].q)

    def test_batch_rows_match_single_rollouts(self):
        # per-row parameters and noise seeds, one row without noise
        cfg = PlantConfig(obs_noise_std=0.01)
        rng = np.random.default_rng(3)
        fpd = np.array([[1.0, 50.0, 2.0], [4.0, 300.0, 20.0], [0.5, 10.0, 1.0]])
        q0 = rng.uniform(-1, 1, (3, 2))
        qd0 = rng.uniform(-0.5, 0.5, (3, 2))
        targets = rng.uniform(-np.pi, np.pi, (3, 9, 2))
        seeds = [5, None, 7]
        q, qd = rollout_batch(fpd, q0, qd0, targets, cfg, seeds)
        assert q.shape == qd.shape == (3, 10, 2)
        for b in range(3):
            traj = rollout(PhysParams.from_array(fpd[b]), JointState(q0[b], qd0[b]),
                           [Action(t) for t in targets[b]], cfg, noise_seed=seeds[b])
            npt.assert_array_equal(q[b], [s.q for s in traj.states])
            npt.assert_array_equal(qd[b], [s.qd for s in traj.states])

    def test_batch_rejects_mismatched_shapes(self):
        cfg = PlantConfig()
        with pytest.raises(ValueError):
            rollout_batch([1, 10, 1], np.zeros((2, 2)), np.zeros((2, 2)),
                          np.zeros((3, 4, 2)), cfg)
        with pytest.raises(ValueError):
            rollout_batch([1, 10, 1], np.zeros((2, 3)), np.zeros((2, 3)),
                          np.zeros((2, 4, 3)), cfg)
        with pytest.raises(ValueError):
            rollout_batch([1, 10, 1], np.zeros((2, 2)), np.zeros((2, 2)),
                          np.zeros((2, 0, 2)), cfg)

    def test_empty_actions_rejected(self):
        with pytest.raises(ValueError):
            rollout(PhysParams(1, 10, 1), JointState([0.0], [0.0]), [],
                    one_joint_cfg())

    def test_damped_return_to_hold_target(self):
        # holding the start position with f, d > 0 bleeds energy
        cfg = PlantConfig()
        init = JointState([0.2, -0.2], [1.0, -1.0])
        traj = rollout(PhysParams(1, 50, 8), init,
                       [Action([0.2, -0.2])] * 200, cfg)
        assert np.sum(np.abs(traj.states[-1].qd)) < 1e-3


class TestValidation:
    def test_bounds_reject_inverted(self):
        with pytest.raises(ValueError):
            ParamBounds(f_min=5, f_max=1)

    def test_params_reject_negative_friction(self):
        with pytest.raises(ValueError):
            PhysParams(-1, 10, 1)

    def test_plant_config_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            PlantConfig(dt=0.0)

    def test_bounds_clip(self):
        b = ParamBounds()
        npt.assert_allclose(b.clip(np.array([-1.0, 1000.0, 5.0])),
                            [0.0, 500.0, 5.0])
