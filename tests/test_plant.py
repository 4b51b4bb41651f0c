import numpy as np
import numpy.testing as npt
import pytest

from armcal.plant import (JointState, ParamBounds, PhysParams, PlantConfig, fk,
                          fk_positions, rollout_batch, step_batch,
                          step_batch_sensitivities)


def one_joint_cfg(substeps=1, dt=0.01):
    return PlantConfig(n_joints=1, dt=dt, substeps_per_action=substeps)


def step1(params, q, qd, target, cfg):
    """step_batch at B=1 on copies: the state after one action."""
    q2 = np.array([q], dtype=float)
    qd2 = np.array([qd], dtype=float)
    step_batch(np.array([params], dtype=float), q2, qd2,
               np.array([target], dtype=float), cfg)
    return q2[0], qd2[0]


def rollout1(params, q0, qd0, targets, cfg, noise_seed=None):
    """rollout_batch at B=1: the recorded q, qd, each (T + 1, N)."""
    q, qd = rollout_batch(params, [q0], [qd0], [targets], cfg, [noise_seed])
    return q[0], qd[0]


class TestStep:
    def test_force_free_drift(self):
        # p=0, d=0, f=0: velocity unchanged, position drifts by dt*qd
        q, qd = step1([0, 0, 0], [0.0], [1.0], [0.0], one_joint_cfg())
        npt.assert_allclose(q, [0.01])
        npt.assert_allclose(qd, [1.0])

    def test_single_substep_hand_computed(self):
        # tau = 100*0.1 = 10 (friction vanishes at qd=0), qd=0.1, q=0.001
        q, qd = step1([5, 100, 0], [0.0], [0.0], [0.1], one_joint_cfg())
        npt.assert_allclose(qd, [0.1])
        npt.assert_allclose(q, [0.001])

    def test_equilibrium_fixed_point(self):
        q, qd = step1([3, 200, 10], [0.3, -0.2], [0.0, 0.0], [0.3, -0.2],
                      PlantConfig())
        npt.assert_array_equal(q, [0.3, -0.2])
        npt.assert_array_equal(qd, [0.0, 0.0])

    def test_pure_function_bit_identical(self):
        args = ([1.5, 80.0, 4.0], [0.1, 0.2], [0.5, -0.3], [1.0, -1.0],
                PlantConfig())
        a = step1(*args)
        b = step1(*args)
        npt.assert_array_equal(a[0], b[0])
        npt.assert_array_equal(a[1], b[1])

    def test_dimension_mismatch(self):
        # a two-joint target on the one-joint plant, one action at B=1
        with pytest.raises(ValueError):
            rollout1([1, 10, 1], [0.0], [0.0], [[0.0, 0.0]], one_joint_cfg())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            JointState([np.nan], [0.0])

    def test_friction_opposes_velocity(self):
        # with only friction acting, speed decreases for either sign of qd
        cfg = one_joint_cfg()
        for qd0 in (0.5, -0.5, 0.2, -0.2):
            _, qd = step1([2, 0, 0], [0.0], [qd0], [0.0], cfg)
            assert abs(qd[0]) < abs(qd0)


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
        params, q0, qd0 = [1, 50, 2], [0.1, -0.1], [0.0, 0.2]
        cfg = PlantConfig()
        q, qd = rollout1(params, q0, qd0, [[0.5, 0.5]], cfg)
        direct = step1(params, q0, qd0, [0.5, 0.5], cfg)
        npt.assert_array_equal(q[1], direct[0])
        npt.assert_array_equal(qd[1], direct[1])
        assert q.shape == qd.shape == (2, 2)
        npt.assert_array_equal(q[0], q0)
        npt.assert_array_equal(qd[0], qd0)

    def test_deterministic_without_noise(self):
        args = ([2, 100, 5], [0.0, 0.0], [0.1, 0.1], [[0.3, -0.3]] * 10,
                PlantConfig())
        a = rollout1(*args)
        b = rollout1(*args)
        npt.assert_array_equal(a[0], b[0])
        npt.assert_array_equal(a[1], b[1])

    def test_statics_all_poses_equal(self):
        # zero gains, zero initial velocity: nothing moves
        cfg = PlantConfig()
        q, _ = rollout1([0, 0, 0], [0.4, 0.2], [0.0, 0.0], [[1.0, 1.0]] * 5, cfg)
        pos, _ = fk_positions(q, cfg)
        for x in pos:
            npt.assert_array_equal(x, pos[0])

    def test_noise_applied_to_records_only(self):
        cfg = PlantConfig(obs_noise_std=0.01)
        args = ([1, 50, 2], [0.0, 0.0], [0.0, 0.0], [[0.3, -0.3]] * 5)
        noisy, _ = rollout1(*args, cfg, noise_seed=5)
        clean, _ = rollout1(*args, PlantConfig())
        assert not np.array_equal(noisy[1], clean[1])
        # same seed reproduces the same noise
        again, _ = rollout1(*args, cfg, noise_seed=5)
        npt.assert_array_equal(noisy[2], again[2])

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
            q1, qd1 = rollout1(fpd[b], q0[b], qd0[b], targets[b], cfg,
                               noise_seed=seeds[b])
            npt.assert_array_equal(q[b], q1)
            npt.assert_array_equal(qd[b], qd1)

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
            rollout1([1, 10, 1], [0.0], [0.0], np.zeros((0, 1)), one_joint_cfg())

    def test_damped_return_to_hold_target(self):
        # holding the start position with f, d > 0 bleeds energy
        _, qd = rollout1([1, 50, 8], [0.2, -0.2], [1.0, -1.0],
                         [[0.2, -0.2]] * 200, PlantConfig())
        assert np.sum(np.abs(qd[-1])) < 1e-3


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
