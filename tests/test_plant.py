import hashlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from armcal import _kernel_py
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

    def _check(self, fpd, q, qd, target, cfg):
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

    def test_match_central_differences(self):
        rng = np.random.default_rng(50)
        bounds = ParamBounds()
        b = 16
        for _ in range(100):
            fpd = bounds.lows() + rng.random((b, 3)) * (
                bounds.highs() - bounds.lows())
            self._check(fpd, rng.uniform(-1.0, 1.0, (b, 2)),
                        rng.uniform(-0.5, 0.5, (b, 2)),
                        rng.uniform(-np.pi, np.pi, (b, 2)), PlantConfig())

    @given(st.integers(1, 8).flatmap(lambda b: st.tuples(
        arrays(np.float64, (b, 3), elements=st.floats(0.0, 1.0)),
        arrays(np.float64, (b, 2), elements=st.floats(-1.0, 1.0)),
        arrays(np.float64, (b, 2), elements=st.floats(-0.5, 0.5)),
        arrays(np.float64, (b, 2), elements=st.floats(-np.pi, np.pi)))))
    def test_match_central_differences_property(self, drawn):
        # the same check at drawn rows, parameters anywhere in the bounds
        u, q, qd, target = drawn
        self._check(ParamBounds().from_unit(u), q, qd, target, PlantConfig())


def kernel_run(B, N, sens, seed=0, row=None):
    """One substep_batch call (5 substeps) on a seeded batch with per-row
    (f, p, d) drawn over the default bounds; returns q, qd and, with sens,
    the sensitivities, of every row or only of `row`, which then runs alone."""
    rng = np.random.default_rng([B, N, seed])
    q = rng.uniform(-1.0, 1.0, (B, N))
    qd = rng.normal(0.0, 0.05, (B, N))  # around the friction's tanh scale
    target = rng.uniform(-np.pi, np.pi, (B, N))
    fpd = ParamBounds().from_unit(rng.random((B, 3)))
    inv_inertia = 1.0 / rng.uniform(0.5, 2.0, N)
    rows = slice(None) if row is None else slice(row, row + 1)
    q, qd, target, fpd = q[rows], qd[rows], target[rows], fpd[rows]
    tangents = (np.zeros((3,) + q.shape), np.zeros((3,) + q.shape)) if sens else ()
    _kernel_py.substep_batch(q, qd, target, *map(np.ascontiguousarray, fpd.T),
                             inv_inertia, 0.01, 5, 0.01, sens=tangents or None)
    return [q, qd, *tangents]


class TestKernelBits:
    """The kernel's arithmetic, pinned bit for bit: sha256 of q, qd (and sq,
    sqd with sensitivities) after one call, per (B, N, sensitivities)."""

    DIGESTS = {
        (1, 1, False): "eebe1dc8d75466e1097ab3e76bfcb2a410cbf481bc0289947e7c756b1c11a43e",
        (1, 1, True): "1452400908aebcabac039a6cc403cf1118210bd4d62d99c19c8a2c469fd40ebc",
        (1, 2, False): "f2aeeb2ff6e9af071702ea0c8da84f54ff43bd1ec6967c0f3d5c54e324ce45f4",
        (1, 2, True): "930e93c3eb20013e603677ba9058018bc1173ebba214ba190008a0c40d35bb8f",
        (1, 7, False): "13530258a27f702d5012e08944a370cd6cc5402707bee9c5c2670ab375439413",
        (1, 7, True): "ba11403bfccd6f09e40bffa228c665f040a6548e927693a536606cd0fc6ec365",
        (100, 1, False): "3b5907664ef8fa435f5b9395ee1bff26153f5982bf1fee952efb216e6855f4f9",
        (100, 1, True): "3e06c5b30fa32f4fd454044037f2cc025b2d3fcf86c650e636eadbfd62f0ac82",
        (100, 2, False): "3e2385e850616a3ecd9a071eea5cccbcf3f10619da566b243f7de56b1099add4",
        (100, 2, True): "daf3f7d33fa69bb448b820b808b43b80bc90cc298bfbf7e7de6c99dcab9e585d",
        (100, 7, False): "65fc096316df109e020f78ba2e86c86174d30b38dca365adf4bd173f8d266072",
        (100, 7, True): "aea1b5a9d84db0d7aa560f1d837c24cc25355a6ca69f146e0c83d617eb8e679a",
        (750, 1, False): "9dbde38794eeb110a96aedc91c8bfed83a0d4be4ee5764a2fbf1085c1136cdc9",
        (750, 1, True): "e2ce77cb64046c22af3a7c08ee730bf0e116390a5c729e9a379c6609385a5fa0",
        (750, 2, False): "1968b4101a1e7a9fc50fad4a6a8cbaac16a9aa96575741fd713b7b286e0f25e7",
        (750, 2, True): "7f9713ea93e9344a1c55a224741ea54d5cd536285d27357e64ef88dd5d80610b",
        (750, 7, False): "ab572299bad9cbe24033cd5350ce3085add7104e9845a4cde5649b8e2fafa09f",
        (750, 7, True): "1ec45776ede45db9e6f6a0f805da1cd26b03374946538b051eb90f0c7cf28d6e",
    }

    @pytest.mark.parametrize("sens", [False, True])
    @pytest.mark.parametrize("N", [1, 2, 7])
    @pytest.mark.parametrize("B", [1, 100, 750])
    def test_pinned_digests(self, B, N, sens):
        h = hashlib.sha256()
        for a in kernel_run(B, N, sens):
            h.update(a.tobytes())
        assert h.hexdigest() == self.DIGESTS[B, N, sens]

    @given(st.integers(2, 40), st.integers(1, 7), st.integers(0, 2 ** 32 - 1),
           st.data())
    def test_row_alone_equals_row_in_batch(self, B, N, seed, data):
        row = data.draw(st.integers(0, B - 1))
        for alone, batched in zip(kernel_run(B, N, True, seed, row),
                                  kernel_run(B, N, True, seed)):
            npt.assert_array_equal(alone, batched[..., row:row + 1, :])

    @given(st.integers(1, 40), st.integers(1, 7), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_writes_only_its_state(self, B, N, seed, sens):
        # the kernel writes into arrays of its own with out=; its inputs
        # other than the state (and tangents) must keep every bit
        rng = np.random.default_rng(seed)
        q = rng.uniform(-1.0, 1.0, (B, N))
        qd = rng.normal(0.0, 0.05, (B, N))
        inputs = [rng.uniform(-np.pi, np.pi, (B, N)),
                  *map(np.ascontiguousarray, ParamBounds().from_unit(
                      rng.random((B, 3))).T),
                  1.0 / rng.uniform(0.5, 2.0, N)]
        before = [a.copy() for a in inputs]
        tangents = (np.zeros((3, B, N)), np.zeros((3, B, N))) if sens else None
        _kernel_py.substep_batch(q, qd, *inputs, 0.01, 5, 0.01, sens=tangents)
        for a, b in zip(inputs, before):
            assert a.tobytes() == b.tobytes()


def fk_input(T, N):
    """Seeded link lengths and (T, N) joint angles over a full turn, with
    rows of exact zeros of both signs."""
    rng = np.random.default_rng([T, N, 0])
    cfg = PlantConfig(n_joints=N, link_lengths=tuple(rng.uniform(0.5, 1.5, N)))
    q = rng.uniform(-np.pi, np.pi, (T, N))
    q[1::4] = 0.0
    q[3::8] = -0.0
    return cfg, q


def sequential_fk(q, cfg):
    """Forward kinematics with every sum taken one joint after another,
    from zero: numpy's own order along the joint axis for N < 8."""
    theta = np.cumsum(q, axis=1)
    x, y = np.zeros(len(q)), np.zeros(len(q))
    for j, length in enumerate(cfg.link_lengths):
        x = x + length * np.cos(theta[:, j])
        y = y + length * np.sin(theta[:, j])
    return np.stack([x, y, np.zeros(len(q))], axis=1), theta[:, -1]


class TestFk:
    # sha256 of fk_positions' positions and angles on fk_input(T, N), as
    # computed by the earlier implementation that summed along the joint
    # axis with np.sum: the joint-by-joint sums must not move a bit
    DIGESTS = {
        (1, 1): "6642ed504db2d8663159e907734eafe98a33e5f715c561caf3c21caf3b2ca2ae",
        (1, 50): "fcfe4385ebb2ed9ba65f760341c9abdb9c3a7841a4a6314b3d75311cfbc98fd4",
        (1, 750): "8aefc2106d7d13604a5e207bc1716b71d0b80788bd2aaf33dd3eb86643314c5b",
        (2, 1): "c36608f8f9ba8dfc4c5c6113de1c1388a0766821b072184f5d87aa6082e5fd2f",
        (2, 50): "ea837d004151296cc1fba961298e6847d76c908fda26834c387b1fa115116a00",
        (2, 750): "bf853928381696512694cbeb9c7694c624c5f3f30325546640357fc62a206bdb",
        (3, 1): "154056414da9c741c2b2057aef74306d4ed5c20e79911bb7127d3ce4c53cdbe3",
        (3, 50): "0ef3938a7d7bd1623f8ae27a44f16596f81d2dd8713e8db0a295daf0bee8e401",
        (3, 750): "bb3dba446bf8a7deb95911175139ef00de8c79341ffc9965d0fad744d8384c2a",
        (7, 1): "a2273f75cae4b0496562dfaf75593931b10a87d7f323ea6d58c1ded10ca84c20",
        (7, 50): "7e1ca55877cbe537c6130c97ee612b87f37ecaf63612a8b51693cb8f085de530",
        (7, 750): "2ba6650f0da6b91ce43813c3f921b4ef091d18e0e998504081a7d1375293fd9b",
    }

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

    @pytest.mark.parametrize("T", [1, 50, 750])
    @pytest.mark.parametrize("N", [1, 2, 3, 7])
    def test_pinned_digests(self, N, T):
        cfg, q = fk_input(T, N)
        h = hashlib.sha256()
        for a in fk_positions(q, cfg):
            h.update(a.tobytes())
        assert h.hexdigest() == self.DIGESTS[N, T]

    @pytest.mark.parametrize("N", [8, 12])
    def test_long_chains_sum_joint_by_joint(self, N):
        # from 8 terms np.sum adds pairwise; fk_positions stays sequential
        cfg, q = fk_input(50, N)
        for got, want in zip(fk_positions(q, cfg), sequential_fk(q, cfg)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("N", range(1, 13))
    def test_fk_is_a_row_of_fk_positions(self, N):
        cfg, q = fk_input(20, N)
        pos, ang = fk_positions(q, cfg)
        for t in range(len(q)):
            pose = fk(q[t], cfg)
            assert pose.x.tobytes() == pos[t].tobytes()
            assert (pose.R[0, 0], pose.R[1, 0]) == (np.cos(ang[t]), np.sin(ang[t]))

    def test_fk_positions_rejects_wrong_joint_count(self):
        with pytest.raises(ValueError, match="joint dimension"):
            fk_positions(np.zeros((4, 3)), PlantConfig())
        with pytest.raises(ValueError, match="joint dimension"):
            fk_positions(np.zeros(2), PlantConfig())


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
