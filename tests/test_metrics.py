import numpy as np
import numpy.testing as npt
import pytest

from armcal.metrics import (TrajErrorReport, rotation_error, trajectory_error,
                            translation_error)
from armcal.plant import EePose


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def pose(x=(0, 0, 0), R=None):
    return EePose(np.array(x, dtype=float), np.eye(3) if R is None else R)


def random_rotation(rng):
    # QR-based uniform-ish rotation, det fixed to +1
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def axis_angle_rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


class TestTranslationError:
    def test_identical_is_zero(self):
        seq = [pose((1, 2, 3)), pose((4, 5, 6))]
        assert translation_error(seq, seq) == 0.0

    def test_three_four_five(self):
        assert translation_error([pose((0, 0, 0))], [pose((3, 4, 0))]) == 5.0

    def test_mean_of_distances(self):
        pred = [pose((1, 0, 0)), pose((3, 0, 0))]
        gt = [pose((0, 0, 0)), pose((0, 0, 0))]
        assert translation_error(pred, gt) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            translation_error([pose()], [pose(), pose()])

    def test_empty(self):
        with pytest.raises(ValueError):
            translation_error([], [])

    def test_triangle_inequality_per_step(self):
        rng = np.random.default_rng(1)
        a = [pose(rng.normal(size=3)) for _ in range(10)]
        b = [pose(rng.normal(size=3)) for _ in range(10)]
        c = [pose(rng.normal(size=3)) for _ in range(10)]
        assert translation_error(a, c) <= (translation_error(a, b)
                                           + translation_error(b, c) + 1e-12)


class TestRotationError:
    def test_identical_is_zero(self):
        seq = [pose(R=rot_z(0.7))]
        assert rotation_error(seq, seq) == 0.0

    def test_half_turn_gives_half_pi(self):
        err = rotation_error([pose()], [pose(R=rot_z(np.pi))])
        npt.assert_allclose(err, np.pi / 2, atol=1e-12)

    def test_quarter_turn_gives_quarter_pi(self):
        err = rotation_error([pose()], [pose(R=rot_z(np.pi / 2))])
        npt.assert_allclose(err, np.pi / 4, atol=1e-12)

    def test_angle_axis_oracle_random(self):
        # single-axis relative rotation of angle phi scores exactly phi/2
        rng = np.random.default_rng(7)
        for _ in range(1000):
            base = random_rotation(rng)
            axis = rng.normal(size=3)
            phi = rng.uniform(0, np.pi)
            rel = axis_angle_rotation(axis, phi)
            err = rotation_error([pose(R=base)], [pose(R=rel @ base)])
            npt.assert_allclose(err, phi / 2, atol=1e-9)

    def test_symmetry_and_left_invariance(self):
        rng = np.random.default_rng(3)
        a = [pose(R=random_rotation(rng)) for _ in range(5)]
        b = [pose(R=random_rotation(rng)) for _ in range(5)]
        assert rotation_error(a, b) == pytest.approx(rotation_error(b, a), abs=1e-12)
        Q = random_rotation(rng)
        aq = [pose(R=Q @ p.R) for p in a]
        bq = [pose(R=Q @ p.R) for p in b]
        assert rotation_error(aq, bq) == pytest.approx(rotation_error(a, b), abs=1e-9)

    def test_per_step_range(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            err = rotation_error([pose(R=random_rotation(rng))],
                                 [pose(R=random_rotation(rng))])
            assert 0.0 <= err <= np.pi / 2 + 1e-12

    def test_invalid_rotation_rejected(self):
        bad = pose(R=np.eye(3) * 1.5)
        with pytest.raises(ValueError):
            rotation_error([bad], [pose()])


class TestTrajectoryError:
    def test_identical_zero_report(self):
        seq = [pose((1, 1, 0), rot_z(0.2))]
        rep = trajectory_error(seq, seq)
        assert rep == TrajErrorReport(0.0, 0.0, 0.0)

    def test_component_additivity(self):
        # matches the reported-components convention: total = rot + trans
        pred = [pose((0, 0, 0), rot_z(0.0))]
        gt = [pose((5, 0, 0), rot_z(np.pi / 2))]
        rep = trajectory_error(pred, gt)
        npt.assert_allclose(rep.translation_error, 5.0)
        npt.assert_allclose(rep.rotation_error, np.pi / 4, atol=1e-12)
        npt.assert_allclose(rep.trajectory_error, np.pi / 4 + 5.0, atol=1e-12)

    def test_sum_identity_holds(self):
        rng = np.random.default_rng(5)
        pred = [pose(rng.normal(size=3), random_rotation(rng)) for _ in range(8)]
        gt = [pose(rng.normal(size=3), random_rotation(rng)) for _ in range(8)]
        rep = trajectory_error(pred, gt)
        assert rep.trajectory_error == pytest.approx(
            rep.rotation_error + rep.translation_error, abs=1e-12)

    def test_paper_style_component_sum(self):
        # component values reported side by side must sum to the total column
        rot, trans = 0.1101, 0.1060
        assert rot + trans == pytest.approx(0.2161, abs=1e-12)
