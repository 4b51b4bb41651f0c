"""Error metrics on pose sequences.

The trajectory error is the sum of a mean translational distance (meters) and
a mean rotational angle error (radians). The rotation term maps the Frobenius
norm of the rotation-matrix difference to an angle through
arcsin(||R - R'||_F / (2*sqrt(2))); 2*sqrt(2) is the largest Frobenius norm
two rotation matrices can be apart, so the argument lives in [0, 1]. For a
single-axis relative rotation of angle phi in [0, pi] the term equals phi/2.
"""

from dataclasses import dataclass

import numpy as np

_MAX_FROB = 2.0 * np.sqrt(2.0)
_ORTHO_TOL = 1e-6


@dataclass(frozen=True)
class TrajErrorReport:
    trajectory_error: float
    rotation_error: float
    translation_error: float
    per_step: tuple = None


def _positions(poses):
    return np.array([p.x for p in poses])


def _rotations(poses):
    return np.array([p.R for p in poses])


def _check_lengths(pred, gt):
    if len(pred) == 0 or len(gt) == 0:
        raise ValueError("empty pose sequence")
    if len(pred) != len(gt):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(gt)}")


def translation_error(pred, gt):
    """Mean Euclidean distance between position sequences."""
    _check_lengths(pred, gt)
    diff = _positions(pred) - _positions(gt)
    return float(np.mean(np.linalg.norm(diff, axis=1)))


def rotation_error(pred, gt):
    """Mean arcsin-of-scaled-Frobenius angle error between rotation sequences."""
    _check_lengths(pred, gt)
    Rp = _rotations(pred)
    Rg = _rotations(gt)
    for R in (Rp, Rg):
        err = np.abs(np.einsum("tij,tkj->tik", R, R) - np.eye(3))
        if np.max(err) > _ORTHO_TOL:
            raise ValueError("rotation matrix violates orthogonality")
    frob = np.linalg.norm(Rp - Rg, axis=(1, 2))
    arg = np.clip(frob / _MAX_FROB, 0.0, 1.0)
    return float(np.mean(np.arcsin(arg)))


def trajectory_error(pred, gt, with_per_step=False):
    """Translation plus rotation error, components reported separately."""
    trans = translation_error(pred, gt)
    rot = rotation_error(pred, gt)
    per_step = None
    if with_per_step:
        diff = _positions(pred) - _positions(gt)
        frob = np.linalg.norm(_rotations(pred) - _rotations(gt), axis=(1, 2))
        per_step = tuple(np.linalg.norm(diff, axis=1)
                         + np.arcsin(np.clip(frob / _MAX_FROB, 0.0, 1.0)))
    return TrajErrorReport(trans + rot, rot, trans, per_step)
