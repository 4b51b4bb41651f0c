"""System-identification toolkit for a PD-controlled planar arm. It recovers
(friction, stiffness, damping) by Levenberg-Marquardt on the differentiable
plant, by gradient refinement through a trained MLP surrogate, and by a
simulated-annealing baseline, plus preference-based policy fine-tuning."""

__version__ = "0.1.0"

from .plant import (Action, EePose, JointState, ParamBounds, PhysParams,
                    PlantConfig, Trajectory, fk)

__all__ = [
    "Action", "EePose", "JointState", "ParamBounds", "PhysParams",
    "PlantConfig", "Trajectory", "fk", "__version__",
]
