"""Articulated body model and forward kinematics (paper Section 4.3).

The PARSEC ``bodytrack`` benchmark tracks a 3D kinematic tree from four
cameras.  We model a 2D kinematic tree (pelvis-rooted torso, head, two
two-segment arms, two two-segment legs) observed by multiple virtual
cameras; the state is a 14-dimensional pose vector and the output is the
13-joint skeleton the QoS metric compares (the paper's "series of vectors
representing the positions of body components").

Forward kinematics is vectorized over particles: ``joint_positions`` maps
an ``(N, 14)`` pose array to ``(N, 13, 2)`` joint coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "POSE_DIMENSIONS",
    "JOINT_NAMES",
    "BodyGeometry",
    "joint_positions",
    "pose_vector_weights",
]

POSE_DIMENSIONS = 14
"""Pose vector: [x, y, torso, neck, l_sho, l_elb, r_sho, r_elb,
l_hip, l_knee, r_hip, r_knee, lean, stride]."""

JOINT_NAMES = (
    "pelvis",
    "chest",
    "head",
    "l_shoulder",
    "l_elbow",
    "l_hand",
    "r_shoulder",
    "r_elbow",
    "r_hand",
    "l_knee",
    "l_foot",
    "r_knee",
    "r_foot",
)


@dataclass(frozen=True)
class BodyGeometry:
    """Segment lengths of the articulated body, in scene units."""

    torso: float = 50.0
    head: float = 18.0
    upper_arm: float = 28.0
    forearm: float = 24.0
    thigh: float = 40.0
    shin: float = 38.0
    shoulder_offset: float = 16.0
    hip_offset: float = 10.0


def joint_positions(
    poses: np.ndarray, geometry: BodyGeometry | None = None
) -> np.ndarray:
    """Forward kinematics: ``(N, 14)`` poses to ``(N, 13, 2)`` joints.

    Angles are absolute scene angles (radians); ``lean`` tilts the torso
    relative to vertical and ``stride`` phase-offsets the legs, so every
    pose dimension genuinely moves some joint.
    """
    geometry = geometry or BodyGeometry()
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    if poses.shape[1] != POSE_DIMENSIONS:
        raise ValueError(
            f"pose vectors must have {POSE_DIMENSIONS} dimensions, "
            f"got {poses.shape[1]}"
        )
    n = poses.shape[0]
    x, y = poses[:, 0], poses[:, 1]
    torso_angle = poses[:, 2] + 0.25 * poses[:, 12]
    neck_angle = poses[:, 3]
    lean = poses[:, 12]
    stride = poses[:, 13]

    def offset(angle: float | np.ndarray, length: float) -> np.ndarray:
        pair = np.empty(np.shape(angle) + (2,))
        pair[..., 0] = length * np.sin(angle)
        pair[..., 1] = length * np.cos(angle)
        return pair

    joints = np.empty((n, len(JOINT_NAMES), 2))
    pelvis = np.stack([x, y], axis=-1)
    chest = pelvis + offset(torso_angle, geometry.torso)
    head = chest + offset(torso_angle + neck_angle, geometry.head)
    joints[:, 0], joints[:, 1], joints[:, 2] = pelvis, chest, head

    shoulder_dir = offset(torso_angle + np.pi / 2, geometry.shoulder_offset)
    for side, sign, sho_i, elb_i in (("l", -1.0, 3, 4), ("r", 1.0, 6, 7)):
        base = 4 if side == "l" else 6
        shoulder = chest + sign * shoulder_dir
        upper = poses[:, base] + lean * 0.3
        fore = poses[:, base + 1]
        elbow = shoulder + offset(np.pi + upper, geometry.upper_arm)
        hand = elbow + offset(np.pi + upper + fore, geometry.forearm)
        joints[:, sho_i], joints[:, elb_i] = shoulder, elbow
        joints[:, elb_i + 1] = hand

    hip_dir = offset(torso_angle + np.pi / 2, geometry.hip_offset)
    for side, sign, knee_i in (("l", -1.0, 9), ("r", 1.0, 11)):
        base = 8 if side == "l" else 10
        hip = pelvis + sign * hip_dir
        thigh = poses[:, base] + sign * 0.5 * stride
        shin = poses[:, base + 1]
        knee = hip + offset(np.pi + thigh, geometry.thigh)
        foot = knee + offset(np.pi + thigh + shin, geometry.shin)
        joints[:, knee_i] = knee
        joints[:, knee_i + 1] = foot

    return joints


def pose_vector_weights(flattened_joints: np.ndarray) -> np.ndarray:
    """QoS weights proportional to component magnitude (paper Section 4.3).

    "The weight of each vector component is proportional to its magnitude"
    — larger body components (torso positions) dominate smaller ones
    (forearms).  Weights are normalized to mean 1 so losses stay on the
    Equation-1 scale.
    """
    magnitudes = np.abs(np.asarray(flattened_joints, dtype=float))
    mean = float(np.mean(magnitudes))
    if mean == 0.0:
        return np.ones_like(magnitudes)
    return magnitudes / mean
