"""Synthetic body-tracking workload (paper Section 4.3 and Table 1).

The paper's inputs are video sequences from four carefully calibrated
cameras (PARSEC data we cannot redistribute).  Per the substitution rule
we generate the equivalent stimulus: a walking-gait pose trajectory and,
per frame, the body's joint positions as seen by ``cameras`` noisy virtual
cameras (each a rotation + scale + offset of the scene, the 2D analogue of
a calibrated camera, with Gaussian pixel noise).  The tracker never sees
the true poses — only the observations — exactly as bodytrack only sees
images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.bodytrack.body import POSE_DIMENSIONS, joint_positions

__all__ = ["Camera", "TrackingSequence", "generate_sequence"]


@dataclass(frozen=True)
class Camera:
    """A calibrated virtual camera: 2D similarity transform + noise."""

    angle: float
    scale: float
    offset_x: float
    offset_y: float
    noise_sigma: float = 2.0

    def project(self, points: np.ndarray) -> np.ndarray:
        """Project scene points ``(..., 2)`` into this camera's image."""
        c, s = np.cos(self.angle), np.sin(self.angle)
        rotation = np.array([[c, -s], [s, c]])
        # One (M, 2) @ (2, 2) product rather than a stacked matmul per
        # leading index: the same dot products, element for element.
        flat = points.reshape(-1, 2) @ rotation.T
        projected = flat.reshape(points.shape) * self.scale
        projected = projected + np.array([self.offset_x, self.offset_y])
        return projected


@dataclass(frozen=True)
class TrackingSequence:
    """One tracking job: observations plus the initial pose.

    Attributes:
        observations: ``(frames, cameras, joints, 2)`` noisy projections.
        cameras: The camera models (known to the tracker, as calibration
            data is known to bodytrack).
        initial_pose: The true pose of frame 0 (trackers are initialized).
        true_poses: Ground-truth poses, for diagnostics only.
    """

    observations: np.ndarray
    cameras: tuple[Camera, ...]
    initial_pose: np.ndarray
    true_poses: np.ndarray

    @property
    def frame_count(self) -> int:
        """Number of frames in the sequence."""
        return self.observations.shape[0]


def _gait_poses(frames: int, rng: np.random.Generator) -> np.ndarray:
    """A walking-gait pose trajectory with smooth random perturbations."""
    t = np.arange(frames, dtype=float)
    poses = np.zeros((frames, POSE_DIMENSIONS))
    poses[:, 0] = 10.0 + 2.2 * t  # forward walk
    poses[:, 1] = 80.0 + 1.5 * np.sin(0.7 * t)  # bob
    poses[:, 2] = 0.06 * np.sin(0.25 * t)  # torso sway
    poses[:, 3] = 0.05 * np.sin(0.4 * t + 1.0)  # neck
    swing = 0.5 * np.sin(0.6 * t)
    poses[:, 4] = swing + 0.1  # left shoulder
    poses[:, 5] = 0.4 + 0.25 * np.sin(0.6 * t + 0.8)  # left elbow
    poses[:, 6] = -swing + 0.1  # right shoulder (anti-phase)
    poses[:, 7] = 0.4 + 0.25 * np.sin(0.6 * t + np.pi + 0.8)
    poses[:, 8] = 0.45 * np.sin(0.6 * t + np.pi)  # left hip
    poses[:, 9] = 0.3 + 0.3 * np.clip(np.sin(0.6 * t + np.pi), 0, None)
    poses[:, 10] = 0.45 * np.sin(0.6 * t)  # right hip
    poses[:, 11] = 0.3 + 0.3 * np.clip(np.sin(0.6 * t), 0, None)
    poses[:, 12] = 0.04 * np.sin(0.15 * t)  # lean
    poses[:, 13] = 0.2 * np.sin(0.6 * t + 0.3)  # stride phase
    # Smooth random perturbation so sequences differ beyond phase.
    drift = rng.normal(0.0, 0.02, size=(frames, POSE_DIMENSIONS))
    poses += np.cumsum(drift, axis=0) * 0.5
    return poses


def _default_cameras(count: int) -> tuple[Camera, ...]:
    cameras = []
    for index in range(count):
        cameras.append(
            Camera(
                angle=0.35 * index,
                scale=1.0 + 0.1 * index,
                offset_x=20.0 * index,
                offset_y=-10.0 * index,
            )
        )
    return tuple(cameras)


def generate_sequence(
    frames: int, seed: int, cameras: int = 2, noise_sigma: float = 2.0
) -> TrackingSequence:
    """Generate one tracking sequence of ``frames`` frames."""
    if frames < 2:
        raise ValueError(f"sequence needs >= 2 frames, got {frames!r}")
    rng = np.random.default_rng(seed)
    poses = _gait_poses(frames, rng)
    camera_models = tuple(
        Camera(c.angle, c.scale, c.offset_x, c.offset_y, noise_sigma)
        for c in _default_cameras(cameras)
    )
    joints = joint_positions(poses)  # (frames, joints, 2)
    observations = np.empty((frames, cameras, joints.shape[1], 2))
    for cam_index, camera in enumerate(camera_models):
        clean = camera.project(joints)
        noise = rng.normal(0.0, noise_sigma, size=clean.shape)
        observations[:, cam_index] = clean + noise
    return TrackingSequence(
        observations=observations,
        cameras=camera_models,
        initial_pose=poses[0].copy(),
        true_poses=poses,
    )
