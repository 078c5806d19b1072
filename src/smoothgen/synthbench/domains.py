"""Synthetic domain-shifted 2-D data with an explicit 1-D manifold.

Each class concentrates around a circular arc; a domain is the whole arc
configuration rotated and translated, with Gaussian off-manifold noise.
Neighborhood samplers either walk along the nearest class arc (manifold kind)
or add isotropic Gaussian noise (isotropic kind).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SchemaError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArcSpec:
    center: tuple[float, float]
    radius: float
    theta_start: float
    theta_extent: float

    def __post_init__(self):
        if self.radius <= 0:
            raise SchemaError(f"arc radius must be positive, got {self.radius}")
        if not 0 < self.theta_extent <= TWO_PI:
            raise SchemaError(
                f"arc extent must be in (0, 2*pi], got {self.theta_extent}"
            )

    def point_at(self, theta, radial_offset=0.0) -> np.ndarray:
        r = self.radius + radial_offset
        theta = np.asarray(theta)
        return np.stack(
            [self.center[0] + r * np.cos(theta), self.center[1] + r * np.sin(theta)],
            axis=-1,
        )

    def clamp_angle(self, theta):
        """Nearest angle on the arc (wrapped difference from the midpoint)."""
        mid = self.theta_start + self.theta_extent / 2.0
        offset = np.mod(np.asarray(theta) - mid + math.pi, TWO_PI) - math.pi
        half = self.theta_extent / 2.0
        return mid + np.clip(offset, -half, half)


@dataclass(frozen=True)
class DomainSpec:
    domain_id: str
    rotation: float
    translation: tuple[float, float]
    noise_std: float
    class_arcs: tuple[ArcSpec, ...]
    far_shift: bool = False

    def __post_init__(self):
        if self.noise_std < 0:
            raise SchemaError("noise_std must be non-negative")
        if len(self.class_arcs) < 2:
            raise SchemaError("need at least two class arcs")
        margin = _arc_margin(self.class_arcs)
        if margin < 2.0 * self.noise_std:
            raise SchemaError(
                f"class arcs too close: margin {margin:.4f} < 2*noise_std "
                f"{2 * self.noise_std:.4f}"
            )

    @property
    def num_classes(self) -> int:
        return len(self.class_arcs)

    def rotation_matrix(self) -> np.ndarray:
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        return np.array([[c, -s], [s, c]])

    def to_world(self, base_points: np.ndarray) -> np.ndarray:
        return base_points @ self.rotation_matrix().T + np.asarray(self.translation)

    def to_base(self, world_points: np.ndarray) -> np.ndarray:
        return (world_points - np.asarray(self.translation)) @ self.rotation_matrix()


@functools.lru_cache
def _arc_margin(class_arcs) -> float:
    """Minimum distance between 256 points on each of two distinct class arcs
    at rotation 0, computed once per distinct arcs: an experiment's domains
    mostly share one set of arcs. Taken 16 rows at a time, the distances are
    those of one 256 x 256 array, at a sixteenth of its memory."""
    clouds = []
    for arc in class_arcs:
        t = arc.theta_start + arc.theta_extent * np.linspace(0, 1, 256)
        clouds.append(arc.point_at(t))
    best = math.inf
    for a in range(len(clouds)):
        for b in range(a + 1, len(clouds)):
            for rows in np.split(clouds[a], 16):
                diff = rows[:, None, :] - clouds[b][None, :, :]
                best = min(best, float(np.sqrt((diff**2).sum(-1)).min()))
    return best


@dataclass(frozen=True)
class NeighborhoodSpec:
    kind: str  # "manifold" | "isotropic"
    size_r: float
    n_samples: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("manifold", "isotropic"):
            raise SchemaError(f"unknown neighborhood kind {self.kind!r}")
        if self.size_r <= 0:
            raise SchemaError("size_r must be positive")
        if self.n_samples < 1:
            raise SchemaError("n_samples must be >= 1")

    @property
    def tag(self) -> str:
        return f"{self.kind}-r{self.size_r:g}-n{self.n_samples}"


@dataclass(frozen=True)
class Dataset:
    points: np.ndarray  # (m, 2)
    labels: np.ndarray  # (m,) int
    num_classes: int


def generate_domain(spec: DomainSpec, m: int, seed: int) -> Dataset:
    """Sample m labeled points along the domain's class arcs."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    k = spec.num_classes
    labels = rng.integers(0, k, size=m)
    u = rng.random(m)
    base = np.empty((m, 2))
    for j, arc in enumerate(spec.class_arcs):
        mask = labels == j
        t = arc.theta_start + arc.theta_extent * u[mask]
        base[mask] = arc.point_at(t)
    points = spec.to_world(base)
    if spec.noise_std > 0:
        points = points + rng.normal(0.0, spec.noise_std, size=(m, 2))
    return Dataset(points=points, labels=labels, num_classes=k)


def apply_label_noise(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Resample round(fraction*m) labels uniformly over all classes."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    m = len(dataset.labels)
    n_noisy = round(fraction * m)
    if n_noisy == 0:
        return dataset
    rng = np.random.default_rng(seed)
    idx = rng.choice(m, size=n_noisy, replace=False)
    labels = dataset.labels.copy()
    labels[idx] = rng.integers(0, dataset.num_classes, size=n_noisy)
    return Dataset(points=dataset.points, labels=labels, num_classes=dataset.num_classes)


def _polar(arc: ArcSpec, base_points: np.ndarray):
    """Distance from the arc's center and angle around it of each point of an
    (m, 2) batch; a point at the center takes the arc's mid angle.

    Per point this is the arithmetic of a loop over points, bit for bit:
    ``sqrt(vecdot)`` is the dot product ``np.linalg.norm`` takes of a
    2-vector, and ``math.atan2`` differs from ``np.arctan2`` in the last bit
    for some points.
    """
    rel = base_points - np.asarray(arc.center)
    norm = np.sqrt(np.vecdot(rel, rel))
    theta = np.fromiter(
        map(math.atan2, rel[:, 1].tolist(), rel[:, 0].tolist()), float, len(rel)
    )
    return norm, np.where(norm > 0, theta, arc.theta_start + arc.theta_extent / 2.0)


def nearest_arc(spec: DomainSpec, base_points: np.ndarray):
    """Index of the arc closest to a base-coordinate point (ties: lower class).

    One point of shape (2,) gives an int; a batch of shape (m, 2) gives an
    (m,) integer array.
    """
    points = np.asarray(base_points, dtype=float)
    batch = np.atleast_2d(points)
    dists = []
    for arc in spec.class_arcs:
        _, theta = _polar(arc, batch)
        diff = batch - arc.point_at(arc.clamp_angle(theta))
        dists.append(np.sqrt(np.vecdot(diff, diff)))
    nearest = np.argmin(np.stack(dists), axis=0)
    return int(nearest[0]) if points.ndim == 1 else nearest


def sample_neighborhood(
    points: np.ndarray,
    domain: DomainSpec,
    spec: NeighborhoodSpec,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """n_samples points near each of `points` (world coordinates).

    One point of shape (2,) gives an (n, 2) array; a batch of shape (m, 2)
    gives (m, n, 2), the same values as m calls on single points with the
    same generator, in order.

    Manifold kind: project onto the nearest class arc, jitter the arc angle by
    Uniform(-size_r, +size_r), and keep the point's radial offset, so samples
    stay on the circle carrying the arc (over-large jitter walks into
    neighboring class sectors, as an over-noisy augmentation would). Isotropic
    kind: add Gaussian noise with standard deviation size_r.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    points = np.asarray(points, dtype=float)
    batch = np.atleast_2d(points)
    m, n = len(batch), spec.n_samples
    if spec.kind == "isotropic":
        samples = batch[:, None, :] + rng.normal(0.0, spec.size_r, size=(m, n, 2))
    else:
        base = domain.to_base(batch)
        nearest = nearest_arc(domain, base)
        jitter = rng.uniform(-spec.size_r, spec.size_r, size=(m, n))
        samples = np.empty((m, n, 2))
        for j, arc in enumerate(domain.class_arcs):
            on_arc = nearest == j
            norm, theta = _polar(arc, base[on_arc])
            samples[on_arc] = arc.point_at(
                arc.clamp_angle(theta)[:, None] + jitter[on_arc],
                radial_offset=(norm - arc.radius)[:, None],
            )
        samples = domain.to_world(samples)
    return samples[0] if points.ndim == 1 else samples
