"""LiDAR scan I/O, range-image projection and back-projection, and config field rules."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

POINT_RECORD_BYTES = 16  # x, y, z, intensity as little-endian float32


class ScanParseError(ValueError):
    """Malformed binary scan file."""


# A field rule: (accepted types, test, what the test asks)
NATURAL = (int, lambda v: v >= 0, "an integer >= 0")   # seeds: numpy takes no negative one
COUNT = (int, lambda v: v >= 1, "an integer >= 1")
FINITE = ((int, float), math.isfinite, "finite")
POSITIVE = ((int, float), lambda v: 0 < v < math.inf, "finite and > 0")
NON_NEGATIVE = ((int, float), lambda v: 0 <= v < math.inf, "finite and non-negative")


def check_fields(values: dict, rules: dict, error=ValueError) -> None:
    """Raise ``error`` for the first of ``values`` named in ``rules`` that is a
    bool (an int, so True would run as 1), is not of its rule's types or fails its test."""
    for name, (types, ok, rule) in rules.items():
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, types) or not ok(value):
            raise error(f"{name} must be {rule}, got {value!r}")


def ascii_int(text: str, where) -> int:
    """``text`` as a scan id or point index: ASCII digits only (no sign, no
    ``_``), else ScanParseError naming ``where``."""
    if not (text.isascii() and text.isdigit()):
        raise ScanParseError(f"{where}: {text!r} is not ASCII digits")
    return int(text)


@dataclass(frozen=True)
class PointCloud:
    """Ordered set of (x, y, z, intensity) points; coordinates in meters."""

    points: np.ndarray  # (N, 4) float64
    frame_id: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 4)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite values")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self.points[:, 3]

    @property
    def ranges(self) -> np.ndarray:
        return np.linalg.norm(self.points[:, :3], axis=1)


@dataclass(frozen=True)
class ProjectionSpec:
    """Spherical range-image geometry: grid size, vertical FOV, max range."""

    height: int = 64
    width: int = 1920
    fov_up: float = math.radians(3.0)
    fov_down: float = math.radians(-25.0)
    max_range: float = 80.0

    def __post_init__(self):
        check_fields(vars(self), {"height": COUNT, "width": COUNT, "fov_up": FINITE,
                                  "fov_down": FINITE, "max_range": POSITIVE})
        if self.fov_up <= self.fov_down:
            raise ValueError("fov_up must exceed fov_down")


@dataclass(frozen=True)
class RangeImage:
    """H x W grid of (normalized distance, intensity) with a validity mask."""

    dist: np.ndarray   # (H, W) in [0, 1] where mask, else 0
    inten: np.ndarray  # (H, W) in [0, 1] where mask, else 0
    mask: np.ndarray   # (H, W) bool
    spec: ProjectionSpec = field(default_factory=ProjectionSpec)

    def __post_init__(self):
        if not (self.dist.shape == self.inten.shape == self.mask.shape):
            raise ValueError("channel/mask shapes differ")
        if self.dist.shape != (self.spec.height, self.spec.width):
            raise ValueError(
                f"image shape {self.dist.shape} != spec "
                f"{(self.spec.height, self.spec.width)}")

    @property
    def shape(self):
        return self.dist.shape

    def channels(self) -> np.ndarray:
        """Stacked (H, W, 2) view of (distance, intensity)."""
        return np.stack([self.dist, self.inten], axis=-1)


def normalize_intensity(raw: np.ndarray) -> np.ndarray:
    """Map reflectance to [0, 1]; 8-bit sources (max > 1) are divided by 255."""
    out = raw.astype(float)
    if out.size and out.max() > 1.0:
        out = out / 255.0
    return np.clip(out, 0.0, 1.0)


def read_scan(path) -> PointCloud:
    """Read a binary scan (16 bytes per point: x, y, z, i as LE float32)."""
    nbytes = os.path.getsize(str(path))
    if nbytes % POINT_RECORD_BYTES:
        raise ScanParseError(
            f"{path}: trailing {nbytes % POINT_RECORD_BYTES} bytes at byte offset "
            f"{nbytes - nbytes % POINT_RECORD_BYTES}")
    raw = np.fromfile(str(path), dtype="<f4")
    # checked as float32: casting a signalling NaN would warn first
    if not np.all(np.isfinite(raw)):
        raise ScanParseError(f"{path}: non-finite values in scan")
    pts = raw.reshape(-1, 4).astype(float)
    pts[:, 3] = normalize_intensity(pts[:, 3])
    return PointCloud(pts, frame_id=os.path.splitext(os.path.basename(str(path)))[0])


def read_exact(fh, n: int, path) -> bytes:
    """Exactly ``n`` bytes from a binary file; fewer raise ScanParseError."""
    data = fh.read(n)
    if len(data) != n:
        raise ScanParseError(f"{path}: truncated at byte {fh.tell()}")
    return data


def read_text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file without their newlines; bytes that are
    not UTF-8 raise ScanParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise ScanParseError(f"{path}: not UTF-8 text: {exc}") from exc


def write_scan(cloud: PointCloud, path) -> None:
    cloud.points.astype("<f4").tofile(str(path))


def project(cloud: PointCloud, spec: ProjectionSpec) -> RangeImage:
    """Spherical projection; on pixel collision the nearer point wins.

    Points at zero range (undefined direction) and beyond max_range are
    skipped. The result is independent of input point order.
    """
    H, W = spec.height, spec.width
    x, y, z = cloud.points[:, 0], cloud.points[:, 1], cloud.points[:, 2]
    i = cloud.points[:, 3]
    r = cloud.ranges

    keep = (r > 0) & (r <= spec.max_range)
    x, y, z, i, r = x[keep], y[keep], z[keep], i[keep], r[keep]

    fov = spec.fov_up - spec.fov_down
    u = np.floor(0.5 * (1.0 - np.arctan2(y, x) / math.pi) * W).astype(int)
    v = np.floor((1.0 - (np.arcsin(np.clip(z / r, -1, 1)) - spec.fov_down) / fov) * H).astype(int)
    u = np.clip(u, 0, W - 1)
    v = np.clip(v, 0, H - 1)

    dist = np.zeros((H, W))
    inten = np.zeros((H, W))
    mask = np.zeros((H, W), dtype=bool)
    # write far-to-near so the nearest (lowest intensity on exact range ties)
    # point lands last; ordering keys make the result point-order independent
    order = np.lexsort((i, r))[::-1]
    dist[v[order], u[order]] = r[order] / spec.max_range
    inten[v[order], u[order]] = i[order]
    mask[v[order], u[order]] = True
    return RangeImage(dist=dist, inten=inten, mask=mask, spec=spec)


def pixel_rays(spec: ProjectionSpec):
    """Unit ray directions (H, W, 3) through every pixel center."""
    H, W = spec.height, spec.width
    u = np.arange(W) + 0.5
    v = np.arange(H) + 0.5
    az = math.pi * (1.0 - 2.0 * u / W)
    el = spec.fov_down + (spec.fov_up - spec.fov_down) * (1.0 - v / H)
    caz, saz = np.cos(az), np.sin(az)
    cel, sel = np.cos(el), np.sin(el)
    rays = np.empty((H, W, 3))
    rays[:, :, 0] = cel[:, None] * caz[None, :]
    rays[:, :, 1] = cel[:, None] * saz[None, :]
    rays[:, :, 2] = np.broadcast_to(sel[:, None], (H, W))
    return rays


def back_project(img: RangeImage) -> PointCloud:
    """One point per valid pixel of ``img.spec``, on the pixel-center ray at
    range d * max_range."""
    spec = img.spec
    rays = pixel_rays(spec)
    vmask = img.mask
    r = img.dist[vmask] * spec.max_range
    xyz = rays[vmask] * r[:, None]
    pts = np.concatenate([xyz, img.inten[vmask][:, None]], axis=1)
    return PointCloud(pts, frame_id=f"backproj_{spec.height}x{spec.width}")
