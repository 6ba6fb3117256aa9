"""Scan Context place recognition: polar max-height descriptor, ring-key
pre-search, and column-shift matching.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .pointcloud import PointCloud, ScanParseError, read_exact

DEFAULT_RINGS = 20
DEFAULT_SECTORS = 60
DEFAULT_MAX_RADIUS = 80.0
CANDIDATE_FACTOR = 10  # ring-key pre-selection keeps 10 * top_n candidates

_DB_MAGIC = b"WLDB"
_DB_VERSION = 1


@dataclass(frozen=True)
class ScanContext:
    """R x S polar grid of per-bin max height plus a ring occupancy key."""

    cells: np.ndarray     # (R, S) max z per bin, 0 where empty
    ring_key: np.ndarray  # (R,) fraction of occupied sectors per ring


def make_descriptor(cloud: PointCloud, rings: int = DEFAULT_RINGS,
                    sectors: int = DEFAULT_SECTORS,
                    max_radius: float = DEFAULT_MAX_RADIUS) -> ScanContext:
    """Bin points by planar (range, azimuth); each cell keeps the max z."""
    if max_radius <= 0:
        raise ValueError("max_radius must be positive")
    cells = np.full((rings, sectors), -np.inf)
    if len(cloud):
        x, y, z = cloud.points[:, 0], cloud.points[:, 1], cloud.points[:, 2]
        r = np.hypot(x, y)
        keep = (r > 0) & (r < max_radius)
        r, az, z = r[keep], np.arctan2(y[keep], x[keep]), z[keep]
        az = np.mod(az, 2.0 * np.pi)
        ring = np.minimum((r / max_radius * rings).astype(int), rings - 1)
        sector = np.minimum((az / (2.0 * np.pi) * sectors).astype(int), sectors - 1)
        np.maximum.at(cells, (ring, sector), z)
    occupied = np.isfinite(cells)
    cells[~occupied] = 0.0
    return ScanContext(cells=cells, ring_key=occupied.mean(axis=1))


def sc_distance(a: ScanContext, b: ScanContext):
    """Min over column shifts of the mean per-column cosine distance.

    Column pairs where either column is all-zero are skipped. Returns
    (distance in [0, 1], minimizing shift).
    """
    if a.cells.shape != b.cells.shape:
        raise ValueError(f"descriptor shapes differ: {a.cells.shape} vs {b.cells.shape}")
    A, B = a.cells, b.cells
    S = A.shape[1]
    na = np.linalg.norm(A, axis=0)
    nb = np.linalg.norm(B, axis=0)
    pair_valid = np.outer(na > 0, nb > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (A.T @ B) / np.outer(na, nb)
    dist = np.where(pair_valid, (1.0 - cos) / 2.0, 0.0)
    # column jb = (j - shift) mod S pairs with column j at each shift
    j = np.arange(S)
    jb = (j[None, :] - j[:, None]) % S          # (shift, j)
    counts = pair_valid[j[None, :], jb].sum(axis=1)
    sums = dist[j[None, :], jb].sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_shift = np.where(counts > 0, sums / np.maximum(counts, 1), np.inf)
    if not np.isfinite(per_shift).any():
        return 1.0, 0
    best = int(np.argmin(per_shift))
    return float(per_shift[best]), best


class PlaceDatabase:
    """Location-tagged descriptors with a ring-key index for pre-search."""

    def __init__(self, rings: int = DEFAULT_RINGS, sectors: int = DEFAULT_SECTORS):
        self.rings = rings
        self.sectors = sectors
        self.ids: list[int] = []
        self.poses: list[tuple[float, float]] = []
        self.descriptors: list[ScanContext] = []

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, scan_id: int, pose, descriptor: ScanContext) -> None:
        if scan_id in self.ids:
            raise ValueError(f"duplicate scan id: {scan_id}")
        if descriptor.cells.shape != (self.rings, self.sectors):
            raise ValueError("descriptor shape does not match database")
        self.ids.append(int(scan_id))
        self.poses.append((float(pose[0]), float(pose[1])))
        self.descriptors.append(descriptor)

    def _ring_key_matrix(self) -> np.ndarray:
        return np.stack([d.ring_key for d in self.descriptors])

    def candidates(self, q: ScanContext, count: int) -> np.ndarray:
        """Indices of the ``count`` nearest entries by ring-key L2 distance."""
        keys = self._ring_key_matrix()
        d = np.linalg.norm(keys - q.ring_key, axis=1)
        order = np.lexsort((np.array(self.ids), d))
        return order[:count]

    def query(self, q: ScanContext, top_n: int = 1, exclude_ids=None):
        """Ranked (scan id, distance) list; ties broken by lower scan id."""
        if not self.ids:
            raise ValueError("query against an empty database")
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        exclude = set(exclude_ids or ())
        cand = [k for k in self.candidates(q, CANDIDATE_FACTOR * top_n)
                if self.ids[k] not in exclude]
        scored = []
        for k in cand:
            d, _ = sc_distance(q, self.descriptors[k])
            scored.append((d, self.ids[k]))
        scored.sort()
        return [(sid, d) for d, sid in scored[:top_n]]

    def save(self, path) -> None:
        """Binary layout: magic, version, R, S, count, then per entry
        id (int64), pose (2 float64), cells (R*S float32)."""
        with open(path, "wb") as fh:
            fh.write(_DB_MAGIC)
            fh.write(struct.pack("<III", _DB_VERSION, self.rings, self.sectors))
            fh.write(struct.pack("<I", len(self.ids)))
            for sid, pose, desc in zip(self.ids, self.poses, self.descriptors):
                fh.write(struct.pack("<q", sid))
                fh.write(struct.pack("<dd", *pose))
                fh.write(desc.cells.astype("<f4").tobytes())

    @classmethod
    def load(cls, path) -> "PlaceDatabase":
        """Read a save() file; a truncated or malformed one, or one with bytes
        past its last entry, raises pointcloud.ScanParseError."""
        with open(path, "rb") as fh:
            if fh.read(4) != _DB_MAGIC:
                raise ScanParseError(f"{path}: not a place database file")
            version, rings, sectors = struct.unpack("<III", read_exact(fh, 12, path))
            if version != _DB_VERSION:
                raise ScanParseError(f"{path}: unsupported version {version}")
            (count,) = struct.unpack("<I", read_exact(fh, 4, path))
            db = cls(rings=rings, sectors=sectors)
            for _ in range(count):
                sid, px, py = struct.unpack("<qdd", read_exact(fh, 24, path))
                cells = np.frombuffer(read_exact(fh, 4 * rings * sectors, path),
                                      dtype="<f4").reshape(rings, sectors).astype(float)
                occupied = cells != 0.0
                db.add(sid, (px, py), ScanContext(cells=cells, ring_key=occupied.mean(axis=1)))
            if fh.read(1):
                raise ScanParseError(f"{path}: bytes past entry {count} at byte {fh.tell() - 1}")
        return db
