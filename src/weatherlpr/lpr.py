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
    cells[~np.isfinite(cells)] = 0.0
    return ScanContext(cells=cells, ring_key=_ring_key(cells))


def _ring_key(cells: np.ndarray) -> np.ndarray:
    """Fraction of occupied sectors per ring. A bin is occupied when its
    cell is non-zero, as the distance kernel reads it, so PlaceDatabase.load,
    which stores only the cells, rebuilds the same key."""
    return (cells != 0).mean(axis=1)


def _shift_distances(q_cells: np.ndarray, cand_cells: np.ndarray) -> np.ndarray:
    """Mean per-column cosine distance of a query (R, S) to each candidate
    (N, R, S) at every column shift: (N, S), inf where no column pair is
    non-empty in both.

    Shift s pairs query column j with candidate column (j - s) mod S. The
    candidates' columns are normalised in place, so pass a scratch copy.
    """
    S = q_cells.shape[1]
    nq = np.sqrt(np.einsum("rs,rs->s", q_cells, q_cells))
    nc = np.sqrt(np.einsum("nrs,nrs->ns", cand_cells, cand_cells))   # no (N, R, S) temporary
    # an empty column has norm 0 and stays 0; dividing it by 1 avoids a masked divide
    q_hat = q_cells / np.where(nq > 0, nq, 1.0)
    cand_cells /= np.where(nc > 0, nc, 1.0)[:, None, :]
    roll = (np.arange(S)[:, None] + np.arange(S)) % S            # roll[jb, s] = jb + s
    cos_sum = np.zeros((len(cand_cells), S))
    for r in range(q_cells.shape[0]):
        cos_sum += cand_cells[:, r, :] @ q_hat[r, roll]
    counts = (nc > 0).astype(float) @ (nq > 0)[roll].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(counts > 0, (counts - cos_sum) / (2.0 * counts), np.inf)


def sc_distance(a: ScanContext, b: ScanContext):
    """Min over column shifts of the mean per-column cosine distance.

    Column pairs where either column is all-zero are skipped. Returns
    (distance in [0, 1], minimizing shift); (1.0, 0) when no shift has a
    non-empty pair.
    """
    if a.cells.shape != b.cells.shape:
        raise ValueError(f"descriptor shapes differ: {a.cells.shape} vs {b.cells.shape}")
    per_shift = _shift_distances(a.cells, b.cells[None].astype(float))[0]
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
        self._id_set: set[int] = set()
        self._index = None  # (ring-key matrix (N, R), id array (N,)), built on demand

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, scan_id: int, pose, descriptor: ScanContext) -> None:
        if scan_id in self._id_set:
            raise ValueError(f"duplicate scan id: {scan_id}")
        if descriptor.cells.shape != (self.rings, self.sectors):
            raise ValueError("descriptor shape does not match database")
        self.ids.append(int(scan_id))
        self._id_set.add(int(scan_id))
        self.poses.append((float(pose[0]), float(pose[1])))
        self.descriptors.append(descriptor)
        self._index = None

    def _ring_keys_and_ids(self):
        if self._index is None:
            self._index = (np.stack([d.ring_key for d in self.descriptors]),
                           np.array(self.ids))
        return self._index

    def candidates(self, q: ScanContext, count: int) -> np.ndarray:
        """Indices of the ``count`` nearest entries by ring-key L2 distance."""
        keys, ids = self._ring_keys_and_ids()
        d = np.linalg.norm(keys - q.ring_key, axis=1)
        return np.lexsort((ids, d))[:count]

    def query(self, q: ScanContext, top_n: int = 1, exclude_ids=None):
        """Ranked (scan id, distance) list; ties broken by lower scan id.

        Every ring-key candidate is scored at every column shift in one
        call of the distance kernel.
        """
        if not self.ids:
            raise ValueError("query against an empty database")
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        if q.cells.shape != (self.rings, self.sectors):
            raise ValueError("descriptor shape does not match database")
        cand = self.candidates(q, CANDIDATE_FACTOR * top_n)
        ids = self._ring_keys_and_ids()[1][cand]
        if exclude_ids is not None:
            keep = ~np.isin(ids, np.fromiter(exclude_ids, dtype=np.int64))
            cand, ids = cand[keep], ids[keep]
        cells = np.array([self.descriptors[k].cells for k in cand], dtype=float)
        d = _shift_distances(q.cells, cells.reshape(-1, self.rings, self.sectors)).min(axis=1)
        d[~np.isfinite(d)] = 1.0
        return [(int(ids[k]), float(d[k])) for k in np.lexsort((ids, d))[:top_n]]

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
                db.add(sid, (px, py), ScanContext(cells=cells, ring_key=_ring_key(cells)))
            if fh.read(1):
                raise ScanParseError(f"{path}: bytes past entry {count} at byte {fh.tell() - 1}")
        return db
