"""Scan Context place recognition: polar max-height descriptor, ring-key
pre-search, and column-shift matching.
"""
from __future__ import annotations

import math
import os
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
_INDEX_BLOCK = 8     # entries that PlaceDatabase indexes, and load reads, at a time
_GATHER_BLOCK = 64   # candidates whose spectra a query gathers at a time


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
    """Fraction of occupied sectors per ring of (..., R, S) cells. A bin is
    occupied when its cell is non-zero, as the distance kernel reads it, so
    PlaceDatabase.load, which stores only the cells, rebuilds the same key."""
    return (cells != 0).mean(axis=-1)


def _ring_spectra(cells: np.ndarray):
    """Per-ring spectra along the sectors of the unit columns of (..., R, S)
    cells, laid out (..., S // 2 + 1, R), and the non-empty-column mask
    (..., S). Each descriptor's result is the same bits alone or in a stack."""
    norms = np.sqrt(np.square(cells).sum(axis=-2))
    nonempty = norms > 0
    # an empty column has norm 0 and stays 0; dividing it by 1 avoids a masked divide
    unit = cells / np.where(nonempty, norms, 1.0)[..., None, :]
    return np.fft.rfft(unit, axis=-1).swapaxes(-1, -2), nonempty


def _shift_distances(q_cells: np.ndarray, spectra: np.ndarray, nonempty: np.ndarray,
                     rows: np.ndarray) -> np.ndarray:
    """Mean per-column cosine distance of a query (R, S) to the entries
    ``rows`` of ring spectra (N, S // 2 + 1, R) and non-empty columns (N, S),
    at every column shift: (len(rows), S), inf where no column pair is
    non-empty in both.

    Shift s pairs query column j with candidate column (j - s) mod S. The sum
    of the unit-column cosines over rings is a circular cross-correlation,
    irfft(sum over r of conj(candidate) * query); the counts of valid pairs
    are an exact 0/1 product. Spectra are gathered _GATHER_BLOCK rows at a time.
    """
    S = q_cells.shape[1]
    q_spectra, q_nonempty = _ring_spectra(q_cells)
    cross = np.empty((len(rows), q_spectra.shape[0]), dtype=complex)
    for lo in range(0, len(rows), _GATHER_BLOCK):
        part = slice(lo, lo + _GATHER_BLOCK)
        np.vecdot(spectra[rows[part]], q_spectra, out=cross[part])   # conjugates spectra
    cos_sum = np.fft.irfft(cross, n=S)
    roll = (np.arange(S)[:, None] + np.arange(S)) % S            # roll[jb, s] = jb + s
    counts = nonempty[rows].astype(float) @ q_nonempty[roll].astype(float)
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
    spectra, nonempty = _ring_spectra(b.cells)
    per_shift = _shift_distances(a.cells, spectra[None], nonempty[None], np.array([0]))[0]
    if not np.isfinite(per_shift).any():
        return 1.0, 0
    best = int(np.argmin(per_shift))
    return float(per_shift[best]), best


class PlaceDatabase:
    """Location-tagged descriptors with a ring-key index for pre-search.

    ``add`` is the only way in. Next to ``ids``, ``poses`` and ``descriptors``
    the index holds one row per entry (ring key, id, ring spectra, non-empty
    columns), written by ``_index`` in blocks; rows past ``len(self)`` are spare.
    """

    def __init__(self, rings: int = DEFAULT_RINGS, sectors: int = DEFAULT_SECTORS):
        self.rings = rings
        self.sectors = sectors
        self.ids: list[int] = []
        self.poses: list[tuple[float, float]] = []
        self.descriptors: list[ScanContext] = []
        self._id_set: set[int] = set()
        self._indexed = 0    # entries whose index rows are written
        self._keys = np.empty((0, rings))
        self._id_array = np.empty(0, dtype=np.int64)
        self._spectra = np.empty((0, sectors // 2 + 1, rings), dtype=complex)
        self._nonempty = np.empty((0, sectors), dtype=bool)

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, scan_id: int, pose, descriptor: ScanContext) -> None:
        """Append an entry: an id not yet present, a finite (x, y) pose and
        (R, S) cells with an (R,) ring key, else ValueError."""
        scan_id, pose = int(scan_id), (float(pose[0]), float(pose[1]))
        if scan_id in self._id_set:
            raise ValueError(f"duplicate scan id: {scan_id}")
        if not (math.isfinite(pose[0]) and math.isfinite(pose[1])):
            raise ValueError(f"non-finite pose {pose} for scan id {scan_id}")
        if (descriptor.cells.shape != (self.rings, self.sectors)
                or np.shape(descriptor.ring_key) != (self.rings,)):
            raise ValueError("descriptor shape does not match database")
        self.ids.append(scan_id)
        self._id_set.add(scan_id)
        self.poses.append(pose)
        self.descriptors.append(descriptor)
        n = len(self.ids)
        if len(self._keys) < n:
            # rows to the end of this entry's block, so the arrays grow once a
            # block and a query grows none. resize reallocs in place; its
            # reference check is off, since no view outlives a call of this
            # class and a tracer's reference to a frame would make it refuse
            rows = -(-n // _INDEX_BLOCK) * _INDEX_BLOCK
            self._keys.resize((rows, self.rings), refcheck=False)
            self._id_array.resize(rows, refcheck=False)
            self._spectra.resize((rows,) + self._spectra.shape[1:], refcheck=False)
            self._nonempty.resize((rows, self.sectors), refcheck=False)
        if n - self._indexed >= _INDEX_BLOCK:
            self._index()

    def _index(self) -> None:
        """Write the index rows of every entry not yet indexed, with one
        _ring_spectra call on their cells, stacked as float64 as load reads
        them, so no entry's row depends on the others in its block."""
        lo, n = self._indexed, len(self.ids)
        if lo == n:
            return
        new = self.descriptors[lo:]
        self._keys[lo:n] = [d.ring_key for d in new]
        self._id_array[lo:n] = self.ids[lo:]
        self._spectra[lo:n], self._nonempty[lo:n] = _ring_spectra(
            np.stack([d.cells for d in new], dtype=float))
        self._indexed = n

    def candidates(self, q: ScanContext, count: int) -> np.ndarray:
        """Indices of the ``count`` nearest entries by ring-key L2 distance."""
        self._index()
        n = len(self.ids)
        d = np.linalg.norm(self._keys[:n] - q.ring_key, axis=1)
        return np.lexsort((self._id_array[:n], d))[:count]

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
        ids = self._id_array[cand]
        if exclude_ids is not None:
            keep = ~np.isin(ids, np.fromiter(exclude_ids, dtype=np.int64))
            cand, ids = cand[keep], ids[keep]
        d = _shift_distances(q.cells, self._spectra, self._nonempty, cand).min(axis=1)
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
        """Read a save() file; a truncated or malformed one, one with no
        entries, or one with bytes past its last entry, raises
        pointcloud.ScanParseError.

        The header's entry count is checked against the file's size before
        anything is allocated; the body is then read in blocks of
        _INDEX_BLOCK entries, and each entry goes through add.
        """
        with open(path, "rb") as fh:
            if fh.read(4) != _DB_MAGIC:
                raise ScanParseError(f"{path}: not a place database file")
            version, rings, sectors = struct.unpack("<III", read_exact(fh, 12, path))
            if version != _DB_VERSION:
                raise ScanParseError(f"{path}: unsupported version {version}")
            if rings < 1 or sectors < 1:
                raise ScanParseError(f"{path}: bad grid of {rings} rings x {sectors} sectors")
            (count,) = struct.unpack("<I", read_exact(fh, 4, path))
            if count == 0:
                # save() of an empty database; no entry bounds its header's grid
                raise ScanParseError(f"{path}: a database with no entries")
            end = fh.tell() + count * (24 + 4 * rings * sectors)
            size = os.fstat(fh.fileno()).st_size
            if size < end:
                raise ScanParseError(f"{path}: truncated: {count} entries end at byte "
                                     f"{end}, the file has {size}")
            if size > end:
                raise ScanParseError(f"{path}: bytes past entry {count} at byte {end}")
            record = np.dtype([("id", "<i8"), ("pose", "<f8", 2),
                               ("cells", "<f4", (rings, sectors))])
            db = cls(rings=rings, sectors=sectors)
            # exact-size index arrays, so add never grows them here
            db._keys = np.empty((count, rings))
            db._id_array = np.empty(count, dtype=np.int64)
            db._spectra = np.empty((count, sectors // 2 + 1, rings), dtype=complex)
            db._nonempty = np.empty((count, sectors), dtype=bool)
            for lo in range(0, count, _INDEX_BLOCK):
                hi = min(lo + _INDEX_BLOCK, count)
                block = np.frombuffer(read_exact(fh, (hi - lo) * record.itemsize, path),
                                      dtype=record)
                if not np.isfinite(block["cells"]).all():
                    raise ScanParseError(f"{path}: non-finite cells in entries {lo}-{hi - 1}")
                # small blocks of cells, which the descriptors view, reuse freed heap
                cells = block["cells"].astype(float)
                try:
                    for sid, pose, c, key in zip(block["id"], block["pose"], cells,
                                                 _ring_key(cells)):
                        db.add(sid, pose, ScanContext(c, key))
                except ValueError as exc:
                    raise ScanParseError(f"{path}: {exc}") from exc
        return db
