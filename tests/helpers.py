"""Test-only helpers: the central-difference gradient checker and a writer
that puts a synthetic world on disk as scan files and pose files."""
import os

import numpy as np

from weatherlpr.bench import SyntheticWorld, write_pose_file
from weatherlpr.pointcloud import write_scan


def numeric_gradient(f, x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar f at x, elementwise."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        fp = f(x)
        x[idx] = orig - step
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * step)
        it.iternext()
    return g


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(np.asarray(a).ravel())
    nb = np.linalg.norm(np.asarray(b).ravel())
    denom = max(na, nb)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()) / denom)


def write_world(world: SyntheticWorld, out_dir) -> None:
    """Emit scans in the standard binary layout plus pose files."""
    db_dir = os.path.join(out_dir, "database")
    q_dir = os.path.join(out_dir, "queries")
    os.makedirs(db_dir, exist_ok=True)
    os.makedirs(q_dir, exist_ok=True)
    for e in world.database:
        write_scan(e.cloud, os.path.join(db_dir, f"{e.scan_id:06d}.bin"))
    for e in world.queries:
        write_scan(e.cloud, os.path.join(q_dir, f"{e.scan_id:06d}.bin"))
    write_pose_file(world.database, os.path.join(out_dir, "database_poses.txt"))
    write_pose_file(world.queries, os.path.join(out_dir, "query_poses.txt"))
