"""Test-only helpers: the central-difference gradient checker, loop-based
Recall@N and AUC/F1 oracles, the per-group convolution and np.add.at padding
references, and a writer that puts a synthetic world on disk as scan files
and pose files."""
import math
import os

import numpy as np

from weatherlpr.bench import SyntheticWorld, write_pose_file
from weatherlpr.pointcloud import write_scan
from weatherlpr.tensorops import pad_reflect


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


def grouped_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, groups: int = 1):
    """Reference for tensorops.conv2d: one product per group and tap."""
    H, W, cin = x.shape
    kh, kw, cg, cout = w.shape
    xp, pad_cache = pad_reflect(x, kh // 2, kw // 2)
    y = np.zeros((H, W, cout))
    gi, go = cin // groups, cout // groups
    for g in range(groups):
        xs = slice(g * gi, (g + 1) * gi)
        ys = slice(g * go, (g + 1) * go)
        for ki in range(kh):
            for kj in range(kw):
                y[:, :, ys] += xp[ki:ki + H, kj:kj + W, xs] @ w[ki, kj, :, ys]
    y += b
    return y, (xp, pad_cache, w, groups)


def pad_reflect_backward_add_at(cache, gpad: np.ndarray) -> np.ndarray:
    """Reference for tensorops.pad_reflect_backward: np.add.at adds each
    padded element, in C order, into zeros at its source index."""
    if cache is None:
        return gpad
    shape, ih, iw = cache
    gx = np.zeros(shape, dtype=gpad.dtype)
    np.add.at(gx, (ih[:, None], iw[None, :]), gpad)
    return gx


def grouped_conv2d_backward(cache, gy: np.ndarray):
    """Reference for tensorops.conv2d_backward, sharing none of its code: one
    einsum and one product per group and tap, each over that group's
    channels, then pad_reflect_backward_add_at."""
    xp, pad_cache, w, groups = cache
    kh, kw, cg, cout = w.shape
    H, W, _ = gy.shape
    cin = cg * groups
    gi, go = cin // groups, cout // groups
    gw = np.zeros(w.shape)
    gxp = np.zeros_like(xp)
    for g in range(groups):
        xs = slice(g * gi, (g + 1) * gi)
        ys = slice(g * go, (g + 1) * go)
        gys = gy[:, :, ys]
        for ki in range(kh):
            for kj in range(kw):
                patch = xp[ki:ki + H, kj:kj + W, xs]
                gw[ki, kj, :, ys] = np.einsum("hwc,hwd->cd", patch, gys)
                gxp[ki:ki + H, kj:kj + W, xs] += gys @ w[ki, kj, :, ys].T
    gx = pad_reflect_backward_add_at(pad_cache, gxp)
    return gx, gw, gy.sum(axis=(0, 1))


def brute_recall(records, n, radius):
    """Independent loop-based Recall@N."""
    hits = total = 0
    for rec in records:
        pos = [s for s, p in rec.db_poses.items()
               if math.dist(rec.query_pose, p) <= radius]
        if not pos:
            continue
        total += 1
        if any(s in pos for s, _ in rec.matches[:n]):
            hits += 1
    return hits / total


def brute_auc_f1(records, radius):
    """Exhaustive threshold sweep written independently of the module."""
    rows = []
    for rec in records:
        sid, d = rec.matches[0]
        correct = math.dist(rec.query_pose, rec.db_poses[sid]) <= radius
        has_pos = any(math.dist(rec.query_pose, p) <= radius
                      for p in rec.db_poses.values())
        rows.append((d, correct, has_pos))
    pts, f1s = [], []
    for t in sorted({d for d, _, _ in rows}):
        tp = sum(1 for d, c, _ in rows if d <= t and c)
        fp = sum(1 for d, c, _ in rows if d <= t and not c)
        fn = sum(1 for d, _, hp in rows if d > t and hp)
        pr = tp / (tp + fp) if tp + fp else 1.0
        rc = tp / (tp + fn) if tp + fn else 0.0
        pts.append((rc, pr))
        if pr + rc:
            f1s.append(2 * pr * rc / (pr + rc))
    rc = [0.0] + [r for r, _ in pts]
    pr = [pts[0][1]] + [p for _, p in pts]
    auc = sum((rc[k + 1] - rc[k]) * (pr[k + 1] + pr[k]) / 2 for k in range(len(pts)))
    return auc, (max(f1s) if f1s else 0.0)


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
