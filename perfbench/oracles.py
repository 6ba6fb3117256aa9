"""Correctness checks computed apart from the program.

Each check returns a list of failure messages; an empty list means the
program's outputs passed. Only numpy is used here: no weatherlpr code.
"""
from __future__ import annotations

import numpy as np

DIST_TOL = 1e-9      # descriptor distances: the oracle sums in another order
METRIC_TOL = 1e-12   # recall, AUC and F1 recomputed from the same rankings


# ---------------------------------------------------------------------------
# Scan Context


def descriptor(points, rings, sectors, max_radius):
    """(cells, ring_key) of the polar max-height grid.

    Binning follows the Scan Context definition; each cell's maximum is
    taken by sorting points by bin and reducing runs.
    """
    cells = np.full((rings, sectors), -np.inf)
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    r = np.hypot(x, y)
    keep = (r > 0) & (r < max_radius)
    r, az, z = r[keep], np.mod(np.arctan2(y[keep], x[keep]), 2.0 * np.pi), z[keep]
    ring = np.minimum((r / max_radius * rings).astype(int), rings - 1)
    sector = np.minimum((az / (2.0 * np.pi) * sectors).astype(int), sectors - 1)
    flat = ring * sectors + sector
    if flat.size:
        order = np.argsort(flat, kind="stable")
        flat, z = flat[order], z[order]
        starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
        cells.flat[flat[starts]] = np.maximum.reduceat(z, starts)
    occupied = np.isfinite(cells)
    cells[~occupied] = 0.0
    return cells, occupied.sum(axis=1) / sectors


def brute_distance(a, b):
    """Min over every column shift of the mean cosine distance of column
    pairs that are both non-empty; 1.0 when no shift has such a pair.

    Shift s pairs column j of ``a`` with column (j - s) mod S of ``b``, so
    column k of ``b`` meets column k of ``np.roll(a, -s, axis=1)``. ``b`` is
    a stack of descriptors (N, R, S); the result has shape (N,).
    """
    S = a.shape[1]
    rolled = np.stack([np.roll(a, -s, axis=1) for s in range(S)])    # (shift, R, S)
    na = np.sqrt((rolled * rolled).sum(axis=1))                       # (shift, S)
    nb = np.sqrt((b * b).sum(axis=1))                                 # (N, S)
    dots = (rolled.transpose(2, 0, 1) @ b.transpose(2, 1, 0)).transpose(2, 1, 0)  # (N, shift, S)
    valid = (na[None] > 0) & (nb[:, None, :] > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = dots / (na[None] * nb[:, None, :])
    d = np.where(valid, (1.0 - cos) / 2.0, 0.0).sum(axis=-1)
    n = valid.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_shift = np.where(n > 0, d / np.maximum(n, 1), np.inf)
    best = per_shift.min(axis=-1)
    return np.where(np.isfinite(best), best, 1.0)


def preselect(db_cells, db_ids, q_cells, count, exclude=()):
    """Indices of the ``count`` entries nearest by ring key (L2 over the
    per-ring share of non-empty cells), ties to the lower id, then
    without the excluded ids."""
    S = q_cells.shape[1]
    keys = np.count_nonzero(db_cells, axis=2) / S
    qkey = np.count_nonzero(q_cells, axis=1) / S
    d = np.linalg.norm(keys - qkey, axis=1)
    order = np.lexsort((np.asarray(db_ids), d))[:count]
    excluded = set(exclude)
    return [k for k in order if db_ids[k] not in excluded]


def check_ranking(result, db_cells, db_ids, q_cells, top_n, count, exclude=()):
    """A ranked (id, distance) list against brute force over the ring-key
    candidates: each distance is the brute-force one, the list ascends, and
    its k-th distance is the k-th smallest among the candidates."""
    cand = preselect(db_cells, db_ids, q_cells, count, exclude)
    if not cand:
        return ["no candidates survive preselection"]
    dist = brute_distance(q_cells, db_cells[cand])
    truth = dict(zip((db_ids[k] for k in cand), dist))
    expect = np.sort(dist)[:top_n]
    fails = []
    if len(result) != len(expect):
        return [f"returned {len(result)} matches, expected {len(expect)}"]
    ids = [sid for sid, _ in result]
    if len(set(ids)) != len(ids):
        fails.append("duplicate ids in ranking")
    for rank, (sid, d) in enumerate(result):
        if sid not in truth:
            fails.append(f"id {sid} is not a ring-key candidate")
        elif abs(truth[sid] - d) > DIST_TOL:
            fails.append(f"id {sid}: distance {d!r}, brute force {truth[sid]!r}")
        if abs(expect[rank] - d) > DIST_TOL:
            fails.append(f"rank {rank}: distance {d!r}, brute force {expect[rank]!r}")
    if any(b < a for (_, a), (_, b) in zip(result, result[1:])):
        fails.append("ranking is not ascending")
    return fails


# ---------------------------------------------------------------------------
# retrieval metrics


def positives(query_poses, db_poses, pos_radius):
    """Query x database matrix: True where the database pose lies within
    ``pos_radius`` of the query pose."""
    q = np.asarray(query_poses, dtype=float)
    d = np.asarray(db_poses, dtype=float)
    return np.hypot(q[:, None, 0] - d[None, :, 0], q[:, None, 1] - d[None, :, 1]) <= pos_radius


def retrieval_row(rankings, query_poses, db_ids, db_poses, pos_radius):
    """{auc, f1, r1, r5, r20} from ranked id lists and one positives matrix.

    Recall counts only queries that have a positive anywhere. The
    precision-recall sweep runs over the distinct top-1 distances; AUC is
    the trapezoid area from (recall 0, first precision).
    """
    pos = positives(query_poses, db_poses, pos_radius)
    column = {sid: k for k, sid in enumerate(db_ids)}
    has_pos = pos.any(axis=1)
    row = {}
    for n in (1, 5, 20):
        hit = np.array([any(pos[q, column[sid]] for sid, _ in ranked[:n])
                        for q, ranked in enumerate(rankings)])
        row[f"r{n}"] = hit[has_pos].sum() / has_pos.sum()

    top_d = np.array([ranked[0][1] for ranked in rankings])
    correct = np.array([pos[q, column[ranked[0][0]]] for q, ranked in enumerate(rankings)])
    order = np.argsort(top_d, kind="stable")
    d_sorted = top_d[order]
    tp = np.cumsum(correct[order])
    fp = np.cumsum(~correct[order])
    pos_seen = np.cumsum(has_pos[order])
    last = np.r_[d_sorted[1:] != d_sorted[:-1], True]   # end of each distance run
    tp, fp = tp[last], fp[last]
    fn = has_pos.sum() - pos_seen[last]
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 1.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0,
                      2 * precision * recall / (precision + recall), 0.0)
    r = np.r_[0.0, recall]
    p = np.r_[precision[0], precision]
    row["auc"] = float(((r[1:] - r[:-1]) * (p[1:] + p[:-1]) / 2.0).sum())
    row["f1"] = float(f1.max())
    return row


def compare_row(got, expect, label):
    return [f"{label} {key}: program {got[key]!r}, oracle {expect[key]!r}"
            for key in ("auc", "f1", "r1", "r5", "r20")
            if abs(float(got[key]) - float(expect[key])) > METRIC_TOL]


# ---------------------------------------------------------------------------
# corruption and restoration


def check_corruption(kind, src_points, out_points, noise_mask, source_index, dropped):
    """Invariants every corruption output must keep.

    Source and dropped indices partition the input. A kept point that is
    not noise keeps its coordinates bit for bit (fog attenuates its
    intensity; snow and rain keep that too). A fog noise point lies on its
    source's ray, no farther than the source.
    """
    n = len(src_points)
    fails = []
    both = np.concatenate([source_index, dropped])
    if len(both) != n or not np.array_equal(np.sort(both), np.arange(n)):
        fails.append(f"{kind}: source and dropped indices do not partition {n} inputs")
        return fails
    if len(out_points) != len(source_index) or len(noise_mask) != len(source_index):
        return [f"{kind}: annotation length does not match the output"]
    src = src_points[source_index]
    clean = ~noise_mask
    width = 4 if kind in ("snow", "rain") else 3
    if not np.array_equal(out_points[clean, :width], src[clean, :width]):
        fails.append(f"{kind}: a kept clean point differs from its source")
    if kind == "fog" and noise_mask.any():
        a, b = out_points[noise_mask, :3], src[noise_mask, :3]
        ra, rb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
        if (ra > rb * (1 + 1e-12)).any():
            fails.append("fog: a noise point lies beyond its source")
        cosang = (a * b).sum(axis=1) / np.maximum(ra * rb, 1e-300)
        if (cosang < 1 - 1e-12).any():
            fails.append("fog: a noise point is off its source's ray")
    return fails


def check_restored(in_mask, dist, inten, mask):
    """A restored range image: mask within the input mask, values in [0, 1],
    and empty pixels read zero."""
    fails = []
    if (mask & ~in_mask).any():
        fails.append("restored mask has pixels the input lacks")
    for name, ch in (("dist", dist), ("inten", inten)):
        if not np.all((ch >= 0.0) & (ch <= 1.0)):
            fails.append(f"restored {name} leaves [0, 1]")
        if np.any(ch[~mask] != 0.0):
            fails.append(f"restored {name} is non-zero on an empty pixel")
    return fails


# ---------------------------------------------------------------------------
# gradients


def central_difference(f, values, index, step):
    """(f(v + h) - f(v - h)) / 2h for one element of ``values``, in place."""
    orig = values.flat[index]
    values.flat[index] = orig + step
    up = f()
    values.flat[index] = orig - step
    down = f()
    values.flat[index] = orig
    return (up - down) / (2.0 * step)


def check_gradient(name, analytic, numeric, atol=1e-6, rtol=1e-4):
    if abs(analytic - numeric) > atol + rtol * abs(numeric):
        return [f"{name}: analytic {analytic!r}, central difference {numeric!r}"]
    return []
