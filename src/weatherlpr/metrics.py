"""Place-recognition scoring: Recall@N, precision-recall AUC, F1, and the
stability-rate aggregation over corruption severities.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

DEFAULT_POS_RADIUS = 5.0


class MetricError(ValueError):
    """Raised when a metric is undefined for the given records."""


@dataclass(frozen=True)
class RetrievalRecord:
    """One query's ranked matches plus the geometry needed for scoring."""

    query_id: int
    matches: tuple          # ((scan_id, descriptor distance), ...) ascending
    query_pose: tuple       # (x, y)
    db_poses: dict          # scan_id -> (x, y); the full database

    def __post_init__(self):
        dists = [d for _, d in self.matches]
        if any(b < a for a, b in zip(dists, dists[1:])):
            raise ValueError("matches must be ranked by ascending distance")


def _geom_dist(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def has_positive(rec: RetrievalRecord, pos_radius: float) -> bool:
    return any(_geom_dist(rec.query_pose, p) <= pos_radius
               for p in rec.db_poses.values())


def _match_correct(rec: RetrievalRecord, scan_id: int, pos_radius: float) -> bool:
    return _geom_dist(rec.query_pose, rec.db_poses[scan_id]) <= pos_radius


def _judge(records, pos_radius: float):
    """Each record's ground truth, evaluated once: (whether the database holds
    a positive for it, the 1-based rank of its first correct match or 0)."""
    return [(has_positive(rec, pos_radius),
             next((rank for rank, (sid, _) in enumerate(rec.matches, 1)
                   if _match_correct(rec, sid, pos_radius)), 0))
            for rec in records]


def _recalls(truth, ns) -> list:
    total = sum(has_pos for has_pos, _ in truth)
    if total == 0:
        raise MetricError("no query has an achievable positive")
    # a correct match is a positive, so only queries with one can hit
    return [sum(0 < first <= n for _, first in truth) / total for n in ns]


def recall_at_n(records, n: int, pos_radius: float = DEFAULT_POS_RADIUS) -> float:
    """Fraction of queries with a true positive in the top n.

    Queries with no achievable positive anywhere in the database are
    excluded from the denominator.
    """
    return recall_at_ns(records, [n], pos_radius)[0]


def recall_at_ns(records, ns, pos_radius: float = DEFAULT_POS_RADIUS) -> list:
    """``recall_at_n`` for each n in ``ns``, judging each record once."""
    if any(n < 1 for n in ns):
        raise ValueError("n must be >= 1")
    if not records:
        raise MetricError("recall over an empty record set")
    return _recalls(_judge(records, pos_radius), ns)


def auc_f1(records, pos_radius: float = DEFAULT_POS_RADIUS):
    """Threshold sweep over top-1 matches -> (PR AUC, max F1).

    The thresholds are the distinct top-1 descriptor distances; a query
    is accepted at threshold t when its top-1 distance is <= t. TP:
    accepted and geometrically correct; FP: accepted and wrong; FN:
    rejected but a positive existed; TN: rejected with no positive. AUC is
    the trapezoidal area under the precision-recall curve; F1 is maximized
    over the sweep.
    """
    return _auc_f1(records, _judge(records, pos_radius))


def _auc_f1(records, truth):
    if not records:
        raise MetricError("auc_f1 over an empty record set")
    top1 = []
    for rec, (has_pos, first) in zip(records, truth):
        if not rec.matches:
            raise MetricError(f"query {rec.query_id} has no matches")
        top1.append((rec.matches[0][1], first == 1, has_pos))
    if not any(hp for _, _, hp in top1):
        raise MetricError("all-negative ground truth: AUC undefined")
    curve = []
    f1_max = 0.0
    for t in sorted({d for d, _, _ in top1}):
        tp = fp = fn = 0
        for dist, correct, has_pos in top1:
            if dist <= t:
                if correct:
                    tp += 1
                else:
                    fp += 1
            elif has_pos:
                fn += 1
        precision = tp / (tp + fp) if (tp + fp) else 1.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        curve.append((recall, precision))
        if precision + recall > 0:
            f1_max = max(f1_max, 2 * precision * recall / (precision + recall))

    # curve stays in threshold-sweep order (recall grows with the threshold)
    recalls = [0.0] + [r for r, _ in curve]
    precisions = [curve[0][1]] + [p for _, p in curve]
    auc = float(np.trapezoid(precisions, recalls))
    return auc, f1_max


@dataclass(frozen=True)
class MetricRow:
    """One (corruption, severity, method) line of the benchmark table."""

    kind: str
    level: int
    method: str
    auc: float
    f1: float
    r1: float
    r5: float
    r20: float

    def __post_init__(self):
        if not (self.r1 <= self.r5 + 1e-12 and self.r5 <= self.r20 + 1e-12):
            raise ValueError("recalls must be monotone: R@1 <= R@5 <= R@20")

    def alp(self, protocol: str) -> float:
        """Protocol-dependent aggregate feeding the stability rate."""
        if protocol == "kitti":
            return self.auc + self.f1 + self.r1 + self.r5
        if protocol == "nclt":
            return self.r1 + self.r5 + self.r20
        raise ValueError(f"unknown protocol: {protocol}")


def score_records(records, kind: str, level: int, method: str,
                  pos_radius: float = DEFAULT_POS_RADIUS) -> MetricRow:
    truth = _judge(records, pos_radius)
    auc, f1 = _auc_f1(records, truth)
    r1, r5, r20 = _recalls(truth, (1, 5, 20))
    return MetricRow(kind=kind, level=level, method=method, auc=auc, f1=f1,
                     r1=r1, r5=r5, r20=r20)


def stability_rate(per_severity, clean_alp: float) -> float:
    """SR for one corruption: mean of the three severity Alp values over
    the clean Alp."""
    if len(per_severity) != 3:
        raise ValueError(f"expected 3 severity values, got {len(per_severity)}")
    if clean_alp <= 0:
        raise MetricError("clean Alp must be positive")
    return float(sum(per_severity)) / (3.0 * clean_alp)


def msr(srs) -> float:
    """Mean stability rate over the three corruption types."""
    if len(srs) != 3:
        raise ValueError(f"expected 3 stability rates, got {len(srs)}")
    return float(sum(srs)) / 3.0


CSV_HEADER = ["kind", "level", "method", "auc", "f1", "r1", "r5", "r20"]


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow(asdict(row))


def write_report(report: dict, path) -> None:
    """Canonical JSON serialization: sorted keys, fixed layout, so equal
    inputs produce byte-identical reports."""
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
