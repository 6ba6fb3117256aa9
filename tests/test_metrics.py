import math

import numpy as np
import pytest

from weatherlpr import metrics as M


def make_record(rng, qid, n_db=20, n_matches=10, force_positive=None):
    """Random query with known geometry; positives within the 5 m radius."""
    db_poses = {k: (float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
                for k in range(n_db)}
    qpose = (float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
    if force_positive:
        db_poses[0] = (qpose[0] + 1.0, qpose[1])
    ids = rng.permutation(n_db)[:n_matches]
    dists = np.sort(rng.random(n_matches))
    matches = tuple((int(s), float(d)) for s, d in zip(ids, dists))
    return M.RetrievalRecord(query_id=qid, matches=matches, query_pose=qpose,
                             db_poses=db_poses)


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


class TestRecall:
    def test_perfect_retrieval(self):
        rec = M.RetrievalRecord(1, ((0, 0.1),), (0.0, 0.0), {0: (1.0, 0.0)})
        assert M.recall_at_n([rec], 1) == 1.0

    def test_hand_fixture(self):
        db = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (3.0, 0.0)}
        good = M.RetrievalRecord(10, ((2, 0.1), (1, 0.5)), (0.0, 0.0), db)
        bad = M.RetrievalRecord(11, ((1, 0.1), (0, 0.2)), (0.0, 0.0), db)
        assert M.recall_at_n([good, bad], 1) == 0.5
        assert M.recall_at_n([good, bad], 2) == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        records = [make_record(rng, q, force_positive=(q % 2 == 0))
                   for q in range(100)]
        for n in (1, 3, 5, 10):
            assert M.recall_at_n(records, n) == brute_recall(records, n, 5.0)

    def test_unreachable_queries_excluded(self):
        far = M.RetrievalRecord(1, ((0, 0.1),), (0.0, 0.0), {0: (99.0, 0.0)})
        near = M.RetrievalRecord(2, ((0, 0.1),), (0.0, 0.0), {0: (1.0, 0.0)})
        assert M.recall_at_n([far, near], 1) == 1.0

    def test_all_unreachable_errors(self):
        far = M.RetrievalRecord(1, ((0, 0.1),), (0.0, 0.0), {0: (99.0, 0.0)})
        with pytest.raises(M.MetricError):
            M.recall_at_n([far], 1)

    def test_monotone_in_n(self):
        rng = np.random.default_rng(1)
        records = [make_record(rng, q, force_positive=True) for q in range(40)]
        vals = [M.recall_at_n(records, n) for n in (1, 2, 5, 10)]
        assert vals == sorted(vals)


class TestAucF1:
    def test_perfectly_separable(self):
        db = {0: (1.0, 0.0), 1: (99.0, 0.0)}
        recs = [
            M.RetrievalRecord(1, ((0, 0.1),), (0.0, 0.0), db),
            M.RetrievalRecord(2, ((1, 0.9),), (0.0, 0.0),
                              {0: (99.0, 0.0), 1: (98.0, 0.0)}),
        ]
        auc, f1 = M.auc_f1(recs)
        assert auc == pytest.approx(1.0)
        assert f1 == pytest.approx(1.0)

    def test_top1_always_wrong(self):
        db = {0: (1.0, 0.0), 1: (99.0, 0.0)}
        recs = [M.RetrievalRecord(q, ((1, 0.1 * (q + 1)),), (0.0, 0.0), db)
                for q in range(4)]
        auc, f1 = M.auc_f1(recs)
        assert auc == 0.0 and f1 == 0.0

    def test_matches_threshold_oracle(self):
        rng = np.random.default_rng(2)
        records = [make_record(rng, q, force_positive=(q % 3 != 0))
                   for q in range(50)]
        auc, f1 = M.auc_f1(records)
        oauc, of1 = brute_auc_f1(records, 5.0)
        assert auc == pytest.approx(oauc, abs=1e-9)
        assert f1 == pytest.approx(of1, abs=1e-9)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        records = [make_record(rng, q, force_positive=True) for q in range(30)]
        warped = [M.RetrievalRecord(r.query_id,
                                    tuple((s, d ** 3 + 0.1 * d) for s, d in r.matches),
                                    r.query_pose, r.db_poses) for r in records]
        assert M.auc_f1(records) == pytest.approx(M.auc_f1(warped), abs=1e-12)

    def test_all_negative_ground_truth_errors(self):
        rec = M.RetrievalRecord(1, ((0, 0.1),), (0.0, 0.0), {0: (99.0, 0.0)})
        with pytest.raises(M.MetricError):
            M.auc_f1([rec])


class TestAggregation:
    def test_alp_protocols(self):
        row = M.MetricRow("fog", 1, "none", auc=0.8, f1=0.7, r1=0.6, r5=0.9, r20=1.0)
        assert row.alp("kitti") == pytest.approx(0.8 + 0.7 + 0.6 + 0.9)
        assert row.alp("nclt") == pytest.approx(0.6 + 0.9 + 1.0)
        with pytest.raises(ValueError):
            row.alp("oxford")

    def test_recall_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            M.MetricRow("fog", 1, "none", auc=1, f1=1, r1=0.9, r5=0.5, r20=1.0)

    def test_stability_rate_arithmetic(self):
        assert M.stability_rate([3.0, 2.0, 1.0], 2.0) == pytest.approx(1.0)
        assert M.stability_rate([1.0, 1.0, 1.0], 2.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            M.stability_rate([1.0, 2.0], 2.0)
        with pytest.raises(M.MetricError):
            M.stability_rate([1.0, 1.0, 1.0], 0.0)

    def test_msr(self):
        assert M.msr([0.5, 1.0, 1.5]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            M.msr([0.5, 1.0])

    def test_identical_performance_sr_one(self):
        clean = M.MetricRow("clean", 0, "none", 0.9, 0.8, 0.7, 0.8, 0.9)
        alp = clean.alp("kitti")
        assert M.stability_rate([alp, alp, alp], alp) == pytest.approx(1.0)


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        rows = [M.MetricRow("fog", k, "none", 0.5 + 0.01 * k, 0.6, 0.4, 0.5, 0.6)
                for k in (1, 2, 3)]
        M.write_csv(rows, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == (
            b"kind,level,method,auc,f1,r1,r5,r20\r\n"
            b"fog,1,none,0.51,0.6,0.4,0.5,0.6\r\n"
            b"fog,2,none,0.52,0.6,0.4,0.5,0.6\r\n"
            b"fog,3,none,0.53,0.6,0.4,0.5,0.6\r\n")

    def test_report_bytes_stable_under_key_order(self, tmp_path):
        a = {"b": 1, "a": {"y": 2.0, "x": [1, 2]}}
        b = {"a": {"x": [1, 2], "y": 2.0}, "b": 1}
        M.write_report(a, tmp_path / "ra.json")
        M.write_report(b, tmp_path / "rb.json")
        assert (tmp_path / "ra.json").read_bytes() == (tmp_path / "rb.json").read_bytes()

    def test_ascending_match_order_enforced(self):
        with pytest.raises(ValueError):
            M.RetrievalRecord(1, ((0, 0.5), (1, 0.1)), (0, 0), {0: (0, 0), 1: (1, 1)})
