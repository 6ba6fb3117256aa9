import numpy as np
import pytest

from weatherlpr.lpr import (PlaceDatabase, ScanContext, make_descriptor,
                            sc_distance)
from weatherlpr.pointcloud import PointCloud, ScanParseError


def rot_z(cloud, angle):
    c, s = np.cos(angle), np.sin(angle)
    pts = cloud.points.copy()
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    pts[:, 0] = c * x - s * y
    pts[:, 1] = s * x + c * y
    return PointCloud(pts, frame_id=cloud.frame_id)


def structured_cloud(seed, n=500):
    """Clustered scene so descriptors are distinctive, not uniform."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-40, 40, size=(8, 2))
    xy = centers[rng.integers(0, 8, n)] + rng.normal(scale=1.5, size=(n, 2))
    z = rng.uniform(-1.5, 3.0, n)
    return PointCloud(np.column_stack([xy, z, rng.random(n)]))


class TestDescriptor:
    def test_single_point_lands_in_one_bin(self):
        cloud = PointCloud(np.array([[10.0, 0.0, 1.5, 0.5]]))
        sc = make_descriptor(cloud, rings=20, sectors=60, max_radius=80.0)
        ring = int(10.0 / 80.0 * 20)  # planar range 10 m
        assert sc.cells[ring, 0] == pytest.approx(1.5)
        mod = sc.cells.copy()
        mod[ring, 0] = 0.0
        np.testing.assert_array_equal(mod, 0.0)
        assert sc.ring_key[ring] == pytest.approx(1.0 / 60)

    def test_empty_cloud_zero_matrix(self):
        sc = make_descriptor(PointCloud(np.empty((0, 4))))
        np.testing.assert_array_equal(sc.cells, 0.0)
        np.testing.assert_array_equal(sc.ring_key, 0.0)

    def test_negative_height_preserved(self):
        cloud = PointCloud(np.array([[10.0, 0.0, -2.0, 0.1]]))
        sc = make_descriptor(cloud)
        ring = int(10.0 / 80.0 * 20)
        assert sc.cells[ring, 0] == pytest.approx(-2.0)

    def test_rotation_shifts_columns(self):
        cloud = structured_cloud(0)
        sc = make_descriptor(cloud)
        shifted = make_descriptor(rot_z(cloud, 2 * np.pi / 60))
        np.testing.assert_allclose(shifted.cells, np.roll(sc.cells, 1, axis=1),
                                   atol=1e-9)

    def test_out_of_radius_points_ignored(self):
        inside = structured_cloud(1)
        far = np.array([[500.0, 0.0, 2.0, 0.5]])
        both = PointCloud(np.vstack([inside.points, far]))
        np.testing.assert_array_equal(make_descriptor(both).cells,
                                      make_descriptor(inside).cells)


class TestDistance:
    def test_identity(self):
        sc = make_descriptor(structured_cloud(2))
        d, shift = sc_distance(sc, sc)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert shift == 0

    def test_rotated_copy_recovers_shift(self):
        cloud = structured_cloud(3)
        sc = make_descriptor(cloud)
        k = 7
        rot = make_descriptor(rot_z(cloud, k * 2 * np.pi / 60))
        d, shift = sc_distance(sc, rot)
        assert d == pytest.approx(0.0, abs=1e-9)
        assert shift in (k, 60 - k)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = make_descriptor(structured_cloud(rng.integers(1 << 30)))
            b = make_descriptor(structured_cloud(rng.integers(1 << 30)))
            dab, _ = sc_distance(a, b)
            dba, _ = sc_distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert 0.0 <= dab <= 1.0

    def test_shape_mismatch_rejected(self):
        a = ScanContext(np.zeros((20, 60)), np.zeros(20))
        b = ScanContext(np.zeros((10, 60)), np.zeros(10))
        with pytest.raises(ValueError):
            sc_distance(a, b)


def build_db(n=30, seed=5):
    db = PlaceDatabase()
    clouds = []
    for k in range(n):
        cloud = structured_cloud(seed + k)
        clouds.append(cloud)
        db.add(k, (float(k), 0.0), make_descriptor(cloud))
    return db, clouds


class TestDatabase:
    def test_member_query_rank_one(self):
        db, clouds = build_db()
        matches = db.query(make_descriptor(clouds[13]), top_n=1)
        assert matches[0][0] == 13
        assert matches[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_full_topn_matches_brute_force(self):
        db, clouds = build_db(n=25)
        q = make_descriptor(structured_cloud(999))
        got = db.query(q, top_n=len(db))
        brute = sorted((sc_distance(q, d)[0], sid)
                       for sid, d in zip(db.ids, db.descriptors))
        assert [sid for sid, _ in got] == [sid for _, sid in brute]
        for (_, d), (bd, _) in zip(got, brute):
            assert d == pytest.approx(bd, abs=1e-12)

    def test_rotation_robust_rank_one(self):
        db, clouds = build_db()
        rng = np.random.default_rng(6)
        for _ in range(10):
            k = int(rng.integers(len(clouds)))
            # yaw aligned to sector boundaries is exactly invariant
            q_aligned = make_descriptor(
                rot_z(clouds[k], int(rng.integers(60)) * 2 * np.pi / 60))
            assert db.query(q_aligned, top_n=1)[0][0] == k

    def test_exclude_ids(self):
        db, clouds = build_db()
        m = db.query(make_descriptor(clouds[4]), top_n=1, exclude_ids={4})
        assert m[0][0] != 4

    def test_duplicate_id_rejected(self):
        db, clouds = build_db(n=3)
        with pytest.raises(ValueError):
            db.add(2, (0.0, 0.0), db.descriptors[0])

    def test_save_load_roundtrip(self, tmp_path):
        db, clouds = build_db(n=8)
        db.save(tmp_path / "db.bin")
        back = PlaceDatabase.load(tmp_path / "db.bin")
        assert back.ids == db.ids
        q = make_descriptor(clouds[5])
        a = db.query(q, top_n=3)
        b = back.query(q, top_n=3)
        assert [sid for sid, _ in a] == [sid for sid, _ in b]
        for (_, da), (_, db_) in zip(a, b):
            assert da == pytest.approx(db_, abs=1e-5)

    def test_every_truncation_is_data_error(self, tmp_path):
        db = PlaceDatabase(rings=4, sectors=6)
        for k, seed in enumerate((1, 2, 3)):
            db.add(k, (float(k), 0.0), make_descriptor(structured_cloud(seed), 4, 6))
        db.save(tmp_path / "db.bin")
        blob = (tmp_path / "db.bin").read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(ScanParseError):
                PlaceDatabase.load(cut)
        cut.write_bytes(blob)
        assert PlaceDatabase.load(cut).ids == [0, 1, 2]

    def test_bad_magic_and_version_are_data_errors(self, tmp_path):
        db, _ = build_db(n=2)
        db.save(tmp_path / "db.bin")
        blob = (tmp_path / "db.bin").read_bytes()
        for bad in (b"NOPE" + blob[4:], blob[:4] + b"\x09" + blob[5:]):
            (tmp_path / "bad.bin").write_bytes(bad)
            with pytest.raises(ScanParseError):
                PlaceDatabase.load(tmp_path / "bad.bin")

    def test_bytes_past_last_entry_are_data_errors(self, tmp_path):
        db, _ = build_db(n=4)
        db.save(tmp_path / "db.bin")
        blob = (tmp_path / "db.bin").read_bytes()
        # 40 junk bytes appended, and the entry count (bytes 16-19) set to 1
        for bad in (blob + bytes(40), blob[:16] + (1).to_bytes(4, "little") + blob[20:]):
            (tmp_path / "bad.bin").write_bytes(bad)
            with pytest.raises(ScanParseError, match="past entry"):
                PlaceDatabase.load(tmp_path / "bad.bin")

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            PlaceDatabase().query(make_descriptor(structured_cloud(1)))
