import tracemalloc

import numpy as np
import pytest

from weatherlpr.lpr import (CANDIDATE_FACTOR, PlaceDatabase, ScanContext,
                            make_descriptor, sc_distance)
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

    def test_rotated_cloud_shift_direction(self):
        # a cloud turned by +k sectors moves its columns by +k, so its query
        # column j meets the original's column j - k: shift k one way,
        # 60 - k the other
        cloud = structured_cloud(3)
        sc = make_descriptor(cloud)
        for k in (1, 7, 31):
            rot = make_descriptor(rot_z(cloud, k * 2 * np.pi / 60))
            assert sc_distance(rot, sc) == (pytest.approx(0.0, abs=1e-9), k)
            assert sc_distance(sc, rot) == (pytest.approx(0.0, abs=1e-9), 60 - k)

    def test_shift_pairs_column_j_with_column_j_minus_shift(self):
        a = make_descriptor(structured_cloud(3))
        for k in (1, 7, 59):
            b = ScanContext(np.roll(a.cells, k, axis=1), a.ring_key)
            d, shift = sc_distance(a, b)
            assert d == pytest.approx(0.0, abs=1e-12)
            assert shift == (60 - k) % 60

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


def brute_distance(a, b):
    """Min over column shifts of the mean cosine distance of the column pairs
    non-empty in both, 1.0 when no shift has one; shift s pairs column j of
    ``a`` with column (j - s) mod S of ``b``."""
    best = np.inf
    nb = np.linalg.norm(b, axis=0)
    for s in range(a.shape[1]):
        rolled = np.roll(a, -s, axis=1)
        na = np.linalg.norm(rolled, axis=0)
        ok = (na > 0) & (nb > 0)
        if ok.any():
            cos = (rolled * b).sum(axis=0)[ok] / (na[ok] * nb[ok])
            best = min(best, float(np.mean((1.0 - cos) / 2.0)))
    return 1.0 if best == np.inf else best


def brute_query(db, q, top_n, exclude=()):
    """The ring-key preselection, then every survivor scored by
    brute_distance; ties go to the lower id."""
    keys = np.stack([d.ring_key for d in db.descriptors])
    by_key = sorted(range(len(db)),
                    key=lambda k: (np.linalg.norm(keys[k] - q.ring_key), db.ids[k]))
    cand = [k for k in by_key[:CANDIDATE_FACTOR * top_n] if db.ids[k] not in exclude]
    scored = sorted((brute_distance(q.cells, db.descriptors[k].cells), db.ids[k])
                    for k in cand)
    return [(sid, d) for d, sid in scored[:top_n]]


def assert_matches_brute(got, want):
    assert [sid for sid, _ in got] == [sid for sid, _ in want]
    for (_, d), (_, bd) in zip(got, want):
        assert d == pytest.approx(bd, abs=1e-12)


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

    def test_round_trip_keeps_queries_on_zero_heights(self, tmp_path):
        # a bin whose highest point is at z = 0 counts as occupied in memory
        # and after load alike, so preselection picks the same candidates
        rng = np.random.default_rng(22)

        def cloud(n=200):
            r = 80.0 * np.sqrt(rng.random(n))
            th = rng.uniform(0.0, 2 * np.pi, n)
            z = rng.integers(0, 3, n).astype(float)
            return PointCloud(np.column_stack([r * np.cos(th), r * np.sin(th), z,
                                               np.zeros(n)]))

        db = PlaceDatabase()
        for k in range(300):
            db.add(k, (float(k), 0.0), make_descriptor(cloud()))
        db.save(tmp_path / "db.bin")
        back = PlaceDatabase.load(tmp_path / "db.bin")
        for _ in range(10):
            q = make_descriptor(cloud())
            assert back.query(q, top_n=2) == db.query(q, top_n=2)

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

    def test_empty_database_does_not_load(self, tmp_path):
        # a header alone has no entry whose size bounds its grid
        PlaceDatabase().save(tmp_path / "db.bin")
        with pytest.raises(ScanParseError, match="no entries"):
            PlaceDatabase.load(tmp_path / "db.bin")

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

    def test_preselected_query_matches_brute_force(self):
        db, clouds = build_db(n=250)   # 3 * CANDIDATE_FACTOR of 250 are scored
        for cloud in (clouds[13], clouds[77], structured_cloud(999)):
            q = make_descriptor(cloud)
            assert_matches_brute(db.query(q, top_n=3), brute_query(db, q, 3))
            exclude = {13, 77, 40, 41, 42}
            assert_matches_brute(db.query(q, top_n=3, exclude_ids=exclude),
                                 brute_query(db, q, 3, exclude))

    def test_identical_descriptors_tie_to_lower_id(self):
        db = PlaceDatabase()
        for k in reversed(range(30)):   # id 21 goes in before id 2
            cloud = structured_cloud(7 if k == 21 else 5 + k)   # ids 2 and 21 share a scene
            db.add(k, (float(k), 0.0), make_descriptor(cloud))
        got = db.query(make_descriptor(structured_cloud(999)), top_n=len(db))
        ids = [sid for sid, _ in got]
        dist = dict(got)
        assert dist[2] == dist[21]
        assert ids.index(21) == ids.index(2) + 1

    def test_empty_descriptors_score_one(self):
        db, clouds = build_db(n=5)
        empty = make_descriptor(PointCloud(np.empty((0, 4))))
        db.add(99, (0.0, 0.0), empty)
        got = dict(db.query(make_descriptor(clouds[2]), top_n=len(db)))
        assert got[99] == 1.0
        assert db.query(empty, top_n=len(db)) == [(sid, 1.0) for sid in sorted(db.ids)]

    def test_loaded_database_matches_brute_force(self, tmp_path):
        db, clouds = build_db(n=40)
        db.save(tmp_path / "db.bin")
        back = PlaceDatabase.load(tmp_path / "db.bin")
        for k in (3, 17):
            q = make_descriptor(rot_z(clouds[k], 0.3))
            assert_matches_brute(back.query(q, top_n=2), brute_query(back, q, 2))

    def test_add_after_query_is_seen(self):
        db, clouds = build_db(n=10)
        q = make_descriptor(structured_cloud(999))
        assert db.query(q, top_n=1)[0][0] != 50
        db.add(50, (0.0, 0.0), q)
        assert db.query(q, top_n=1)[0] == (50, pytest.approx(0.0, abs=1e-12))
        assert len(db.query(q, top_n=len(db))) == 11

    def test_query_memory_bounded(self):
        rng = np.random.default_rng(8)
        db = PlaceDatabase()
        for k in range(600):
            cells = rng.uniform(-2.0, 5.0, (20, 60)) * (rng.random((1, 60)) < 0.8)
            db.add(k, (float(k), 0.0), ScanContext(cells, (cells != 0).mean(axis=1)))
        q = db.descriptors[123]
        tracemalloc.start()
        try:
            got = db.query(q, top_n=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0][0] == 123
        assert peak <= 4 * 2**20, f"{peak / 2**20:.1f} MB"


def sparse_cells(rng, rings, sectors):
    """Heights with about a third of the columns and a tenth of the other
    cells empty."""
    cells = rng.uniform(-2.0, 5.0, (rings, sectors))
    cells[rng.random((rings, sectors)) < 0.1] = 0.0
    cells[:, rng.random(sectors) < 0.3] = 0.0
    return cells


def context(cells):
    return ScanContext(cells, (cells != 0).mean(axis=1))


class TestKernel:
    """Every candidate's distance against brute_distance, which rolls the
    query with np.roll and calls no lpr code."""

    @pytest.mark.parametrize("rings, sectors", [(20, 60), (4, 7), (3, 59), (1, 60), (1, 7)])
    def test_distances_match_rolled_brute_force(self, rings, sectors):
        rng = np.random.default_rng(rings * 100 + sectors)
        db = PlaceDatabase(rings=rings, sectors=sectors)
        entries = [sparse_cells(rng, rings, sectors) for _ in range(12)]
        entries.append(np.zeros((rings, sectors)))          # an all-empty entry
        for k, cells in enumerate(entries):
            db.add(k, (0.0, 0.0), context(cells))
        empty = np.zeros((rings, sectors))
        queries = [sparse_cells(rng, rings, sectors) for _ in range(3)]
        queries += [np.roll(entries[4], 2, axis=1), empty]
        for q in queries:
            got = dict(db.query(context(q), top_n=len(db)))
            assert sorted(got) == list(range(len(db)))
            assert got[len(entries) - 1] == 1.0
            for k, cells in enumerate(entries):
                assert abs(got[k] - brute_distance(q, cells)) <= 1e-12, k
                assert abs(sc_distance(context(q), context(cells))[0]
                           - brute_distance(q, cells)) <= 1e-12, k
        assert db.query(context(empty), top_n=len(db)) == [(k, 1.0) for k in range(len(db))]

    def test_add_after_load_is_seen(self, tmp_path):
        db, clouds = build_db(n=10)
        db.save(tmp_path / "db.bin")
        back = PlaceDatabase.load(tmp_path / "db.bin")
        q = make_descriptor(structured_cloud(999))
        back.add(50, (0.0, 0.0), q)
        assert back.query(q, top_n=1)[0] == (50, pytest.approx(0.0, abs=1e-12))
        assert back.query(make_descriptor(clouds[4]), top_n=1)[0][0] == 4


class TestDatabaseFuzz:
    """Byte-flipped database files: each one raises ScanParseError or loads
    a database whose query returns. TestDatabase's
    test_every_truncation_is_data_error cuts the same file at every offset."""

    @pytest.fixture()
    def blob(self, tmp_path):
        db = PlaceDatabase(rings=4, sectors=6)
        for k, seed in enumerate((1, 2, 3)):
            db.add(k, (float(k), 0.0), make_descriptor(structured_cloud(seed), 4, 6))
        db.save(tmp_path / "db.bin")
        return (tmp_path / "db.bin").read_bytes()

    def load_and_query(self, path):
        try:
            db = PlaceDatabase.load(path)
        except ScanParseError:
            return None
        q = make_descriptor(structured_cloud(7), db.rings, db.sectors)
        got = db.query(q, top_n=2)
        assert len(got) == min(2, len(db))
        assert all(0.0 <= d <= 1.0 for _, d in got)
        return db

    def test_byte_flips(self, blob, tmp_path):
        path = tmp_path / "fuzz.bin"
        rng = np.random.default_rng(17)
        loaded = 0
        for _ in range(600):
            bad = bytearray(blob)
            for at in rng.integers(len(blob), size=rng.integers(1, 4)):
                bad[at] = int(rng.integers(256))
            path.write_bytes(bytes(bad))
            loaded += self.load_and_query(path) is not None
        assert 0 < loaded < 600

    def test_huge_count_fails_before_allocating(self, blob, tmp_path):
        path = tmp_path / "huge.bin"
        for count in (2**32 - 1, 2_000_000):
            path.write_bytes(blob[:16] + count.to_bytes(4, "little") + blob[20:])
            tracemalloc.start()
            try:
                with pytest.raises(ScanParseError, match="truncated"):
                    PlaceDatabase.load(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, f"{peak / 2**20:.1f} MB"
