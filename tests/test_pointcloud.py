import math

import numpy as np
import pytest

from weatherlpr.pointcloud import (PointCloud, ProjectionSpec, RangeImage,
                                   ScanParseError, back_project, pixel_rays,
                                   project, read_scan, write_scan)


def sym_spec(h=8, w=16, max_range=80.0):
    return ProjectionSpec(height=h, width=w, fov_up=math.radians(15.0),
                          fov_down=math.radians(-15.0), max_range=max_range)


class TestReadScan:
    def test_two_point_fixture(self, tmp_path):
        pts = np.array([[1, 0, 0, 0.5], [0, 2, 0, 0.25]], dtype="<f4")
        path = tmp_path / "scan.bin"
        pts.tofile(path)
        cloud = read_scan(path)
        assert len(cloud) == 2
        np.testing.assert_allclose(cloud.points, pts.astype(float))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(read_scan(path)) == 0

    def test_malformed_length_names_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(ScanParseError, match="offset 16"):
            read_scan(path)

    def test_eight_bit_intensity_normalized(self, tmp_path):
        pts = np.array([[1, 0, 0, 255.0], [2, 0, 0, 51.0]], dtype="<f4")
        path = tmp_path / "scan.bin"
        pts.tofile(path)
        cloud = read_scan(path)
        np.testing.assert_allclose(cloud.intensity, [1.0, 0.2])

    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = np.concatenate([rng.normal(size=(50, 3)), rng.random((50, 1))], axis=1)
        cloud = PointCloud(pts.astype(np.float32).astype(float))
        write_scan(cloud, tmp_path / "s.bin")
        back = read_scan(tmp_path / "s.bin")
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[np.nan, 0, 0, 0]]))


class TestProject:
    @pytest.mark.parametrize("field", ["fov_up", "fov_down", "max_range"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_spec_geometry_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            ProjectionSpec(**{field: value})

    def test_axis_aligned_point(self):
        spec = sym_spec()
        cloud = PointCloud(np.array([[spec.max_range, 0.0, 0.0, 1.0]]))
        img = project(cloud, spec)
        u, v = spec.width // 2, spec.height // 2
        assert img.mask[v, u]
        assert img.dist[v, u] == pytest.approx(1.0)
        assert img.inten[v, u] == pytest.approx(1.0)
        assert img.mask.sum() == 1

    def test_nearer_point_wins(self):
        spec = sym_spec()
        cloud = PointCloud(np.array([[9.0, 0, 0, 0.9], [5.0, 0, 0, 0.4]]))
        img = project(cloud, spec)
        v, u = spec.height // 2, spec.width // 2
        assert img.dist[v, u] == pytest.approx(5.0 / spec.max_range)
        assert img.inten[v, u] == pytest.approx(0.4)

    def test_random_cloud_matches_per_pixel_min_oracle(self):
        spec = sym_spec()
        rng = np.random.default_rng(11)
        n = 100
        r = rng.uniform(1.0, spec.max_range, n)
        az = rng.uniform(-np.pi, np.pi, n)
        el = rng.uniform(spec.fov_down, spec.fov_up, n)
        pts = np.stack([r * np.cos(el) * np.cos(az), r * np.cos(el) * np.sin(az),
                        r * np.sin(el), rng.random(n)], axis=1)
        img = project(PointCloud(pts), spec)

        # independent re-derivation: per-pixel minimum range
        best = {}
        for k in range(n):
            rr = float(np.linalg.norm(pts[k, :3]))
            if rr == 0 or rr > spec.max_range:
                continue
            u = int(np.floor(0.5 * (1 - math.atan2(pts[k, 1], pts[k, 0]) / math.pi)
                             * spec.width))
            v = int(np.floor((1 - (math.asin(pts[k, 2] / rr) - spec.fov_down)
                              / (spec.fov_up - spec.fov_down)) * spec.height))
            u = min(max(u, 0), spec.width - 1)
            v = min(max(v, 0), spec.height - 1)
            best[(v, u)] = min(best.get((v, u), np.inf), rr)
        for (v, u), rr in best.items():
            assert img.dist[v, u] == pytest.approx(rr / spec.max_range)
        assert img.mask.sum() == len(best)

    def test_totality_placed_plus_skipped(self):
        spec = sym_spec()
        rng = np.random.default_rng(0)
        pts = rng.normal(scale=40, size=(300, 4))
        pts[:, 3] = rng.random(300)
        pts[0, :3] = 0.0  # zero range
        pts[1, :3] = (500.0, 0.0, 0.0)  # out of range
        cloud = PointCloud(pts)
        r = cloud.ranges
        skipped = int(((r == 0) | (r > spec.max_range)).sum())
        img = project(cloud, spec)
        # every placed point came from the non-skipped set; pixels may collide
        assert img.mask.sum() <= len(cloud) - skipped
        assert skipped >= 2

    def test_order_independence(self):
        spec = sym_spec()
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.normal(scale=20, size=(200, 3)),
                              rng.random((200, 1))], axis=1)
        a = project(PointCloud(pts), spec)
        b = project(PointCloud(pts[::-1]), spec)
        np.testing.assert_array_equal(a.dist, b.dist)
        np.testing.assert_array_equal(a.inten, b.inten)


class TestBackProject:
    def test_reproject_identity_on_valid_pixels(self):
        spec = sym_spec()
        rng = np.random.default_rng(2)
        pts = np.concatenate([rng.normal(scale=15, size=(400, 3)),
                              rng.random((400, 1))], axis=1)
        img = project(PointCloud(pts), spec)
        img2 = project(back_project(img), spec)
        np.testing.assert_allclose(img2.dist, img.dist, atol=1e-12)
        np.testing.assert_allclose(img2.inten, img.inten, atol=1e-12)
        np.testing.assert_array_equal(img2.mask, img.mask)

    def test_all_invalid_mask_empty_cloud(self):
        spec = sym_spec()
        img = RangeImage(dist=np.zeros((8, 16)), inten=np.zeros((8, 16)),
                         mask=np.zeros((8, 16), dtype=bool), spec=sym_spec())
        assert len(back_project(img)) == 0

    def test_single_pixel_inverts_projection_formulas(self):
        spec = sym_spec()
        v, u = spec.height // 2, spec.width // 2
        dist = np.zeros((8, 16))
        inten = np.zeros((8, 16))
        mask = np.zeros((8, 16), dtype=bool)
        dist[v, u], inten[v, u], mask[v, u] = 0.5, 0.7, True
        cloud = back_project(RangeImage(dist, inten, mask, spec))
        assert len(cloud) == 1
        # hand inversion of the projection formulas at the pixel center
        az = math.pi * (1 - 2 * (u + 0.5) / spec.width)
        el = spec.fov_down + (spec.fov_up - spec.fov_down) * (1 - (v + 0.5) / spec.height)
        r = 0.5 * spec.max_range
        expect = [r * math.cos(el) * math.cos(az), r * math.cos(el) * math.sin(az),
                  r * math.sin(el)]
        np.testing.assert_allclose(cloud.points[0, :3], expect, atol=1e-9)
        assert np.linalg.norm(cloud.points[0, :3]) == pytest.approx(r)

    def test_pixel_center_rays_round_trip(self):
        # clouds sampled exactly on pixel-center rays survive the round trip
        spec = sym_spec()
        rays = pixel_rays(spec)
        rng = np.random.default_rng(9)
        vs = rng.integers(0, spec.height, 30)
        us = rng.integers(0, spec.width, 30)
        r = rng.uniform(5.0, spec.max_range - 1.0, 30)
        pts = np.concatenate([rays[vs, us] * r[:, None], rng.random((30, 1))], axis=1)
        cloud = PointCloud(pts)
        out = back_project(project(cloud, spec))
        got = {tuple(np.round(p[:3], 4)) for p in out.points}
        want = {tuple(np.round(p[:3], 4)) for p in cloud.points}
        # collisions may drop points; every surviving point is an input point
        assert got <= want
        for p in out.points:
            dists = np.linalg.norm(cloud.xyz - p[:3], axis=1)
            assert dists.min() < 1e-5
