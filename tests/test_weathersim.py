import math

import numpy as np
import pytest

from weatherlpr.pointcloud import PointCloud, ScanParseError
from weatherlpr import weathersim as W


def random_cloud(seed, n=2000, frame_id="000000"):
    rng = np.random.default_rng(seed)
    r = rng.uniform(2.0, 70.0, n)
    az = rng.uniform(-np.pi, np.pi, n)
    el = rng.uniform(-0.4, 0.05, n)
    pts = np.stack([r * np.cos(el) * np.cos(az), r * np.cos(el) * np.sin(az),
                    r * np.sin(el), rng.uniform(0.05, 1.0, n)], axis=1)
    return PointCloud(pts, frame_id=frame_id)


class TestFog:
    def test_zero_parameters_identity(self):
        cloud = random_cloud(0)
        out, ann = W.corrupt(cloud, "fog", W.FogParams(alpha=0.0, beta=0.0))
        np.testing.assert_array_equal(out.points, cloud.points)
        assert ann.noise_count == 0
        assert ann.dropped.size == 0

    def test_large_beta_relocates_far_points(self):
        cloud = random_cloud(1)
        p = W.FogParams(alpha=0.01, beta=1.0)
        out, ann = W.corrupt(cloud, "fog", p)
        far = cloud.ranges[ann.source_index] > 10.0
        # with beta=1 every far return is dominated by backscatter
        assert np.all(ann.noise_mask[far])
        assert np.all(out.ranges[ann.noise_mask]
                      <= cloud.ranges[ann.source_index[ann.noise_mask]] + 1e-9)

    def test_branch_matches_inequality_oracle(self):
        cloud = random_cloud(2)
        p = W.FogParams(alpha=0.006, beta=0.02)
        out, ann = W.corrupt(cloud, "fog", p)
        r0 = cloud.ranges[ann.source_index]
        i0 = cloud.intensity[ann.source_index]
        i_hard = i0 * np.exp(-2 * p.alpha * r0)
        i_soft = i0 * r0 ** 2 * p.beta * W.FOG_IT_MAX
        np.testing.assert_array_equal(ann.noise_mask, (i_soft > i_hard) & (r0 > 0))
        hard = ~ann.noise_mask
        np.testing.assert_allclose(out.intensity[hard], i_hard[hard], atol=1e-12)
        np.testing.assert_allclose(out.intensity[ann.noise_mask],
                                   np.clip(i_soft[ann.noise_mask], 0, 1), atol=1e-12)

    def test_noise_monotone_in_beta(self):
        cloud = random_cloud(3)
        mild = W.corrupt(cloud, "fog", W.FogParams(alpha=0.003, beta=0.008))[1]
        severe = W.corrupt(cloud, "fog", W.FogParams(alpha=0.01, beta=0.05))[1]
        assert mild.noise_count <= severe.noise_count

    def test_dropped_points_were_attenuated(self):
        cloud = random_cloud(4)
        p = W.FogParams(alpha=0.05, beta=0.0)
        out, ann = W.corrupt(cloud, "fog", p)
        assert ann.dropped.size > 0
        i_hard = cloud.intensity[ann.dropped] * np.exp(
            -2 * p.alpha * cloud.ranges[ann.dropped])
        assert np.all(i_hard < W.DETECT_FLOOR)
        assert len(out) + ann.dropped.size == len(cloud)


class TestParticleModels:
    def test_zero_rate_identity(self):
        cloud = random_cloud(5)
        for kind, params in (("snow", W.SnowParams(rate=0.0)),
                             ("rain", W.RainParams(rate=0.0))):
            out, ann = W.corrupt(cloud, kind, params)
            np.testing.assert_array_equal(out.points, cloud.points)
            assert ann.noise_count == 0 and ann.dropped.size == 0

    def test_snow_noise_monotone_in_rate(self):
        cloud = random_cloud(6)
        counts = [W.corrupt(cloud, "snow", W.SnowParams(rate=r, seed=9))[1].noise_count
                  for r in (0.5, 1.5, 2.5, 7.5)]
        assert counts == sorted(counts)
        # noise sets grow, not merely counts
        a = W.corrupt(cloud, "snow", W.SnowParams(rate=2.5, seed=9))[1]
        b = W.corrupt(cloud, "snow", W.SnowParams(rate=7.5, seed=9))[1]
        small = set(a.source_index[a.noise_mask])
        big = set(b.source_index[b.noise_mask])
        assert small <= big

    def test_snow_intensity_formula_fidelity(self):
        cloud = random_cloud(7)
        p = W.SnowParams(rate=2.5, seed=3)
        out, ann = W.corrupt(cloud, "snow", p)
        noisy = ann.noise_mask
        assert noisy.sum() > 0
        # recompute the focal response from the logged particle ranges
        expect = W.snow_intensity(ann.particle_range[noisy], p)
        np.testing.assert_allclose(out.intensity[noisy], expect, atol=1e-12)
        assert np.all(np.isnan(ann.particle_range[~noisy]))

    def test_rain_determinism(self):
        cloud = random_cloud(8)
        p = W.RainParams(rate=25.0, seed=17)
        a, _ = W.corrupt(cloud, "rain", p)
        b, _ = W.corrupt(cloud, "rain", p)
        np.testing.assert_array_equal(a.points, b.points)

    def test_rain_noise_fraction_increases_across_presets(self):
        cloud = random_cloud(9, n=10000)
        fracs = []
        for level in (1, 2, 3):
            params = W.severity_preset("rain", level, seed=4)
            _, ann = W.corrupt(cloud, "rain", params)
            fracs.append(ann.noise_count / len(cloud))
        assert fracs[0] < fracs[1] < fracs[2]

    @pytest.mark.parametrize("level", W.SEVERITY_LEVELS)
    @pytest.mark.parametrize("kind", W.CORRUPTION_KINDS)
    def test_output_agrees_with_annotation(self, kind, level):
        # point 0 sits at the sensor: every kind passes it through unchanged
        cloud = PointCloud(np.vstack([[0.0, 0.0, 0.0, 0.6], random_cloud(10).points]))
        out, ann = W.corrupt(cloud, kind, W.severity_preset(kind, level, seed=level))
        src, clean = ann.source_index, ~ann.noise_mask
        assert ann.noise_count > 0
        # source_index and dropped are sorted and split the input between them
        assert np.all(np.diff(src) > 0) and np.all(np.diff(ann.dropped) > 0)
        np.testing.assert_array_equal(np.sort(np.concatenate([src, ann.dropped])),
                                      np.arange(len(cloud)))
        # a clean point keeps its xyz; fog attenuates its intensity
        kept = 3 if kind == "fog" else 4
        np.testing.assert_array_equal(out.points[clean, :kept],
                                      cloud.points[src[clean], :kept])
        np.testing.assert_array_equal(np.isnan(ann.particle_range),
                                      np.ones_like(clean) if kind == "fog" else clean)
        assert src[0] == 0 and clean[0]
        np.testing.assert_array_equal(out.points[0], cloud.points[0])

    @pytest.mark.parametrize("kind, params, message", [
        ("rain", W.SnowParams(2.5, seed=1), "rain takes RainParams, not SnowParams"),
        ("snow", W.FogParams(0.01, 0.05), "snow takes SnowParams, not FogParams"),
        ("sleet", W.SnowParams(1.0), "unknown corruption kind: sleet"),
    ], ids=["rain-snow", "snow-fog", "unknown-kind"])
    def test_kind_takes_only_its_own_parameters(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            W.corrupt(random_cloud(1), kind, params)

    def test_intensities_stay_in_unit_interval(self):
        cloud = random_cloud(11)
        for kind in W.CORRUPTION_KINDS:
            params = W.severity_preset(kind, 3, seed=1)
            out, _ = W.corrupt(cloud, kind, params)
            assert np.all(out.intensity >= 0) and np.all(out.intensity <= 1)


class TestPresets:
    def test_fog_level_two_beta(self):
        p = W.severity_preset("fog", 2)
        assert p.beta == pytest.approx(0.02)
        assert p.alpha == pytest.approx(0.006)

    def test_snow_levels_ordered(self):
        rates = [W.severity_preset("snow", k).rate for k in (1, 2, 3)]
        assert rates == sorted(rates) and len(set(rates)) == 3

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            W.severity_preset("rain", 0)
        with pytest.raises(ValueError):
            W.severity_preset("sleet", 1)

    @pytest.mark.parametrize("cls, constants", [
        (W.SnowParams, dict(gamma=5.0, f_s=0.5, f_o=0.1, i_max=1.0, r_max=80.0,
                            t_r=0.05, hit_coeff=0.12, occlusion_coeff=0.04)),
        (W.RainParams, dict(gamma=100.0, f_s=0.25, f_o=0.1, i_max=1.0, r_max=80.0,
                            t_r=0.03, hit_coeff=0.006, occlusion_coeff=0.001)),
    ])
    def test_particle_constants_pinned(self, cls, constants):
        assert {name: getattr(cls, name) for name in constants} == constants

    def test_preset_builds_the_kind_class(self):
        p = W.severity_preset("snow", 2, seed=4)
        assert isinstance(p, W.SnowParams)
        assert p == W.SnowParams(1.5, seed=4)
        assert W.severity_preset("rain", 1) == W.RainParams(10.0)
        assert W.SnowParams(1.5) != W.RainParams(1.5)

    @pytest.mark.parametrize("make", [
        lambda v: W.FogParams(v, 0.01), lambda v: W.FogParams(0.01, v),
        W.SnowParams, W.RainParams,
    ], ids=["fog-alpha", "fog-beta", "snow-rate", "rain-rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_parameters_finite_and_non_negative(self, make, value):
        with pytest.raises(ValueError, match="finite and non-negative"):
            make(value)

    def test_particle_constants_not_settable(self):
        with pytest.raises(TypeError):
            W.SnowParams(1.0, gamma=3.0)
        with pytest.raises(ValueError):
            W.RainParams(-1.0)


class TestAnnotations:
    def test_sidecar_roundtrip(self, tmp_path):
        records = []
        for seed, fid in ((0, "000000"), (1, "000001")):
            cloud = random_cloud(seed, n=300, frame_id=fid)
            _, ann = W.corrupt(cloud, "snow", W.SnowParams(rate=2.5, seed=2))
            records.append((fid, ann))
        path = tmp_path / "ann.txt"
        W.write_annotations(records, path)
        back = W.read_annotations(path)
        assert list(back) == ["000000", "000001"]
        for fid, ann in records:
            noise, dropped = back[fid]
            np.testing.assert_array_equal(noise, np.flatnonzero(ann.noise_mask))
            np.testing.assert_array_equal(dropped, ann.dropped)

    @pytest.mark.parametrize("text, lineno", [
        ("scan 000000\nnoise 1 2\n", 3),                   # block cut after noise
        ("scan 000000\nnoise 1\ndrop 4\n", 3),              # wrong line tag
        ("scan 000000\nnoise 1 two\ndropped\n", 2),         # non-integer index
        ("scan 000000\nnoise 99999999999999999999\ndropped\n", 2),  # past int64
    ], ids=["cut-block", "wrong-tag", "non-integer", "huge-index"])
    def test_malformed_sidecar_names_path_and_line(self, tmp_path, text, lineno):
        path = tmp_path / "ann.txt"
        path.write_text("scan 000009\nnoise \ndropped 3\n" + text)
        with pytest.raises(ScanParseError, match=f"ann.txt:{lineno + 3}: "):
            W.read_annotations(path)

    def test_non_utf8_sidecar_names_path(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_bytes(b"scan 000009\nnoise \xff\ndropped 3\n")
        with pytest.raises(ScanParseError, match="ann.txt: not UTF-8"):
            W.read_annotations(path)

    def test_per_scan_streams_differ(self):
        a = random_cloud(12, frame_id="000010")
        b = PointCloud(a.points, frame_id="000011")
        p = W.SnowParams(rate=2.5, seed=0)
        _, ann_a = W.corrupt(a, "snow", p)
        _, ann_b = W.corrupt(b, "snow", p)
        assert not np.array_equal(ann_a.noise_mask, ann_b.noise_mask)
