import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

from weatherlpr import bench, lpr, metrics, weathersim
from weatherlpr.bench import (ConfigError, Manifest, RunConfig,
                              make_synthetic_world, run_benchmark)
from weatherlpr.pointcloud import ProjectionSpec, ScanParseError
from weatherlpr.restorenet import NetConfig, ResLPRNet

from helpers import write_world


def small_projection():
    return ProjectionSpec(height=32, width=128, fov_up=math.radians(3.0),
                          fov_down=math.radians(-25.0), max_range=80.0)


def small_config(**kw):
    base = dict(kinds=("fog",), levels=(1, 2, 3), top_n=10,
                projection=small_projection(), seed=0)
    base.update(kw)
    return RunConfig(**base)


class TestSyntheticWorld:
    def test_deterministic(self):
        a = make_synthetic_world(seed=3, n_places=6)
        b = make_synthetic_world(seed=3, n_places=6)
        for ea, eb in zip(a.database + a.queries, b.database + b.queries):
            np.testing.assert_array_equal(ea.cloud.points, eb.cloud.points)
            assert ea.pose == eb.pose

    def test_seed_changes_world(self):
        a = make_synthetic_world(seed=3, n_places=6)
        b = make_synthetic_world(seed=4, n_places=6)
        assert not np.array_equal(a.database[0].cloud.points,
                                  b.database[0].cloud.points)

    def test_revisit_geometry(self):
        world = make_synthetic_world(seed=0, n_places=8, revisit_fraction=0.5)
        assert len(world.queries) == 8
        db_poses = [e.pose for e in world.database]
        for q in world.queries[:4]:  # revisits
            assert min(math.dist(q.pose, p) for p in db_poses) <= math.sqrt(2) + 1e-9
        for q in world.queries[4:]:  # novel places
            assert min(math.dist(q.pose, p) for p in db_poses) > 100.0

    # (seed, n_places, revisit_fraction, points_per_scan) -> sha256 over every
    # entry's points, pose and frame id: revisits and novel queries, two
    # places, all-novel queries, and point counts not divisible by 10
    WORLD_PINS = {
        (0, 6, 0.5, 1001): "25bee9a133946e90410c045f611301fa98d881e350e61e8ea2438b743f98be54",
        (1, 2, 1.0, 900): "ff70741764d385341896a8b43eec6ad045a2b139ff20ab1c066589dbdbc4a6b4",
        (7, 10, 0.8, 333): "d7d7716abdee54ee445ccc07b2dfdd5e9dccfa39130f0fe2e15eb2edb49906eb",
        (9, 5, 0.0, 200): "873195bd1075411e73ff2280b044fdf960de3c9de33f88af8eb8569bb6dfcac6",
    }

    def test_world_bytes_pinned(self):
        for case, pinned in self.WORLD_PINS.items():
            seed, n_places, revisit_fraction, points_per_scan = case
            world = make_synthetic_world(seed=seed, n_places=n_places,
                                         revisit_fraction=revisit_fraction,
                                         points_per_scan=points_per_scan)
            h = hashlib.sha256()
            for e in world.database + world.queries:
                h.update(e.cloud.points.tobytes())
                h.update(np.asarray(e.pose, dtype=np.float64).tobytes())
                h.update(e.cloud.frame_id.encode())
            assert h.hexdigest() == pinned, case

    def test_too_few_places_rejected(self):
        with pytest.raises(ConfigError):
            make_synthetic_world(seed=0, n_places=1)

    def test_write_world_layout(self, tmp_path):
        world = make_synthetic_world(seed=1, n_places=3, revisit_fraction=1.0)
        write_world(world, tmp_path)
        assert len(list((tmp_path / "database").glob("*.bin"))) == 3
        assert len(list((tmp_path / "queries").glob("*.bin"))) == 3
        poses = bench.read_pose_file(tmp_path / "database_poses.txt")
        assert set(poses) == {0, 1, 2}
        for e in world.database:
            assert poses[e.scan_id] == pytest.approx(e.pose, abs=1e-5)


class TestManifest:
    def manifest_files(self, tmp_path):
        for name in ("a.bin", "b.bin", "q.bin"):
            (tmp_path / name).write_bytes(b"\x00" * 16)
        (tmp_path / "db_poses.txt").write_text("0 0.0 0.0\n")
        (tmp_path / "q_poses.txt").write_text("1 1.0 0.0\n")
        return tmp_path

    def test_valid_manifest(self, tmp_path):
        d = self.manifest_files(tmp_path)
        m = Manifest((str(d / "a.bin"), str(d / "b.bin")),
                     (str(d / "q.bin"),), str(d / "db_poses.txt"),
                     str(d / "q_poses.txt"))
        m.validate()

    def test_overlapping_roles_rejected(self, tmp_path):
        d = self.manifest_files(tmp_path)
        m = Manifest((str(d / "a.bin"),), (str(d / "a.bin"),),
                     str(d / "db_poses.txt"), str(d / "q_poses.txt"))
        with pytest.raises(ConfigError, match="disjoint"):
            m.validate()

    def test_missing_file_rejected(self, tmp_path):
        d = self.manifest_files(tmp_path)
        m = Manifest((str(d / "missing.bin"),), (str(d / "q.bin"),),
                     str(d / "db_poses.txt"), str(d / "q_poses.txt"))
        with pytest.raises(ConfigError, match="missing"):
            m.validate()

    def test_load_manifest_relative_paths(self, tmp_path):
        d = self.manifest_files(tmp_path)
        (d / "m.json").write_text(json.dumps({
            "name": "t",
            "database": {"scans": ["a.bin"], "poses": "db_poses.txt"},
            "queries": {"scans": ["q.bin"], "poses": "q_poses.txt"},
        }))
        m = bench.load_manifest(d / "m.json")
        assert m.database_scans[0] == str(d / "a.bin")

    def test_manifest_without_queries_rejected(self, tmp_path):
        d = self.manifest_files(tmp_path)
        (d / "m.json").write_text(json.dumps({
            "database": {"scans": ["a.bin"], "poses": "db_poses.txt"}}))
        with pytest.raises(ConfigError, match="malformed manifest"):
            bench.load_manifest(d / "m.json")


class TestPoseFile:
    @pytest.mark.parametrize("line", ["0 1.0", "0 1.0 north", "zero 1.0 2.0",
                                      "0 1e999 2.0", "0 1.0 nan", "0 1.0 2.0 junk"])
    def test_malformed_line_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "poses.txt"
        path.write_text(f"5 0.0 0.0\n\n{line}\n")
        with pytest.raises(ScanParseError, match="poses.txt:3: bad pose line"):
            bench.read_pose_file(path)

    def test_repeated_id_names_path_and_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("0 1.0 2.0\n1 5.0 6.0\n0 3.0 4.0\n")
        with pytest.raises(ScanParseError, match="poses.txt:3: repeated scan id 0"):
            bench.read_pose_file(path)


class TestRunConfig:
    def test_invalid_choices_rejected(self):
        for bad in ({"preprocessing": "magic"}, {"protocol": "oxford"},
                    {"kinds": ("fog", "sleet")}, {"levels": (1, 4)}, {"levels": (0,)},
                    {"top_n": 0}, {"top_n": "5"},
                    # a repeat would score one severity twice into the SR
                    {"kinds": ("fog", "fog")}, {"levels": (1, 1, 2)}):
            with pytest.raises(ConfigError):
                RunConfig(**bad)

    @pytest.mark.parametrize("field, value", [
        ("kinds", 5), ("kinds", "fog"), ("kinds", None), ("kinds", {"fog": 1}),
        ("kinds", ["fog", 3]), ("levels", 2), ("levels", "123"), ("levels", [1.0, 2, 3]),
        ("levels", [True, 2]), ("levels", (1, None)),
    ])
    def test_kinds_and_levels_must_be_lists_of_their_type(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be a list"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("top_n", True), ("top_n", 2.0), ("rings", 0), ("rings", True), ("sectors", 0),
        ("sectors", "60"), ("exclude_recent", -1), ("exclude_recent", "a"),
        ("exclude_recent", False), ("seed", 1.5), ("seed", True), ("seed", None),
        ("pos_radius", "5"), ("pos_radius", -1.0), ("pos_radius", 0), ("pos_radius", True),
        ("pos_radius", math.nan), ("max_radius", math.inf), ("max_radius", 0.0),
        ("max_radius", [80.0]),
    ])
    def test_numbers_must_be_in_range_and_of_their_type(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("kw", [
        {"checkpoint": "net.ckpt"}, {"checkpoint": 5},
        {"checkpoint": 5, "preprocessing": "restorenet"},
        {"checkpoint": True, "preprocessing": "restorenet"},
    ], ids=["path_without_restorenet", "int", "int_with_restorenet", "bool_with_restorenet"])
    def test_checkpoint_must_be_a_path_for_restorenet(self, kw):
        # an int would open as a file descriptor, and True as stdout
        with pytest.raises(ConfigError, match="^checkpoint must be a path"):
            RunConfig(**kw)
        assert RunConfig(checkpoint="net.ckpt", preprocessing="restorenet").checkpoint

    def test_numbers_at_their_bounds_accepted(self):
        # a JSON integer is a radius too
        cfg = RunConfig(top_n=1, rings=1, sectors=1, exclude_recent=0,
                        pos_radius=5, max_radius=0.5)
        assert (cfg.pos_radius, cfg.max_radius) == (5, 0.5)


def fixed_preset(monkeypatch, params):
    """Every (kind, level) of the run corrupts with ``params``."""
    monkeypatch.setattr(weathersim, "severity_preset", lambda kind, level, seed=0: params)


class TestBenchmark:
    def test_clean_self_retrieval_and_sr(self, tmp_path):
        world = make_synthetic_world(seed=5, n_places=10, revisit_fraction=0.8)
        cfg = small_config()
        report = run_benchmark(world.database, world.queries, cfg)
        clean = report["rows"][0]
        assert clean["kind"] == "clean" and clean["level"] == 0
        assert clean["r1"] == pytest.approx(1.0)
        assert "fog" in report["sr"]
        assert 0.0 <= report["sr"]["fog"] <= 1.5

    def test_zero_severity_sr_is_one(self, monkeypatch):
        world = make_synthetic_world(seed=6, n_places=8, revisit_fraction=1.0)
        zero = {"snow": weathersim.SnowParams(rate=0.0),
                "fog": weathersim.FogParams(alpha=0.0, beta=0.0),
                "rain": weathersim.RainParams(rate=0.0)}
        monkeypatch.setattr(weathersim, "severity_preset",
                            lambda kind, level, seed=0: zero[kind])
        report = run_benchmark(world.database, world.queries,
                               small_config(kinds=weathersim.CORRUPTION_KINDS))
        assert report["sr"] == {"snow": 1.0, "fog": 1.0, "rain": 1.0}
        assert report["msr"] == 1.0
        # mSR is the mean over all three kinds: a partial grid has none
        fog_only = run_benchmark(world.database, world.queries, small_config())
        assert fog_only["sr"] == {"fog": 1.0} and fog_only["msr"] is None

    def test_net_without_restoration_rejected(self):
        world = make_synthetic_world(seed=6, n_places=3, revisit_fraction=1.0)
        net = ResLPRNet(NetConfig(base_channels=2))
        with pytest.raises(ConfigError, match="preprocessing is 'none'"):
            run_benchmark(world.database, world.queries, small_config(), net=net)

    def test_corruption_degrades_monotonically_on_average(self):
        world = make_synthetic_world(seed=7, n_places=12, revisit_fraction=0.8)
        cfg = small_config()
        report = run_benchmark(world.database, world.queries, cfg)
        alps = [r["auc"] + r["f1"] + r["r1"] + r["r5"]
                for r in report["rows"][1:]]
        assert alps[-1] <= report["alp_clean"] + 1e-9

    def test_report_byte_determinism(self, tmp_path):
        world = make_synthetic_world(seed=8, n_places=8, revisit_fraction=0.8)
        for d in ("one", "two"):
            cfg = small_config(levels=(1,), out_dir=str(tmp_path / d))
            run_benchmark(world.database, world.queries, cfg)
        assert ((tmp_path / "one" / "report.json").read_bytes()
                == (tmp_path / "two" / "report.json").read_bytes())
        assert (tmp_path / "one" / "metrics.csv").exists()
        assert (tmp_path / "one" / "recall_at_n.csv").exists()

    def test_stage_failure_names_stage(self, monkeypatch):
        world = make_synthetic_world(seed=9, n_places=4, revisit_fraction=1.0)
        config = small_config(levels=(1,))
        # not a parameter set: corrupt rejects it, and a ValueError keeps its type
        fixed_preset(monkeypatch, object())
        with pytest.raises(ValueError, match="fog takes FogParams, not object"):
            run_benchmark(world.database, world.queries, config)

        def fail(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(weathersim, "corrupt", fail)
        with pytest.raises(RuntimeError, match="evaluate_fog_1"):
            run_benchmark(world.database, world.queries, config)
        monkeypatch.setattr(lpr.PlaceDatabase, "query", fail)
        with pytest.raises(RuntimeError, match="evaluate_clean"):
            run_benchmark(world.database, world.queries, config)

    def test_total_dropout_still_scores(self, monkeypatch):
        # a corruption that erases every return degrades scores, not the run
        world = make_synthetic_world(seed=9, n_places=4, revisit_fraction=1.0)
        fixed_preset(monkeypatch, weathersim.FogParams(alpha=10.0, beta=0.0))
        report = run_benchmark(world.database, world.queries, small_config())
        assert report["rows"][1]["r1"] <= report["rows"][0]["r1"]

    def test_no_revisits_makes_metrics_undefined(self):
        world = make_synthetic_world(seed=10, n_places=6, revisit_fraction=0.0)
        db = bench.build_database(world.database, small_config())
        records = bench.evaluate_queries(db, world.queries, small_config())
        with pytest.raises(metrics.MetricError):
            metrics.recall_at_n(records, 1)

    def test_build_database_under_a_tracer(self):
        # a tracer holds references to the frames it sees; the database must
        # still grow in place under it, as under a debugger or profiler
        world = make_synthetic_world(seed=12, n_places=5, revisit_fraction=1.0)
        plain = bench.build_database(world.database, small_config())

        def tracer(frame, event, arg):
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            traced = bench.build_database(world.database, small_config())
        finally:
            sys.settrace(previous)
        assert traced.ids == plain.ids
        for e in world.queries:
            q = lpr.make_descriptor(e.cloud)
            assert traced.query(q, top_n=5) == plain.query(q, top_n=5)

    def test_restoration_pairs_shapes(self):
        world = make_synthetic_world(seed=11, n_places=3, revisit_fraction=1.0)
        cfg = small_config()
        pairs = bench.make_restoration_pairs(world.database[:2], "fog", (1, 2), cfg)
        assert len(pairs) == 4
        for corrupt, clean in pairs:
            assert corrupt.dist.shape == (32, 128)
            assert clean.dist.shape == (32, 128)
