import hashlib
import json
import math
import shutil
import sys
import tracemalloc

import numpy as np
import pytest

from weatherlpr import bench, cli, restorenet
from weatherlpr.pointcloud import ProjectionSpec, ScanParseError, project, read_scan
from weatherlpr.bench import make_synthetic_world

from helpers import write_world

PROJ_ARGS = ["--height", "32", "--width", "128"]


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("world")
    world = make_synthetic_world(seed=21, n_places=6, revisit_fraction=1.0)
    write_world(world, d)
    return d


class TestCorrupt:
    def test_writes_scans_and_annotations(self, world_dir, tmp_path):
        out = tmp_path / "foggy"
        rc = cli.main(["corrupt", "--in", str(world_dir / "database"),
                       "--out", str(out), "--kind", "fog", "--level", "2",
                       "--seed", "3"])
        assert rc == 0
        assert len(list(out.glob("*.bin"))) == 6
        assert (out / "annotations.txt").exists()

    def test_zero_level_rejected(self, world_dir, tmp_path):
        rc = cli.main(["corrupt", "--in", str(world_dir / "database"),
                       "--out", str(tmp_path / "x"), "--kind", "fog",
                       "--level", "9"])
        assert rc == cli.EXIT_CONFIG

    def test_missing_scans_is_data_error(self, tmp_path):
        rc = cli.main(["corrupt", "--in", str(tmp_path / "nowhere"),
                       "--out", str(tmp_path / "x"), "--kind", "fog",
                       "--level", "1"])
        assert rc == cli.EXIT_DATA


class TestProject:
    def test_writes_npz(self, world_dir, tmp_path):
        scan = sorted((world_dir / "database").glob("*.bin"))[0]
        out = tmp_path / "img.npz"
        rc = cli.main(["project", "--in", str(scan), "--out", str(out),
                       *PROJ_ARGS])
        assert rc == 0
        data = np.load(out)
        assert data["dist"].shape == (32, 128)
        assert data["mask"].dtype == bool

    @pytest.mark.parametrize("option", ["--max-range", "--fov-up-deg", "--fov-down-deg"])
    def test_nan_geometry_exits_2(self, world_dir, tmp_path, option):
        scan = sorted((world_dir / "database").glob("*.bin"))[0]
        out = tmp_path / "img.npz"
        rc = cli.main(["project", "--in", str(scan), "--out", str(out), *PROJ_ARGS,
                       option, "nan"])
        assert rc == cli.EXIT_CONFIG
        assert not out.exists()


@pytest.fixture(scope="module")
def db_path(world_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("db") / "places.db"
    rc = cli.main(["index", "--in", str(world_dir / "database"),
                   "--poses", str(world_dir / "database_poses.txt"),
                   "--out", str(out)])
    assert rc == 0
    return out


class TestIndexRetrieveEvaluate:
    def test_index_under_a_profiler(self, world_dir, db_path, tmp_path):
        out = tmp_path / "profiled.db"
        previous = sys.getprofile()
        sys.setprofile(lambda frame, event, arg: None)
        try:
            rc = cli.main(["index", "--in", str(world_dir / "database"),
                           "--poses", str(world_dir / "database_poses.txt"),
                           "--out", str(out)])
        finally:
            sys.setprofile(previous)
        assert rc == 0
        assert out.read_bytes() == db_path.read_bytes()

    def test_retrieve_member_scan(self, world_dir, db_path, capsys):
        scan = sorted((world_dir / "database").glob("*.bin"))[2]
        rc = cli.main(["retrieve", "--db", str(db_path), "--query", str(scan),
                       "--top-n", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        top_id, top_dist = lines[0].split()
        assert int(top_id) == 2
        assert float(top_dist) == pytest.approx(0.0, abs=1e-6)

    def test_evaluate_writes_csv(self, world_dir, db_path, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        rc = cli.main(["evaluate", "--db", str(db_path),
                       "--queries", str(world_dir / "queries"),
                       "--query-poses", str(world_dir / "query_poses.txt"),
                       "--top-n", "6", "--exclude-recent", "0",
                       "--out", str(out)])
        assert rc == 0
        assert "R@1=1.0000" in capsys.readouterr().out
        assert out.exists()

    @pytest.mark.parametrize("option, value", [
        ("--pos-radius", "-1"), ("--pos-radius", "nan"), ("--exclude-recent", "-1")])
    def test_evaluate_setting_out_of_range_exits_2(self, world_dir, db_path, option, value):
        rc = cli.main(["evaluate", "--db", str(db_path),
                       "--queries", str(world_dir / "queries"),
                       "--query-poses", str(world_dir / "query_poses.txt"), option, value])
        assert rc == cli.EXIT_CONFIG

    def test_evaluate_matches_library_pipeline(self, world_dir, db_path, capsys):
        # the CLI stages compose to the same numbers as the library call
        rc = cli.main(["evaluate", "--db", str(db_path),
                       "--queries", str(world_dir / "queries"),
                       "--query-poses", str(world_dir / "query_poses.txt"),
                       "--top-n", "6", "--exclude-recent", "0"])
        assert rc == 0
        cli_out = capsys.readouterr().out

        world = make_synthetic_world(seed=21, n_places=6, revisit_fraction=1.0)
        cfg = bench.RunConfig(top_n=6)
        db = bench.build_database(world.database, cfg)
        records = bench.evaluate_queries(db, world.queries, cfg)
        from weatherlpr import metrics
        row = metrics.score_records(records, "unknown", 0, "none")
        assert f"AUC={row.auc:.4f}" in cli_out
        assert f"R@5={row.r5:.4f}" in cli_out


class TestInputErrors:
    """Malformed input files exit 3 (data) or 2 (configuration), never with
    a traceback."""

    def index(self, world_dir, poses, tmp_path):
        return cli.main(["index", "--in", str(world_dir / "database"),
                         "--poses", str(poses), "--out", str(tmp_path / "p.db")])

    def bench(self, cfg, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return cli.main(["bench", "--config", str(path), "--out", str(tmp_path / "run")])

    def manifest(self, world_dir, tmp_path, query_poses=None):
        def role(name, poses):
            return {"scans": [str(p) for p in sorted((world_dir / name).glob("*.bin"))],
                    "poses": str(poses)}

        raw = {"database": role("database", world_dir / "database_poses.txt"),
               "queries": role("queries", query_poses or world_dir / "query_poses.txt")}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(raw))
        return path

    def test_truncated_database_exits_3(self, world_dir, db_path, tmp_path):
        blob = db_path.read_bytes()
        scan = sorted((world_dir / "database").glob("*.bin"))[0]
        for n in (0, 3, 10, 18, 30, len(blob) // 2, len(blob) - 1):
            cut = tmp_path / f"cut{n}.db"
            cut.write_bytes(blob[:n])
            rc = cli.main(["retrieve", "--db", str(cut), "--query", str(scan)])
            assert rc == cli.EXIT_DATA, n

    def test_database_with_bytes_past_last_entry_exits_3(self, world_dir, db_path, tmp_path):
        scan = sorted((world_dir / "database").glob("*.bin"))[0]
        long = tmp_path / "long.db"
        long.write_bytes(db_path.read_bytes() + bytes(40))
        rc = cli.main(["retrieve", "--db", str(long), "--query", str(scan)])
        assert rc == cli.EXIT_DATA

    def test_database_with_repeated_id_exits_3(self, world_dir, db_path, tmp_path):
        blob = bytearray(db_path.read_bytes())
        rings, sectors = np.frombuffer(blob[8:16], dtype="<u4")
        record = 24 + 4 * int(rings) * int(sectors)
        blob[20 + record:28 + record] = blob[20:28]   # entry 1 takes entry 0's id
        bad = tmp_path / "dup.db"
        bad.write_bytes(bytes(blob))
        scan = sorted((world_dir / "database").glob("*.bin"))[0]
        assert cli.main(["retrieve", "--db", str(bad), "--query", str(scan)]) == cli.EXIT_DATA

    def test_database_with_nan_pose_exits_3(self, world_dir, db_path, tmp_path, capsys):
        blob = bytearray(db_path.read_bytes())
        blob[28:36] = np.array([np.nan], dtype="<f8").tobytes()   # entry 0's x
        bad = tmp_path / "nan.db"
        bad.write_bytes(bytes(blob))
        rc = cli.main(["evaluate", "--db", str(bad), "--queries", str(world_dir / "queries"),
                       "--query-poses", str(world_dir / "query_poses.txt")])
        assert rc == cli.EXIT_DATA
        assert "nan.db:" in capsys.readouterr().err

    def scans_with(self, world_dir, tmp_path, name):
        """The database scans plus one more file ``name``, a copy of the second."""
        scans = tmp_path / "scans"
        shutil.copytree(world_dir / "database", scans)
        source = sorted(scans.glob("*.bin"))[1]
        shutil.copyfile(source, scans / name)
        return scans, source

    def test_scan_name_not_an_id_exits_3(self, world_dir, tmp_path, capsys):
        scans, _ = self.scans_with(world_dir, tmp_path, "notes.bin")
        rc = cli.main(["index", "--in", str(scans), "--poses",
                       str(world_dir / "database_poses.txt"), "--out", str(tmp_path / "p.db")])
        assert rc == cli.EXIT_DATA
        assert str(scans / "notes.bin") in capsys.readouterr().err

    def test_scan_names_repeating_an_id_exit_3(self, world_dir, tmp_path, capsys):
        scans, source = self.scans_with(world_dir, tmp_path, "1.bin")
        assert source.name == "000001.bin"
        rc = cli.main(["index", "--in", str(scans), "--poses",
                       str(world_dir / "database_poses.txt"), "--out", str(tmp_path / "p.db")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(scans / "1.bin") in err and str(source) in err

    @pytest.mark.parametrize("rings, sectors", [(20, 0), (0, 60)])
    def test_database_with_empty_grid_exits_3(self, world_dir, tmp_path, rings, sectors):
        # a header and entries of matching size, each with no cells
        entries = np.zeros(3, dtype=[("id", "<i8"), ("pose", "<f8", 2)])
        entries["id"] = [0, 1, 2]
        bad = tmp_path / "grid.db"
        bad.write_bytes(b"WLDB" + np.array([1, rings, sectors, 3], dtype="<u4").tobytes()
                        + entries.tobytes())
        scan = sorted((world_dir / "database").glob("*.bin"))[0]
        assert cli.main(["retrieve", "--db", str(bad), "--query", str(scan)]) == cli.EXIT_DATA

    def test_header_only_database_exits_3(self, world_dir, tmp_path):
        # no entries, and a grid of (2^32 - 1)^2 cells that no query can build
        bad = tmp_path / "header.db"
        bad.write_bytes(b"WLDB" + np.array([1, 2**32 - 1, 2**32 - 1, 0], dtype="<u4").tobytes())
        scan = sorted((world_dir / "database").glob("*.bin"))[0]
        assert cli.main(["retrieve", "--db", str(bad), "--query", str(scan)]) == cli.EXIT_DATA

    def test_pose_file_not_utf8_exits_3(self, world_dir, tmp_path):
        poses = tmp_path / "poses.txt"
        poses.write_bytes((world_dir / "database_poses.txt").read_bytes() + b"\xff 1.0 2.0\n")
        assert self.index(world_dir, poses, tmp_path) == cli.EXIT_DATA

    def test_pose_line_missing_field_exits_3(self, world_dir, tmp_path):
        poses = tmp_path / "poses.txt"
        poses.write_text("0 1.0\n")
        assert self.index(world_dir, poses, tmp_path) == cli.EXIT_DATA

    def test_pose_line_non_numeric_exits_3(self, world_dir, tmp_path):
        poses = tmp_path / "poses.txt"
        poses.write_text("0 1.0 east\n")
        assert self.index(world_dir, poses, tmp_path) == cli.EXIT_DATA

    @pytest.mark.parametrize("text", ["0 1.0 2.0 junk\n", "0 1.0 2.0\n0 3.0 4.0\n"],
                             ids=["extra field", "repeated id"])
    def test_pose_file_garbled_line_exits_3(self, world_dir, tmp_path, text, capsys):
        poses = tmp_path / "poses.txt"
        poses.write_text(text + (world_dir / "database_poses.txt").read_text())
        assert self.index(world_dir, poses, tmp_path) == cli.EXIT_DATA
        assert "poses.txt:" in capsys.readouterr().err

    def test_manifest_without_queries_exits_2(self, world_dir, tmp_path):
        path = self.manifest(world_dir, tmp_path)
        raw = json.loads(path.read_text())
        del raw["queries"]
        path.write_text(json.dumps(raw))
        rc = cli.main(["train", "--manifest", str(path), "--out", str(tmp_path / "c")])
        assert rc == cli.EXIT_CONFIG

    def test_manifest_scan_without_pose_exits_2(self, world_dir, tmp_path):
        poses = tmp_path / "few_poses.txt"
        poses.write_text("0 0.0 0.0\n")
        path = self.manifest(world_dir, tmp_path, query_poses=poses)
        assert self.bench({"manifest": str(path)}, tmp_path) == cli.EXIT_CONFIG

    def test_manifest_without_database_scans_exits_2(self, world_dir, tmp_path):
        # the empty database fails inside run_benchmark: a typed error, not exit 4
        path = self.manifest(world_dir, tmp_path)
        raw = json.loads(path.read_text())
        raw["database"]["scans"] = []
        path.write_text(json.dumps(raw))
        assert self.bench({"manifest": str(path)}, tmp_path) == cli.EXIT_CONFIG

    def test_zero_top_n_exits_2(self, tmp_path):
        cfg = {"top_n": 0, "synthetic": {"n_places": 3}}
        assert self.bench(cfg, tmp_path) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("cfg", [
        {"synthetic": {"n_places": 4, "n_place": 99}, "kind": ["fog"], "levels": [1]},
        {"synthetic": {"n_places": 4, "n_place": 99}, "kinds": ["fog"], "levels": [1]},
        {"synthetic": {"n_places": 4}, "out_dir": "elsewhere"},
    ], ids=["kind", "n_place", "out_dir"])
    def test_unknown_config_key_exits_2(self, tmp_path, cfg):
        assert self.bench(cfg, tmp_path) == cli.EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("cfg", [
        {"synthetic": {"n_places": 3}, "manifest": "nowhere.json", "kinds": ["fog"],
         "levels": [1]},
        {"synthetic": {"n_places": 40}, "kinds": ["fog", "sleet"]},
        {"synthetic": {"n_places": 40}, "kinds": ["fog"], "levels": [1, 1, 2]},
        {"synthetic": {"n_places": 40}, "kinds": 5},
        {"synthetic": {"n_places": 40}, "levels": 2},
        {"synthetic": {"n_places": 40}, "kinds": "fog"},
        {"synthetic": {"n_places": 40}, "kinds": ["fog"], "levels": [1.0, 2, 3]},
        {"synthetic": {"n_places": 40}, "kinds": ["fog"], "levels": [True, 2, 3]},
        {"synthetic": {"n_places": 4}, "rings": 0},
        {"synthetic": {"n_places": 4}, "sectors": 0},
        {"synthetic": {"n_places": 4}, "pos_radius": "5"},
        {"synthetic": {"n_places": 4}, "exclude_recent": "a"},
        {"synthetic": {"n_places": 4}, "pos_radius": -1.0},
        {"synthetic": {"n_places": 4}, "top_n": True},
        {"synthetic": {"n_places": 4}, "projection": {"max_range": math.nan}},
        {"synthetic": {"n_places": 4}, "projection": {"height": None}},
        {"synthetic": {"n_places": 4}, "projection": [32, 128]},
        {"synthetic": {"n_places": 4}, "checkpoint": 5},
        {"synthetic": {"n_places": 4}, "checkpoint": "net.ckpt"},
        {"synthetic": {"n_places": 4}, "preprocessing": "restorenet", "checkpoint": 5},
    ], ids=["both_sources", "sleet", "repeated_level", "scalar_kinds", "scalar_levels",
            "string_kinds", "float_level", "bool_level", "zero_rings", "zero_sectors",
            "string_pos_radius", "string_exclude_recent", "negative_pos_radius",
            "bool_top_n", "nan_max_range", "null_height", "list_projection",
            "checkpoint_without_restorenet", "path_without_restorenet",
            "int_checkpoint"])
    def test_rejected_before_any_stage_runs(self, tmp_path, cfg):
        assert self.bench(cfg, tmp_path) == cli.EXIT_CONFIG
        assert not (tmp_path / "run" / "report.json").exists()

    def test_index_with_zero_rings_exits_2(self, world_dir, tmp_path):
        rc = cli.main(["index", "--in", str(world_dir / "database"),
                       "--poses", str(world_dir / "database_poses.txt"),
                       "--out", str(tmp_path / "p.db"), "--rings", "0"])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "p.db").exists()

    @pytest.mark.parametrize("option, value", [("--epochs", "0"), ("--lr", "nan")])
    def test_train_setting_it_cannot_use_exits_2(self, world_dir, tmp_path, option, value):
        # a usable manifest, so only the setting can stop the run
        scans = sorted((world_dir / "database").glob("*.bin"))
        path = self.manifest(world_dir, tmp_path)
        raw = json.loads(path.read_text())
        raw["train_pairs"] = [[str(scans[0]), str(scans[1])]]
        path.write_text(json.dumps(raw))
        rc = cli.main(["train", "--manifest", str(path), "--out", str(tmp_path / "c"),
                       "--channels", "2", "--patch-h", "16", "--patch-w", "32",
                       "--epochs", "1", *PROJ_ARGS, option, value])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("option, value", [
        ("--channels", "3"), ("--patch-h", "8"), ("--patch-w", "0")])
    def test_train_rejects_settings_before_reading_a_scan(self, world_dir, tmp_path,
                                                          option, value):
        # the train pairs do not exist: reading one would exit 3
        path = self.manifest(world_dir, tmp_path)
        raw = json.loads(path.read_text())
        raw["train_pairs"] = [[str(tmp_path / "none1.bin"), str(tmp_path / "none2.bin")]]
        path.write_text(json.dumps(raw))
        rc = cli.main(["train", "--manifest", str(path), "--out", str(tmp_path / "c"),
                       option, value])
        assert rc == cli.EXIT_CONFIG

    def test_config_not_an_object_exits_2(self, tmp_path):
        assert self.bench(["synthetic"], tmp_path) == cli.EXIT_CONFIG

    def test_unknown_projection_key_exits_2(self, tmp_path):
        cfg = {"projection": {"height": 32, "hieght": 16}, "synthetic": {"n_places": 3}}
        assert self.bench(cfg, tmp_path) == cli.EXIT_CONFIG


class TestRestore:
    def test_truncated_checkpoint_is_data_error(self, world_dir, tmp_path):
        ckpt = tmp_path / "net.ckpt"
        restorenet.save_checkpoint(
            restorenet.ResLPRNet(restorenet.NetConfig(base_channels=2)), ckpt)
        blob = ckpt.read_bytes()
        # layout: magic 4, header 20, then the first tensor's name length
        # (2), name, rank (1), dims (4 each) and float32 data
        nlen = int.from_bytes(blob[24:26], "little")
        rank_at = 26 + nlen
        dims_at = rank_at + 1
        data_at = dims_at + 4 * blob[rank_at]
        cuts = {"magic": 2, "header": 10, "name": 26 + nlen // 2,
                "rank": rank_at, "dims": dims_at + 3, "data": data_at + 5,
                "last tensor data": len(blob) - 1}

        def restore(path):
            return cli.main(["restore", "--ckpt", str(path),
                             "--in", str(world_dir / "database"),
                             "--out", str(tmp_path / "out"),
                             "--height", "16", "--width", "32"])

        assert restore(ckpt) == 0
        for where, cut in cuts.items():
            bad = tmp_path / f"cut{cut}.ckpt"
            bad.write_bytes(blob[:cut])
            with pytest.raises(ScanParseError):
                restorenet.load_checkpoint(bad)
            assert restore(bad) == cli.EXIT_DATA, where
        zero_cap = tmp_path / "cap0.ckpt"  # header field attn_token_cap = 0
        zero_cap.write_bytes(blob[:20] + bytes(4) + blob[24:])
        assert restore(zero_cap) == cli.EXIT_DATA
        odd = tmp_path / "odd.ckpt"  # base_channels = 3, which the decoder rejects
        odd.write_bytes(blob[:12] + (3).to_bytes(4, "little") + blob[16:])
        assert restore(odd) == cli.EXIT_DATA

    def test_bytes_past_last_tensor_is_data_error(self, world_dir, tmp_path):
        ckpt = tmp_path / "net.ckpt"
        restorenet.save_checkpoint(
            restorenet.ResLPRNet(restorenet.NetConfig(base_channels=2)), ckpt)
        end = ckpt.stat().st_size
        with open(ckpt, "ab") as fh:
            fh.write(bytes(400))
        with pytest.raises(ScanParseError, match=f"at byte {end}"):
            restorenet.load_checkpoint(ckpt)
        assert cli.main(["restore", "--ckpt", str(ckpt), "--in", str(world_dir / "database"),
                         "--out", str(tmp_path / "out"), *PROJ_ARGS]) == cli.EXIT_DATA

    def test_non_finite_weight_is_data_error(self, world_dir, tmp_path):
        ckpt = tmp_path / "net.ckpt"
        restorenet.save_checkpoint(
            restorenet.ResLPRNet(restorenet.NetConfig(base_channels=2)), ckpt)
        blob = bytearray(ckpt.read_bytes())
        # the first tensor is embed.w, rank 4: its data starts after magic and
        # header (24), name length (2), name, rank (1) and dims (16)
        data_at = 24 + 2 + len(b"embed.w") + 1 + 16
        blob[data_at + 8:data_at + 12] = np.array([np.nan], dtype="<f4").tobytes()
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ScanParseError, match="embed.w"):
            restorenet.load_checkpoint(bad)
        assert cli.main(["restore", "--ckpt", str(bad), "--in", str(world_dir / "database"),
                         "--out", str(tmp_path / "out"), *PROJ_ARGS]) == cli.EXIT_DATA
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("base_c, n_ctx", [(255, 3), (2**32 - 1, 3), (2, 2**32 - 1)])
    def test_header_larger_than_file_fails_before_building(self, tmp_path, base_c, n_ctx):
        ckpt = tmp_path / "net.ckpt"
        restorenet.save_checkpoint(
            restorenet.ResLPRNet(restorenet.NetConfig(base_channels=2)), ckpt)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:12] + np.array([base_c, n_ctx], dtype="<u4").tobytes()
                         + blob[20:])
        tracemalloc.start()
        try:
            with pytest.raises(ScanParseError, match="does not fit"):
                restorenet.load_checkpoint(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{peak / 2**20:.1f} MB"


class TestBenchCommand:
    def test_synthetic_run(self, tmp_path, capsys):
        cfg = {"kinds": ["fog"], "levels": [1],
               "projection": {"height": 32, "width": 128},
               "synthetic": {"n_places": 5, "revisit_fraction": 1.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["bench", "--config", str(path),
                       "--out", str(tmp_path / "run"), "--seed", "4"])
        assert rc == 0
        assert (tmp_path / "run" / "report.json").exists()
        assert "alp_clean=" in capsys.readouterr().out

    def test_outputs_pinned(self, tmp_path):
        # every number, key and layout of the bench outputs for one config:
        # a refactor that changes any of them changes these bytes
        cfg = {"synthetic": {"n_places": 10}, "top_n": 10,
               "projection": {"height": 32, "width": 128}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["bench", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        pins = {
            "report.json": "01889940ca60dfdcb910bd48a89215e64ded990fbd1702ec0ac9e5590502fa87",
            "metrics.csv": "b6370cfa61fcc69b26057ac5099bb5def4fab2cd91d620491247aec6c5faf6e8",
            "recall_at_n.csv": "0215c3e57c52c50f51b1d6f802029e7949969477515f9b4f437fad1c14cd7584",
        }
        for name, want in pins.items():
            got = hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
            assert got == want, name

    def test_bad_config_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        rc = cli.main(["bench", "--config", str(path),
                       "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG

    def test_config_without_source_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kinds": ["fog"]}))
        rc = cli.main(["bench", "--config", str(path),
                       "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_CONFIG


class TestParser:
    def test_unknown_command_exit_code(self):
        assert cli.main(["transmogrify"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["index", "--in", "scans", "--poses", "poses.txt", "--out", "places.db"],
        ["retrieve", "--db", "places.db", "--query", "000000.bin"],
        ["evaluate", "--db", "places.db", "--queries", "q", "--query-poses", "poses.txt"],
    ], ids=["index", "retrieve", "evaluate"])
    def test_max_radius_is_not_an_option(self, argv):
        # the database does not record the radius, so every command uses
        # lpr.DEFAULT_MAX_RADIUS and none can disagree with another
        assert cli.main(argv + ["--max-radius", "20"]) == cli.EXIT_CONFIG

    def test_defaults_are_the_dataclass_fields(self):
        parse = cli.build_parser().parse_args
        args = parse(["train", "--manifest", "m.json", "--out", "c"])
        opts = restorenet.TrainOptions()
        assert (args.lr, args.epochs, (args.patch_h, args.patch_w), args.seed) == (
            opts.lr, opts.epochs, opts.patch, opts.seed)
        assert args.channels == restorenet.NetConfig().base_channels
        # the field of view is not round-tripped through degrees
        assert cli._projection_from_args(args) == ProjectionSpec()
        args = parse(["evaluate", "--db", "p.db", "--queries", "q", "--query-poses", "p.txt"])
        assert args.top_n == bench.RunConfig().top_n

    def test_project_without_options_uses_projection_spec(self, world_dir, tmp_path):
        scan = sorted((world_dir / "database").glob("*.bin"))[0]
        out = tmp_path / "img.npz"
        assert cli.main(["project", "--in", str(scan), "--out", str(out)]) == 0
        img = project(read_scan(scan), ProjectionSpec())
        with np.load(out) as data:
            for name in ("dist", "inten", "mask"):
                assert data[name].tobytes() == getattr(img, name).tobytes(), name

    def test_entry_point_help(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--help"])
        assert "corrupt" in capsys.readouterr().out
