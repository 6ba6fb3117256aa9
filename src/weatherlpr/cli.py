"""Command-line interface: corrupt | project | train | restore | index |
retrieve | evaluate | bench.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import math
import os
import sys

import numpy as np

from . import bench, lpr, metrics, weathersim
from .bench import ConfigError, RunConfig
from .pointcloud import ProjectionSpec, ScanParseError, ascii_int, project, read_scan, write_scan
from .restorenet import (NetConfig, ResLPRNet, TrainOptions, load_checkpoint,
                         save_checkpoint, train)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ProjectionSpec's fields, with the field of view in degrees
_PROJECTION_KEYS = {"height": int, "width": int, "fov_up_deg": float,
                    "fov_down_deg": float, "max_range": float}


def _projection(**given) -> ProjectionSpec:
    """ProjectionSpec from the fields given, with the field of view in
    degrees; an omitted field keeps ProjectionSpec's default."""
    unknown = given.keys() - _PROJECTION_KEYS
    if unknown:
        raise ConfigError(f"unknown projection fields: {sorted(unknown)}")
    # a bool passes unconverted, so ProjectionSpec rejects it as it does any bool
    return ProjectionSpec(**{key.removesuffix("_deg"): math.radians(value)
                             if key.endswith("_deg") and not isinstance(value, bool)
                             else value for key, value in given.items()})


def _projection_from_args(args) -> ProjectionSpec:
    return _projection(**{k: v for k, v in vars(args).items() if k in _PROJECTION_KEYS})


def _add_projection_args(p):
    # an option not given is absent from args, so its field keeps its default
    for key, kind in _PROJECTION_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind, default=argparse.SUPPRESS)


def _scan_files(directory):
    files = sorted(glob.glob(os.path.join(directory, "*.bin")))
    if not files:
        raise ScanParseError(f"no .bin scans under {directory}")
    return files


def _entries(paths, poses):
    """bench.ScanEntry per scan file, read one at a time; the scan id is the
    file name's stem, an integer that no other file has."""
    seen = {}
    for path in paths:
        sid = ascii_int(os.path.splitext(os.path.basename(path))[0], path)
        if sid in seen:
            raise ScanParseError(f"{path}: scan id {sid} repeats {seen[sid]}")
        seen[sid] = path
        if sid not in poses:
            raise ConfigError(f"no pose for scan {sid}")
        yield bench.ScanEntry(sid, read_scan(path), poses[sid])


def cmd_corrupt(args) -> int:
    params = weathersim.severity_preset(args.kind, args.level, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    records = []
    for path in _scan_files(getattr(args, "in")):
        cloud = read_scan(path)
        corrupted, ann = weathersim.corrupt(cloud, args.kind, params)
        write_scan(corrupted, os.path.join(args.out, os.path.basename(path)))
        records.append((cloud.frame_id, ann))
    weathersim.write_annotations(records, os.path.join(args.out, "annotations.txt"))
    print(f"corrupted {len(records)} scans -> {args.out}")
    return 0


def cmd_project(args) -> int:
    spec = _projection_from_args(args)
    img = project(read_scan(getattr(args, "in")), spec)
    np.savez(args.out, dist=img.dist, inten=img.inten, mask=img.mask)
    print(f"projected -> {args.out} ({spec.height}x{spec.width})")
    return 0


def cmd_train(args) -> int:
    opts = TrainOptions(lr=args.lr, epochs=args.epochs,
                        patch=(args.patch_h, args.patch_w), seed=args.seed)
    net_config = NetConfig(base_channels=args.channels, seed=args.seed)
    spec = _projection_from_args(args)
    manifest = bench.load_manifest(args.manifest)
    if not manifest.train_pairs:
        raise ConfigError("manifest has no train_pairs")
    pairs = []
    for corrupt_path, clean_path in manifest.train_pairs:
        pairs.append((project(read_scan(corrupt_path), spec),
                      project(read_scan(clean_path), spec)))
    net = ResLPRNet(net_config)
    curve = train(net, pairs, opts)
    save_checkpoint(net, args.out)
    print(f"trained {len(curve)} steps; loss {curve[0]:.4f} -> {curve[-1]:.4f}; "
          f"checkpoint -> {args.out}")
    return 0


def cmd_restore(args) -> int:
    net = load_checkpoint(args.ckpt)
    spec = _projection_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    count = 0
    for path in _scan_files(getattr(args, "in")):
        cloud = read_scan(path)
        restored = bench.restore_cloud(cloud, net, spec)
        write_scan(restored, os.path.join(args.out, os.path.basename(path)))
        count += 1
    print(f"restored {count} scans -> {args.out}")
    return 0


def cmd_index(args) -> int:
    poses = bench.read_pose_file(args.poses)
    config = RunConfig(rings=args.rings, sectors=args.sectors)
    db = bench.build_database(_entries(_scan_files(getattr(args, "in")), poses), config)
    db.save(args.out)
    print(f"indexed {len(db)} scans -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    db = lpr.PlaceDatabase.load(args.db)
    desc = lpr.make_descriptor(read_scan(args.query), db.rings, db.sectors)
    for sid, dist in db.query(desc, top_n=args.top_n):
        print(f"{sid} {dist:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    db = lpr.PlaceDatabase.load(args.db)
    poses = bench.read_pose_file(args.query_poses)
    config = RunConfig(rings=db.rings, sectors=db.sectors, top_n=args.top_n,
                       exclude_recent=args.exclude_recent, pos_radius=args.pos_radius)
    records = bench.evaluate_queries(db, _entries(_scan_files(args.queries), poses), config)
    row = metrics.score_records(records, "unknown", 0, "none", config.pos_radius)
    print(f"AUC={row.auc:.4f} F1={row.f1:.4f} "
          f"R@1={row.r1:.4f} R@5={row.r5:.4f} R@20={row.r20:.4f}")
    if args.out:
        metrics.write_csv([row], args.out)
    return 0


def _bench_config(raw: dict, args) -> RunConfig:
    """RunConfig from the config keys that name its fields (``out_dir`` is
    ``--out``); ``projection`` gives its field of view in degrees."""
    fields = {f.name for f in dataclasses.fields(RunConfig)} - {"out_dir"}
    unknown = set(raw) - fields - {"synthetic", "manifest"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kw = {key: raw[key] for key in fields & set(raw)}
    try:
        kw["projection"] = _projection(**raw.get("projection", {}))
    except TypeError as exc:
        raise ConfigError(f"bad projection block: {exc}") from exc
    if args.seed is not None:
        kw["seed"] = args.seed
    return RunConfig(**kw, out_dir=args.out)


def cmd_bench(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {args.config} is not a JSON object")
    config = _bench_config(raw, args)

    if "synthetic" in raw and "manifest" in raw:
        raise ConfigError("config gives both 'synthetic' and 'manifest'; give one")
    if "synthetic" in raw:
        try:
            world = bench.make_synthetic_world(
                seed=config.seed, **{"n_places": 50, "revisit_fraction": 0.8,
                                     **raw["synthetic"]})
        except TypeError as exc:
            raise ConfigError(f"bad synthetic block: {exc}") from exc
        database, queries = world.database, world.queries
    elif "manifest" in raw:
        manifest = bench.load_manifest(
            raw["manifest"] if os.path.isabs(raw["manifest"])
            else os.path.join(os.path.dirname(os.path.abspath(args.config)),
                              raw["manifest"]))
        database = tuple(_entries(manifest.database_scans,
                                  bench.read_pose_file(manifest.database_poses)))
        queries = tuple(_entries(manifest.query_scans,
                                 bench.read_pose_file(manifest.query_poses)))
    else:
        raise ConfigError("config needs either 'synthetic' or 'manifest'")

    report = bench.run_benchmark(database, queries, config)
    print(f"alp_clean={report['alp_clean']:.4f} sr={report['sr']} "
          f"msr={report['msr']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weatherlpr",
        description="LiDAR weather-corruption benchmark and restoration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corrupt", help="corrupt clean scans with fog/snow/rain")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", required=True, choices=weathersim.CORRUPTION_KINDS)
    p.add_argument("--level", required=True, type=int, choices=weathersim.SEVERITY_LEVELS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("project", help="project a scan to a range image (.npz)")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    _add_projection_args(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("train", help="train the restoration network")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float, default=TrainOptions.lr)
    p.add_argument("--epochs", type=int, default=TrainOptions.epochs)
    p.add_argument("--channels", type=int, default=NetConfig.base_channels)
    p.add_argument("--patch-h", type=int, default=TrainOptions.patch[0])
    p.add_argument("--patch-w", type=int, default=TrainOptions.patch[1])
    p.add_argument("--seed", type=int, default=TrainOptions.seed)
    _add_projection_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("restore", help="restore corrupted scans via a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    _add_projection_args(p)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("index", help="build a place database from scans")
    p.add_argument("--in", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rings", type=int, default=lpr.DEFAULT_RINGS)
    p.add_argument("--sectors", type=int, default=lpr.DEFAULT_SECTORS)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="query a place database with one scan")
    p.add_argument("--db", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--top-n", type=int, default=5)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("evaluate", help="score a query set against a database")
    p.add_argument("--db", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--query-poses", required=True)
    p.add_argument("--out")
    p.add_argument("--top-n", type=int, default=RunConfig.top_n)
    p.add_argument("--pos-radius", type=float, default=metrics.DEFAULT_POS_RADIUS)
    p.add_argument("--exclude-recent", type=int, default=50)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="run the full benchmark from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (metrics.MetricError, FloatingPointError, RuntimeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ScanParseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
